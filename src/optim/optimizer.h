// Stochastic optimizers. Algorithm 1's customizable components (Q, Q^-1,
// phi, psi) are optimizer independent; the trainer applies any of these to
// the aggregated decompressed gradient. State (momentum, moment estimates)
// is kept per parameter slot.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace grace::optim {

enum class OptimizerType { Sgd, Momentum, Nesterov, Adam, RmsProp };

struct OptimizerConfig {
  OptimizerType type = OptimizerType::Sgd;
  double lr = 0.01;
  double momentum = 0.9;       // Momentum / Nesterov
  double beta1 = 0.9;          // Adam
  double beta2 = 0.999;        // Adam
  double rho = 0.9;            // RMSProp decay
  double eps = 1e-8;
  double weight_decay = 0.0;   // L2 added to the gradient
};

class Optimizer {
 public:
  explicit Optimizer(OptimizerConfig cfg) : cfg_(cfg) {}
  virtual ~Optimizer() = default;

  // Applies one update to parameter tensor `slot` given its aggregated
  // gradient. Slots must be used consistently across iterations, and
  // `param` must not overlap `grad` (the update loops are __restrict).
  virtual void apply(size_t slot, std::span<float> param,
                     std::span<const float> grad) = 0;

  void set_lr(double lr) { cfg_.lr = lr; }
  double lr() const { return cfg_.lr; }
  const OptimizerConfig& config() const { return cfg_; }

 protected:
  // Per-slot state buffer, created on first use with the given size.
  std::span<float> state(std::vector<Tensor>& store, size_t slot, size_t n);

  OptimizerConfig cfg_;
};

std::unique_ptr<Optimizer> make_optimizer(const OptimizerConfig& cfg);

// Parses names used by benchmark configs: "sgd", "momentum", "nesterov",
// "adam", "rmsprop". Throws std::invalid_argument on unknown names.
OptimizerType optimizer_type_from_name(const std::string& name);
std::string optimizer_name(OptimizerType t);

}  // namespace grace::optim
