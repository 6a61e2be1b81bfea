#include "optim/optimizer.h"

#include <cmath>
#include <stdexcept>

#include "tensor/ops.h"

namespace grace::optim {

std::span<float> Optimizer::state(std::vector<Tensor>& store, size_t slot,
                                  size_t n) {
  if (store.size() <= slot) store.resize(slot + 1);
  if (store[slot].numel() != static_cast<int64_t>(n)) {
    store[slot] = Tensor::zeros(Shape{{static_cast<int64_t>(n)}});
  }
  return store[slot].f32();
}

namespace {

// The update loops run over __restrict raw pointers (apply() requires
// param and grad not to overlap; state buffers are the optimizer's own),
// and the weight-decay test is a template parameter hoisted out of the loop. With
// -fno-math-errno (top-level CMakeLists.txt) sqrt needs no errno branch
// either, so GCC vectorizes every loop. IEEE add/mul/div/sqrt are
// correctly rounded in every vector lane and the op order is exactly as
// written, so the vector loops are bitwise equal to a scalar loop.

// The L2-decayed gradient g + wd * p.
template <bool kWeightDecay>
inline float decayed(float g, float p, float wd) {
  if constexpr (kWeightDecay) g += wd * p;
  return g;
}

// Calls loop.template operator()<true or false>(), the template argument
// being whether weight decay is on.
template <typename Loop>
void with_weight_decay(double weight_decay, Loop&& loop) {
  if (weight_decay != 0.0) {
    loop.template operator()<true>();
  } else {
    loop.template operator()<false>();
  }
}

template <bool kWd>
void sgd_update(float* __restrict param, const float* __restrict grad,
                size_t n, float wd, float lr) {
  for (size_t i = 0; i < n; ++i) {
    param[i] -= lr * decayed<kWd>(grad[i], param[i], wd);
  }
}

template <bool kWd, bool kNesterov>
void momentum_update(float* __restrict param, const float* __restrict grad,
                     float* __restrict v, size_t n, float wd, float lr,
                     float mu) {
  for (size_t i = 0; i < n; ++i) {
    const float g = decayed<kWd>(grad[i], param[i], wd);
    v[i] = mu * v[i] + g;
    param[i] -= lr * (kNesterov ? g + mu * v[i] : v[i]);
  }
}

template <bool kWd>
void adam_update(float* __restrict param, const float* __restrict grad,
                 float* __restrict m, float* __restrict v, size_t n, float wd,
                 double b1, double b2, double bias1, double bias2, double lr,
                 double eps) {
  for (size_t i = 0; i < n; ++i) {
    const float g = decayed<kWd>(grad[i], param[i], wd);
    m[i] = static_cast<float>(b1 * m[i] + (1.0 - b1) * g);
    v[i] = static_cast<float>(b2 * v[i] + (1.0 - b2) * g * g);
    const double mhat = m[i] / bias1;
    const double vhat = v[i] / bias2;
    param[i] -= static_cast<float>(lr * mhat / (std::sqrt(vhat) + eps));
  }
}

template <bool kWd>
void rmsprop_update(float* __restrict param, const float* __restrict grad,
                    float* __restrict s, size_t n, float wd, double rho,
                    double lr, double eps) {
  for (size_t i = 0; i < n; ++i) {
    const float g = decayed<kWd>(grad[i], param[i], wd);
    s[i] = static_cast<float>(rho * s[i] + (1.0 - rho) * g * g);
    param[i] -= static_cast<float>(
        lr * g / (std::sqrt(static_cast<double>(s[i])) + eps));
  }
}

class Sgd final : public Optimizer {
 public:
  using Optimizer::Optimizer;
  void apply(size_t, std::span<float> param,
             std::span<const float> grad) override {
    with_weight_decay(cfg_.weight_decay, [&]<bool kWd>() {
      sgd_update<kWd>(param.data(), grad.data(), param.size(),
                      static_cast<float>(cfg_.weight_decay),
                      static_cast<float>(cfg_.lr));
    });
  }
};

class Momentum final : public Optimizer {
 public:
  Momentum(OptimizerConfig cfg, bool nesterov)
      : Optimizer(cfg), nesterov_(nesterov) {}
  void apply(size_t slot, std::span<float> param,
             std::span<const float> grad) override {
    auto v = state(velocity_, slot, param.size());
    const auto wd = static_cast<float>(cfg_.weight_decay);
    const auto lr = static_cast<float>(cfg_.lr);
    const auto mu = static_cast<float>(cfg_.momentum);
    with_weight_decay(cfg_.weight_decay, [&]<bool kWd>() {
      if (nesterov_) {
        momentum_update<kWd, true>(param.data(), grad.data(), v.data(),
                                   param.size(), wd, lr, mu);
      } else {
        momentum_update<kWd, false>(param.data(), grad.data(), v.data(),
                                    param.size(), wd, lr, mu);
      }
    });
  }

 private:
  bool nesterov_;
  std::vector<Tensor> velocity_;
};

class Adam final : public Optimizer {
 public:
  using Optimizer::Optimizer;
  void apply(size_t slot, std::span<float> param,
             std::span<const float> grad) override {
    auto m = state(m_, slot, param.size());
    auto v = state(v_, slot, param.size());
    if (steps_.size() <= slot) steps_.resize(slot + 1, 0);
    const auto t = static_cast<double>(++steps_[slot]);
    const double b1 = cfg_.beta1, b2 = cfg_.beta2;
    const double bias1 = 1.0 - std::pow(b1, t);
    const double bias2 = 1.0 - std::pow(b2, t);
    with_weight_decay(cfg_.weight_decay, [&]<bool kWd>() {
      adam_update<kWd>(param.data(), grad.data(), m.data(), v.data(),
                       param.size(), static_cast<float>(cfg_.weight_decay), b1,
                       b2, bias1, bias2, cfg_.lr, cfg_.eps);
    });
  }

 private:
  std::vector<Tensor> m_, v_;
  std::vector<int64_t> steps_;
};

class RmsProp final : public Optimizer {
 public:
  using Optimizer::Optimizer;
  void apply(size_t slot, std::span<float> param,
             std::span<const float> grad) override {
    auto s = state(sq_, slot, param.size());
    with_weight_decay(cfg_.weight_decay, [&]<bool kWd>() {
      rmsprop_update<kWd>(param.data(), grad.data(), s.data(), param.size(),
                          static_cast<float>(cfg_.weight_decay), cfg_.rho,
                          cfg_.lr, cfg_.eps);
    });
  }

 private:
  std::vector<Tensor> sq_;
};

}  // namespace

std::unique_ptr<Optimizer> make_optimizer(const OptimizerConfig& cfg) {
  switch (cfg.type) {
    case OptimizerType::Sgd: return std::make_unique<Sgd>(cfg);
    case OptimizerType::Momentum: return std::make_unique<Momentum>(cfg, false);
    case OptimizerType::Nesterov: return std::make_unique<Momentum>(cfg, true);
    case OptimizerType::Adam: return std::make_unique<Adam>(cfg);
    case OptimizerType::RmsProp: return std::make_unique<RmsProp>(cfg);
  }
  throw std::invalid_argument("unknown optimizer type");
}

OptimizerType optimizer_type_from_name(const std::string& name) {
  if (name == "sgd") return OptimizerType::Sgd;
  if (name == "momentum") return OptimizerType::Momentum;
  if (name == "nesterov") return OptimizerType::Nesterov;
  if (name == "adam") return OptimizerType::Adam;
  if (name == "rmsprop") return OptimizerType::RmsProp;
  throw std::invalid_argument("unknown optimizer: " + name);
}

std::string optimizer_name(OptimizerType t) {
  switch (t) {
    case OptimizerType::Sgd: return "sgd";
    case OptimizerType::Momentum: return "momentum";
    case OptimizerType::Nesterov: return "nesterov";
    case OptimizerType::Adam: return "adam";
    case OptimizerType::RmsProp: return "rmsprop";
  }
  return "?";
}

}  // namespace grace::optim
