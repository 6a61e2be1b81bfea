// Optimizer single-step math against hand-computed updates, and the
// vectorized update loops against a long-hand scalar reference, bit for bit.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "optim/optimizer.h"

namespace grace::optim {
namespace {

std::vector<float> step_once(OptimizerConfig cfg, std::vector<float> param,
                             const std::vector<float>& grad, int times = 1) {
  auto opt = make_optimizer(cfg);
  for (int i = 0; i < times; ++i) opt->apply(0, param, grad);
  return param;
}

TEST(Optim, SgdStep) {
  auto p = step_once({.type = OptimizerType::Sgd, .lr = 0.1}, {1.0f, 2.0f},
                     {10.0f, -10.0f});
  EXPECT_FLOAT_EQ(p[0], 0.0f);
  EXPECT_FLOAT_EQ(p[1], 3.0f);
}

TEST(Optim, SgdWeightDecay) {
  OptimizerConfig cfg{.type = OptimizerType::Sgd, .lr = 0.1, .weight_decay = 0.5};
  auto p = step_once(cfg, {2.0f}, {0.0f});
  // grad_eff = 0 + 0.5*2 = 1; p = 2 - 0.1*1
  EXPECT_FLOAT_EQ(p[0], 1.9f);
}

TEST(Optim, MomentumAccumulates) {
  OptimizerConfig cfg{.type = OptimizerType::Momentum, .lr = 0.1, .momentum = 0.9};
  auto opt = make_optimizer(cfg);
  std::vector<float> p{0.0f};
  const std::vector<float> g{1.0f};
  opt->apply(0, p, g);  // v=1,   p=-0.1
  EXPECT_FLOAT_EQ(p[0], -0.1f);
  opt->apply(0, p, g);  // v=1.9, p=-0.1-0.19
  EXPECT_FLOAT_EQ(p[0], -0.29f);
}

TEST(Optim, NesterovLookahead) {
  OptimizerConfig cfg{.type = OptimizerType::Nesterov, .lr = 0.1, .momentum = 0.9};
  auto opt = make_optimizer(cfg);
  std::vector<float> p{0.0f};
  std::vector<float> g1{1.0f};
  opt->apply(0, p, g1);  // v=1; update = g + mu*v = 1.9; p = -0.19
  EXPECT_FLOAT_EQ(p[0], -0.19f);
}

TEST(Optim, AdamFirstStepIsLrSizedSignStep) {
  // With bias correction, the first Adam step is ~ lr * sign(g).
  OptimizerConfig cfg{.type = OptimizerType::Adam, .lr = 0.01};
  auto p = step_once(cfg, {0.0f, 0.0f}, {5.0f, -0.001f});
  EXPECT_NEAR(p[0], -0.01f, 1e-4f);
  EXPECT_NEAR(p[1], 0.01f, 1e-3f);
}

TEST(Optim, AdamPerSlotStateIsIndependent) {
  OptimizerConfig cfg{.type = OptimizerType::Adam, .lr = 0.01};
  auto opt = make_optimizer(cfg);
  std::vector<float> p0{0.0f}, p1{0.0f};
  std::vector<float> g1{1.0f};
  for (int i = 0; i < 5; ++i) opt->apply(0, p0, g1);
  opt->apply(1, p1, g1);
  // Slot 1 is on its first (bias-corrected) step regardless of slot 0.
  EXPECT_NEAR(p1[0], -0.01f, 1e-4f);
}

TEST(Optim, RmsPropStep) {
  OptimizerConfig cfg{.type = OptimizerType::RmsProp, .lr = 0.01, .rho = 0.9,
                      .eps = 1e-8};
  auto p = step_once(cfg, {0.0f}, {2.0f});
  // s = 0.1*4 = 0.4; p = -0.01 * 2/sqrt(0.4)
  EXPECT_NEAR(p[0], -0.01f * 2.0f / std::sqrt(0.4f), 1e-5f);
}

TEST(Optim, NameRoundTrip) {
  for (auto t : {OptimizerType::Sgd, OptimizerType::Momentum,
                 OptimizerType::Nesterov, OptimizerType::Adam,
                 OptimizerType::RmsProp}) {
    EXPECT_EQ(optimizer_type_from_name(optimizer_name(t)), t);
  }
  EXPECT_THROW(optimizer_type_from_name("bogus"), std::invalid_argument);
}

TEST(Optim, SetLr) {
  auto opt = make_optimizer({.type = OptimizerType::Sgd, .lr = 0.1});
  opt->set_lr(0.5);
  EXPECT_DOUBLE_EQ(opt->lr(), 0.5);
  std::vector<float> p{0.0f};
  std::vector<float> g1{1.0f};
  opt->apply(0, p, g1);
  EXPECT_FLOAT_EQ(p[0], -0.5f);
}

// --- Bitwise equality with a scalar reference ----------------------------
//
// Each reference updates one element per call; noinline keeps the loops
// that call it scalar whatever the optimizer's own loops compile to. The
// arithmetic is the optimizers' documented update, in the same op order and
// precision.

struct RefState {
  std::vector<float> a, b;  // velocity / first moment / square average; second moment
  int64_t t = 0;
};

[[gnu::noinline]] float ref_grad(float g, float p, double wd) {
  if (wd != 0.0) g += static_cast<float>(wd) * p;
  return g;
}

[[gnu::noinline]] void ref_element(const OptimizerConfig& c, double bias1,
                                   double bias2, float& p, float g0, float& a,
                                   float& b) {
  const float g = ref_grad(g0, p, c.weight_decay);
  switch (c.type) {
    case OptimizerType::Sgd:
      p -= static_cast<float>(c.lr) * g;
      break;
    case OptimizerType::Momentum:
    case OptimizerType::Nesterov: {
      const auto mu = static_cast<float>(c.momentum);
      a = mu * a + g;
      const float step = c.type == OptimizerType::Nesterov ? g + mu * a : a;
      p -= static_cast<float>(c.lr) * step;
      break;
    }
    case OptimizerType::Adam: {
      a = static_cast<float>(c.beta1 * a + (1.0 - c.beta1) * g);
      b = static_cast<float>(c.beta2 * b + (1.0 - c.beta2) * g * g);
      const double mhat = a / bias1;
      const double vhat = b / bias2;
      p -= static_cast<float>(c.lr * mhat / (std::sqrt(vhat) + c.eps));
      break;
    }
    case OptimizerType::RmsProp:
      a = static_cast<float>(c.rho * a + (1.0 - c.rho) * g * g);
      p -= static_cast<float>(c.lr * g /
                              (std::sqrt(static_cast<double>(a)) + c.eps));
      break;
  }
}

void ref_apply(const OptimizerConfig& c, RefState& st, std::vector<float>& p,
               const std::vector<float>& g) {
  st.a.resize(p.size(), 0.0f);
  st.b.resize(p.size(), 0.0f);
  const auto t = static_cast<double>(++st.t);
  const double bias1 = 1.0 - std::pow(c.beta1, t);
  const double bias2 = 1.0 - std::pow(c.beta2, t);
  for (size_t i = 0; i < p.size(); ++i) {
    ref_element(c, bias1, bias2, p[i], g[i], st.a[i], st.b[i]);
  }
}

// Deterministic inputs mixing ordinary values with signed zeros, denormals
// and large magnitudes, placed at every vector-lane offset over the steps.
std::vector<float> awkward_values(size_t n, uint64_t seed) {
  static const float kSpecial[] = {
      0.0f, -0.0f, std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(), 3.0e-39f, -1.2e-38f,
      1.0e30f, -2.5e30f, 3.0e38f, 1.0f, -1.0f};
  constexpr size_t kNumSpecial = sizeof(kSpecial) / sizeof(kSpecial[0]);
  std::vector<float> x(n);
  uint64_t s = seed * 0x9E3779B97F4A7C15ULL + 1;
  for (size_t i = 0; i < n; ++i) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto r = static_cast<uint32_t>(s >> 32);
    if (r % 4 == 0) {
      x[i] = kSpecial[(r >> 8) % kNumSpecial];
    } else {
      x[i] = (static_cast<float>(r >> 8) / 16777216.0f - 0.5f) * 4.0f;
    }
  }
  return x;
}

TEST(Optim, UpdatesMatchScalarReferenceBitwise) {
  const OptimizerType types[] = {OptimizerType::Sgd, OptimizerType::Momentum,
                                 OptimizerType::Nesterov, OptimizerType::Adam,
                                 OptimizerType::RmsProp};
  for (OptimizerType type : types) {
    for (double wd : {0.0, 0.01}) {
      for (size_t n : {0, 1, 3, 4, 7, 8, 33, 4097}) {
        const OptimizerConfig cfg{.type = type, .lr = 0.003,
                                  .weight_decay = wd};
        auto opt = make_optimizer(cfg);
        RefState ref;
        std::vector<float> p = awkward_values(n, 1);
        std::vector<float> p_ref = p;
        for (int step = 0; step < 5; ++step) {
          const std::vector<float> g =
              awkward_values(n, 100 + static_cast<uint64_t>(step));
          opt->apply(0, p, g);
          ref_apply(cfg, ref, p_ref, g);
          for (size_t i = 0; i < n; ++i) {
            ASSERT_EQ(std::bit_cast<uint32_t>(p[i]),
                      std::bit_cast<uint32_t>(p_ref[i]))
                << optimizer_name(type) << " wd=" << wd << " n=" << n
                << " step=" << step << " i=" << i << ": " << p[i]
                << " vs " << p_ref[i];
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace grace::optim
