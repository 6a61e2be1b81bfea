// Simulated-time model arithmetic, as the pricing core applies it.
#include <gtest/gtest.h>

#include "sim/pricing.h"

namespace grace::sim {
namespace {

// Uniform-device compute seconds of `batch` samples at `fwd_flops` each.
double compute_seconds(const TimeModel& tm, double fwd_flops, int64_t batch) {
  return Pricing(tm, fwd_flops, batch, 0, false).device(1.0).compute_s;
}

TEST(TimeModel, ComputeSecondsFormula) {
  TimeModel tm;
  tm.device_flops = 1e9;
  tm.backward_factor = 2.0;
  // 1 MFLOP forward x (1 + 2) x batch 10 / 1 GFLOP/s = 30 ms.
  EXPECT_DOUBLE_EQ(compute_seconds(tm, 1e6, 10), 0.03);
}

TEST(TimeModel, FasterDeviceIsFaster) {
  TimeModel slow, fast;
  slow.device_flops = 1e9;
  fast.device_flops = 1e12;
  EXPECT_GT(compute_seconds(slow, 1e6, 8), compute_seconds(fast, 1e6, 8));
}

TEST(TimeModel, BackwardFactorScales) {
  TimeModel tm;
  tm.backward_factor = 0.0;  // forward only
  const double fwd = compute_seconds(tm, 1e6, 1);
  tm.backward_factor = 2.0;
  EXPECT_DOUBLE_EQ(compute_seconds(tm, 1e6, 1), 3.0 * fwd);
}

TEST(TimeModel, ZeroBatchIsFree) {
  TimeModel tm;
  EXPECT_DOUBLE_EQ(compute_seconds(tm, 1e6, 0), 0.0);
}

}  // namespace
}  // namespace grace::sim
