// The pricing core (DESIGN.md §8): the only code that turns measured and
// modelled inputs into simulated seconds. The trainer, the simulated world
// and the critical-path what-ifs all price through it:
//   device     forward/backward (split by backward_factor) at a rank's
//              compute_scale; the optimizer step alike on every rank.
//   bucket     (measured x compression_time_scale + fixed) x compute_scale
//              per codec stage; the link stage as simulated.
//   rank       codec and link sums over its buckets; under overlap, the end
//              of its exchange pipeline (sim/scheduler.h).
//   iteration  additive compute + codec + comm + optimizer + stall, or
//              overlap max_rank(pipe) + optimizer + stall.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "core/grace_world.h"
#include "sim/scheduler.h"
#include "sim/time_model.h"

namespace grace::sim {

struct DeviceTimes {
  double compute_scale = 1.0;  // comm::LinkProfile::compute_scale
  double forward_s = 0.0;
  double backward_s = 0.0;
  double compute_s = 0.0;      // forward + backward, priced as one figure
};

class Pricing {
 public:
  // `compressing`: some bucket may run a non-identity compressor, so the
  // fixed per-tensor cost applies.
  Pricing(const TimeModel& time, double fwd_flops_per_sample,
          int64_t batch_per_worker, int64_t parameters, bool compressing);

  DeviceTimes device(double compute_scale) const;
  double optimizer_s() const { return optimizer_s_; }
  // `ready_fraction`: ExchangeScheduler::ready_fraction of the bucket.
  BucketTiming bucket(const core::ExchangeStats& s, double ready_fraction,
                      const DeviceTimes& dev) const;

 private:
  DeviceTimes uniform_;  // compute_scale 1
  double optimizer_s_;
  double codec_scale_;
  double fixed_per_tensor_;
};

struct RankPrice {
  DeviceTimes device;
  double compress_s = 0.0;    // sums over the rank's buckets
  double decompress_s = 0.0;
  double comm_s = 0.0;
  double pipe_s = 0.0;        // pipeline end (overlap), else compute
  double stall_s = 0.0;       // fault stall, set by the caller
};

// A skipped round has no buckets and costs its compute alone. `layout`,
// when given, receives the bucket timeline (trace offsets).
RankPrice price_rank(std::span<const BucketTiming> timings,
                     const DeviceTimes& dev, bool overlap,
                     BucketSchedule* layout = nullptr);

// One iteration closed over the ranks that ran it; the fields are its
// phase columns.
struct IterationPrice {
  bool overlap = false;
  DeviceTimes device;          // the slowest-computing rank's
  double compress_s = 0.0;     // the codec-heaviest rank's split
  double decompress_s = 0.0;
  double comm_s = 0.0;         // the first rank's (collectives price alike)
  double optimizer_s = 0.0;
  double stall_s = 0.0;        // the slowest rank's
  double pipe_s = 0.0;         // the slowest pipeline end ...
  size_t binding = 0;          // ... and its rank's index in the span
  double additive_s = 0.0;
  double iteration_s = 0.0;    // additive_s unless overlap
};

IterationPrice price_iteration(std::span<const RankPrice> ranks,
                               double optimizer_s, bool overlap);

}  // namespace grace::sim
