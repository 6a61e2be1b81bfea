#include "sim/pricing.h"

#include <algorithm>
#include <utility>

namespace grace::sim {

Pricing::Pricing(const TimeModel& time, double fwd_flops_per_sample,
                 int64_t batch_per_worker, int64_t parameters,
                 bool compressing)
    : optimizer_s_(time.optimizer_flops_per_param *
                   static_cast<double>(parameters) / time.device_flops),
      codec_scale_(time.compression_time_scale),
      fixed_per_tensor_(compressing ? time.compression_fixed_per_tensor
                                    : 0.0) {
  const double backward_share =
      time.backward_factor / (1.0 + time.backward_factor);
  uniform_.compute_s = fwd_flops_per_sample * (1.0 + time.backward_factor) *
                       static_cast<double>(batch_per_worker) /
                       time.device_flops;
  uniform_.forward_s = uniform_.compute_s * (1.0 - backward_share);
  uniform_.backward_s = uniform_.compute_s * backward_share;
}

DeviceTimes Pricing::device(double compute_scale) const {
  return DeviceTimes{compute_scale, uniform_.forward_s * compute_scale,
                     uniform_.backward_s * compute_scale,
                     uniform_.compute_s * compute_scale};
}

BucketTiming Pricing::bucket(const core::ExchangeStats& s,
                             double ready_fraction,
                             const DeviceTimes& dev) const {
  BucketTiming t;
  t.ready_s = dev.forward_s + dev.backward_s * ready_fraction;
  t.compress_s = (s.compress_seconds * codec_scale_ + fixed_per_tensor_) *
                 dev.compute_scale;
  t.comm_s = s.comm_seconds;
  t.decompress_s = s.decompress_seconds * codec_scale_ * dev.compute_scale;
  return t;
}

RankPrice price_rank(std::span<const BucketTiming> timings,
                     const DeviceTimes& dev, bool overlap,
                     BucketSchedule* layout) {
  RankPrice p;
  p.device = dev;
  p.pipe_s = dev.compute_s;
  for (const BucketTiming& t : timings) {
    p.compress_s += t.compress_s;
    p.decompress_s += t.decompress_s;
    p.comm_s += t.comm_s;
  }
  if (layout != nullptr || overlap) {
    BucketSchedule bs = schedule_buckets(timings, dev.compute_s, overlap);
    if (overlap) p.pipe_s = std::max(dev.compute_s, bs.exchange_end);
    if (layout != nullptr) *layout = std::move(bs);
  }
  return p;
}

IterationPrice price_iteration(std::span<const RankPrice> ranks,
                               double optimizer_s, bool overlap) {
  IterationPrice p;
  p.overlap = overlap;
  p.optimizer_s = optimizer_s;
  double codec = 0.0;
  for (size_t r = 0; r < ranks.size(); ++r) {
    const RankPrice& q = ranks[r];
    if (r == 0 || q.device.compute_s > p.device.compute_s) {
      p.device = q.device;
    }
    // The codec-heaviest rank sets the charge (the last one on ties), and
    // its split fills both phase columns so they sum to the charge.
    if (q.compress_s + q.decompress_s >= codec) {
      codec = q.compress_s + q.decompress_s;
      p.compress_s = q.compress_s;
      p.decompress_s = q.decompress_s;
    }
    p.stall_s = std::max(p.stall_s, q.stall_s);
    if (r == 0 || q.pipe_s > p.pipe_s) {
      p.pipe_s = q.pipe_s;
      p.binding = r;
    }
  }
  if (!ranks.empty()) p.comm_s = ranks.front().comm_s;
  p.additive_s =
      p.device.compute_s + codec + p.comm_s + optimizer_s + p.stall_s;
  p.iteration_s =
      overlap ? p.pipe_s + optimizer_s + p.stall_s : p.additive_s;
  return p;
}

}  // namespace grace::sim
