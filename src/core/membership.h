// Membership epochs (docs/RESILIENCE.md): the one mechanism that changes
// the world during a run. A MembershipSchedule turns a FaultSpec's churn
// events AND its crash into an ordered sequence of world views — each view
// is the set of physical ranks alive from one position of the run to the
// next. Churn transitions happen at epoch boundaries, before the epoch's
// data partition is taken; the crash is a leave inside its epoch, just
// before iteration crash_iter and after the partition (under
// CrashPolicy::Halt it ends the timeline instead). Views can shrink
// (leaves, the crash) AND grow (joins); rank 0 is pinned alive in every
// view. Because events carry ABSOLUTE positions, a `start_epoch` resume
// under the same spec replays exactly the tail of the schedule, which is
// what makes staged elastic runs bit-equal to uninterrupted ones.
//
// Joiners bootstrap their model parameters (and error-feedback residuals)
// from the surviving rank 0 via a CRC-sealed frame on the existing
// serialize/deserialize path (core/compressed.h): seal_bootstrap_frame on
// the survivor, one point-to-point send, open_bootstrap_frame on the
// joiner. Residuals travel positionally in fusion-bucket order — both
// sides iterate the same bucket plan, so names need not be encoded.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "faults/fault_plan.h"
#include "tensor/tensor.h"

namespace grace::core {

struct MembershipView {
  static constexpr int64_t kBoundary = -1;  // iter_begin at an epoch boundary

  int epoch_begin = 0;  // first absolute epoch this view governs
  // kBoundary, or the iteration of epoch_begin before which an in-epoch
  // view (the crash) takes over; (epoch, iter) order puts boundaries first.
  int64_t iter_begin = kBoundary;
  // Physical ranks, ascending; contains 0, except in the empty terminal
  // view a CrashPolicy::Halt crash ends the timeline with.
  std::vector<int> ranks;

  int size() const { return static_cast<int>(ranks.size()); }
  bool in_epoch() const { return iter_begin != kBoundary; }
  bool contains(int physical) const { return live_rank(physical) >= 0; }
  // Contiguous live rank of a physical rank in this view, or -1 if absent.
  int live_rank(int physical) const;
};

class MembershipSchedule {
 public:
  // A fault plan's whole timeline: its churn events plus, when it has one,
  // its crash — a leave of crash_rank at (crash_epoch, crash_iter), or
  // under CrashPolicy::Halt an empty terminal view there (later events
  // never fire). Full fleet {0..n_ranks-1} at epoch 0; events applied in
  // position order. Throws std::invalid_argument on inconsistent plans:
  // churn epoch < 1, rank outside [1, n_ranks), leave of an absent rank,
  // join of a present rank, or a view without rank 0.
  MembershipSchedule(
      int n_ranks, const faults::FaultSpec& spec,
      faults::CrashPolicy policy = faults::CrashPolicy::Continue);

  bool elastic() const { return views_.size() > 1; }
  const std::vector<MembershipView>& views() const { return views_; }
  // The view governing position (epoch, iter) — the last view beginning at
  // or before it — and its index in views(). The default position is the
  // epoch boundary, before any in-epoch event of that epoch.
  const MembershipView& view_at(
      int epoch, int64_t iter = MembershipView::kBoundary) const;
  int segment_at(int epoch, int64_t iter = MembershipView::kBoundary) const;

 private:
  std::vector<MembershipView> views_;
};

// Join-bootstrap frames: flattened parameters plus the sender's EF
// residuals (in bucket order), sealed with the CRC-32 trailer of
// core/compressed.h serialize(). open_bootstrap_frame verifies the CRC and
// throws std::runtime_error on corruption, so a joiner can never install a
// damaged model.
Tensor seal_bootstrap_frame(std::span<const float> params,
                            std::span<const Tensor> residuals);

struct BootstrapState {
  std::vector<float> params;
  std::vector<Tensor> residuals;  // same order they were sealed in
};
BootstrapState open_bootstrap_frame(const Tensor& blob);

}  // namespace grace::core
