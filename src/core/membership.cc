#include "core/membership.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "core/compressed.h"

namespace grace::core {

int MembershipView::live_rank(int physical) const {
  const auto it = std::lower_bound(ranks.begin(), ranks.end(), physical);
  if (it == ranks.end() || *it != physical) return -1;
  return static_cast<int>(it - ranks.begin());
}

MembershipSchedule::MembershipSchedule(int n_ranks,
                                       const faults::FaultSpec& spec,
                                       faults::CrashPolicy policy) {
  if (n_ranks < 1) {
    throw std::invalid_argument("MembershipSchedule: n_ranks must be >= 1");
  }
  MembershipView full;
  full.epoch_begin = 0;
  full.ranks.resize(static_cast<size_t>(n_ranks));
  for (int r = 0; r < n_ranks; ++r) full.ranks[static_cast<size_t>(r)] = r;
  views_.push_back(std::move(full));

  // (iter_begin, event): churn events sit at epoch boundaries; the crash
  // is one more leave, at its in-epoch position.
  using Event = std::pair<int64_t, faults::ChurnEvent>;
  auto position = [](const Event& e) {
    return std::pair(e.second.epoch, e.first);
  };
  std::vector<Event> sorted;
  for (const faults::ChurnEvent& e : spec.churn) {
    if (e.epoch < 1) {
      throw std::invalid_argument(
          "MembershipSchedule: churn epoch must be >= 1 (epoch 0 always "
          "starts at full strength)");
    }
    sorted.emplace_back(MembershipView::kBoundary, e);
  }
  if (spec.has_crash()) {
    sorted.emplace_back(spec.crash_iter,
                        faults::ChurnEvent{spec.crash_epoch, spec.crash_rank});
  }
  std::stable_sort(sorted.begin(), sorted.end(),
                   [&](const Event& a, const Event& b) {
                     return position(a) < position(b);
                   });
  size_t at = 0;
  while (at < sorted.size()) {
    const auto pos = position(sorted[at]);
    const int epoch = pos.first;
    MembershipView next = views_.back();
    std::tie(next.epoch_begin, next.iter_begin) = pos;
    // All events at the same position apply together, against the previous
    // view — a rank cannot leave and rejoin within one transition.
    while (at < sorted.size() && position(sorted[at]) == pos) {
      const faults::ChurnEvent& e = sorted[at++].second;
      if (e.rank <= 0 || e.rank >= n_ranks) {
        throw std::invalid_argument(
            "MembershipSchedule: rank " + std::to_string(e.rank) +
            " outside [1, " + std::to_string(n_ranks) +
            ") — rank 0 never leaves, and joiners must be physical ranks "
            "of the original fleet");
      }
      const auto it =
          std::lower_bound(next.ranks.begin(), next.ranks.end(), e.rank);
      const bool present = it != next.ranks.end() && *it == e.rank;
      if (e.join) {
        if (present) {
          throw std::invalid_argument(
              "MembershipSchedule: rank " + std::to_string(e.rank) +
              " joins at epoch " + std::to_string(epoch) +
              " but is already a member");
        }
        next.ranks.insert(it, e.rank);
      } else {
        if (!present) {
          throw std::invalid_argument(
              "MembershipSchedule: rank " + std::to_string(e.rank) +
              " leaves at epoch " + std::to_string(epoch) +
              " but is not a member");
        }
        next.ranks.erase(it);
      }
    }
    if (next.ranks.empty() || next.ranks.front() != 0) {
      throw std::invalid_argument(
          "MembershipSchedule: every view must contain rank 0");
    }
    const bool halt =
        next.in_epoch() && policy == faults::CrashPolicy::Halt;
    if (halt) next.ranks.clear();  // the timeline ends at the crash
    views_.push_back(std::move(next));
    if (halt) break;
  }
}

const MembershipView& MembershipSchedule::view_at(int epoch,
                                                  int64_t iter) const {
  return views_[static_cast<size_t>(segment_at(epoch, iter))];
}

int MembershipSchedule::segment_at(int epoch, int64_t iter) const {
  int seg = 0;
  for (size_t i = 1; i < views_.size(); ++i) {
    if (std::pair(views_[i].epoch_begin, views_[i].iter_begin) <=
        std::pair(epoch, iter)) {
      seg = static_cast<int>(i);
    }
  }
  return seg;
}

Tensor seal_bootstrap_frame(std::span<const float> params,
                            std::span<const Tensor> residuals) {
  CompressedTensor ct;
  ct.parts.reserve(1 + residuals.size());
  ct.parts.push_back(Tensor::from(params));
  for (const Tensor& r : residuals) ct.parts.push_back(r);
  // Honest wire accounting for the one-off transfer; the frame is raw f32.
  for (const Tensor& p : ct.parts) {
    ct.ctx.wire_bits += static_cast<uint64_t>(p.size_bytes()) * 8;
  }
  return serialize(ct);
}

BootstrapState open_bootstrap_frame(const Tensor& blob) {
  CompressedTensor ct = deserialize(blob);  // throws on CRC mismatch
  if (ct.parts.empty()) {
    throw std::runtime_error("open_bootstrap_frame: frame has no parts");
  }
  BootstrapState out;
  const auto params = ct.parts.front().f32();
  out.params.assign(params.begin(), params.end());
  out.residuals.assign(ct.parts.begin() + 1, ct.parts.end());
  return out;
}

}  // namespace grace::core
