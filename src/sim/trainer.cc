#include "sim/trainer.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>

#include "comm/collectives.h"
#include "control/controller.h"
#include "core/membership.h"
#include "core/registry.h"
#include "faults/injector.h"
#include "runtime/thread_pool.h"
#include "sim/critical_path.h"
#include "sim/fidelity.h"
#include "sim/metric_registry.h"
#include "sim/pricing.h"
#include "sim/scheduler.h"
#include "sim/trace.h"
#include "tensor/ops.h"
#include "util/crc32.h"

namespace grace::sim {
namespace {

// One iteration of one rank's log. Inactive rows are the zero
// placeholders a rank parked out of the fleet (awaiting a rejoin) pushes;
// post-processing skips them when taking cross-rank maxima.
struct IterRow {
  bool active = false;
  float loss = 0.0f;
  RankPrice price{};          // this rank's seconds (sim/pricing.h)
  uint64_t wire_bytes = 0;    // logical bytes
};

struct WorkerLog {
  std::vector<IterRow> rows;          // per iteration
  std::vector<bool> sync_ok;          // per epoch
  // Per-epoch iteration counts (rank 0 only; epochs shrink after a crash).
  std::vector<int64_t> epoch_iters;
  // Trainer-level fault tallies. rounds_skipped / degraded_iters are
  // run-wide facts counted once, on rank 0; straggler fields are this
  // rank's own.
  uint64_t rounds_skipped = 0;
  uint64_t degraded_iters = 0;
  uint64_t straggler_events = 0;
  double straggler_stall_s = 0.0;
  // Elastic membership / partial participation (this rank's own tallies).
  uint64_t sat_out_rounds = 0;  // rounds sat out (lottery loss or outage)
  uint64_t outages = 0;         // connectivity windows entered
  double outage_stall_s = 0.0;  // reconnect stalls charged
};

// The epoch's global sample order; identical on every worker because the
// shuffle seed depends only on (run seed, epoch).
std::vector<int64_t> epoch_order(int64_t n, uint64_t seed, int epoch) {
  std::vector<int64_t> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  Rng rng(seed * 1000003ULL + static_cast<uint64_t>(epoch));
  rng.shuffle(std::span<int64_t>(order));
  return order;
}

// Tag space for the controller's signal allreduces: exchange tags are
// positive and check_sync uses -epoch-1, so boundary i allreduces at
// kControlTagBase - i without colliding with either.
constexpr int kControlTagBase = -1000000;

// Tag space for join-bootstrap frames (core/membership.h): one per
// membership boundary, keyed by the absolute epoch, far below the
// controller's band (boundary counts never approach 1e6).
constexpr int kBootstrapTagBase = -2000000;

// The replica's parameters, flattened in module order.
std::vector<float> flat_parameters(models::DistributedModel& model) {
  std::vector<float> out;
  out.reserve(static_cast<size_t>(model.module().num_parameters()));
  for (auto& p : model.module().parameters()) {
    auto v = p.value->data.f32();
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

// The run's membership timeline: the plan's churn events and its crash.
// Without a plan it is one view of the whole fleet.
core::MembershipSchedule make_timeline(const TrainConfig& cfg) {
  return core::MembershipSchedule(
      cfg.n_workers, cfg.faults ? cfg.faults->spec() : faults::FaultSpec{},
      cfg.crash_policy);
}

}  // namespace

void TrainConfig::validate() const {
  if (n_workers < 1) {
    throw std::invalid_argument("TrainConfig: n_workers must be >= 1");
  }
  if (batch_per_worker < 1) {
    throw std::invalid_argument("TrainConfig: batch_per_worker must be >= 1");
  }
  if (epochs < 1) {
    throw std::invalid_argument("TrainConfig: epochs must be >= 1");
  }
  if (start_epoch < 0) {
    throw std::invalid_argument(
        "TrainConfig: start_epoch must be >= 0 (it is an absolute epoch "
        "offset into the run's schedule)");
  }
  fleet.validate(n_workers);
  net.validate();
  // Topology parameters are checked against both world sizes in play — the
  // thread world (n_workers) and the cost model's fleet (net.n_workers) —
  // since the PS shard ranks must exist in both.
  grace.topology.validate(std::min(n_workers, net.n_workers));
  // Consistency of the membership timeline (leave of an absent rank, join
  // of a present one, rank 0 leaving, crash or churn ranks outside the
  // fleet) — fail here, on the caller's thread, not inside a worker.
  make_timeline(*this);
  if (grace.control.enabled() && faults != nullptr &&
      std::any_of(faults->spec().churn.begin(), faults->spec().churn.end(),
                  [](const faults::ChurnEvent& e) { return e.join; })) {
    throw std::invalid_argument(
        "TrainConfig: the adaptive controller cannot run under a plan with "
        "joins — parked ranks would miss its signal allreduces and the "
        "decision sequences would diverge");
  }
  if (!grace.control.resume_state.empty() && start_epoch == 0) {
    // Resume state with start_epoch 0 is a schedule mismatch: the
    // controller would replay decisions against the wrong boundaries.
    throw std::invalid_argument(
        "TrainConfig: control.resume_state requires start_epoch > 0 — a "
        "fresh run cannot resume a decision log");
  }
}

RunResult train(const ReplicaFactory& factory, const TrainConfig& cfg) {
  const int n = cfg.n_workers;
  // Fail fast, on this thread: a throw from a worker thread would
  // std::terminate.
  cfg.validate();
  // All collectives run at the pace of the slowest member link; with the
  // default uniform fleet this IS cfg.net, bit-identically.
  const comm::NetworkModel base_net = cfg.fleet.bottleneck(cfg.net);
  comm::World world(n);
  std::vector<WorkerLog> logs(static_cast<size_t>(n));
  std::vector<models::EvalResult> evals;   // written by rank 0 only
  std::vector<int> eval_epochs;
  std::vector<float> final_params;         // written by rank 0 only
  RunResult result;

  // Peek at the model to size the run (rank 0 builds another replica below).
  double fwd_flops_per_sample = 0.0;
  int64_t probe_train_n = 0;
  std::vector<std::string> tensor_names;
  std::vector<int64_t> tensor_numels;
  {
    auto probe = factory(cfg.seed);
    result.model = probe->name();
    result.quality_metric = probe->quality_metric();
    result.model_parameters = probe->module().num_parameters();
    result.gradient_tensors = static_cast<int64_t>(probe->module().parameters().size());
    fwd_flops_per_sample = probe->flops_per_sample();
    probe_train_n = probe->train_size();
    // The bucket plan is a pure function of (tensor sizes, fusion_bytes),
    // so this probe-side plan matches every worker's scheduler exactly.
    std::vector<std::string> pnames;
    std::vector<int64_t> pnumels;
    for (auto& p : probe->module().parameters()) {
      pnames.push_back(p.name);
      pnumels.push_back(p.value->data.numel());
    }
    for (const BucketSpec& b : plan_buckets(pnumels, pnames, cfg.fusion_bytes)) {
      tensor_names.push_back(b.name);
      tensor_numels.push_back(b.numel);
    }
    result.buckets_per_iter = static_cast<int64_t>(tensor_names.size());
  }
  result.compressor = cfg.grace.compressor_spec;
  result.topology = cfg.grace.topology.to_string();

  const int64_t global_batch = static_cast<int64_t>(n) * cfg.batch_per_worker;

  // Fault-plan setup (docs/RESILIENCE.md): the injector on the base world.
  const faults::FaultPlan* const plan = cfg.faults;
  std::unique_ptr<faults::FaultInjector> injector;
  if (plan != nullptr) {
    injector = std::make_unique<faults::FaultInjector>(plan, base_net, n);
    world.install_faults(injector.get());
  }

  // Membership timeline (core/membership.h): the plan's churn events and
  // its crash as ordered world views, with one thread world and injector
  // pre-built per shrunken view — its live ranks would otherwise share
  // stall slots with other physical ranks of the previous view around the
  // hand-off. Views at full strength reuse the base world: all n physical
  // ranks are members, so comm ranks line up. Everything is built on this
  // thread; workers only ever rebind onto pre-existing endpoints. A run
  // without events has the single view 0 and builds nothing here.
  const core::MembershipSchedule membership = make_timeline(cfg);
  const std::vector<core::MembershipView>& views = membership.views();
  // An epoch's iteration count, fixed by the view its partition is taken
  // over.
  auto iters_over = [&](const core::MembershipView& view) {
    return std::max<int64_t>(
        1, probe_train_n /
               (static_cast<int64_t>(view.size()) * cfg.batch_per_worker));
  };
  std::vector<std::unique_ptr<comm::World>> view_worlds(views.size());
  std::vector<std::unique_ptr<faults::FaultInjector>> view_injectors(
      views.size());
  std::vector<comm::NetworkModel> view_nets(views.size());
  for (size_t v = 1; v < views.size(); ++v) {
    const core::MembershipView& view = views[v];
    // An in-epoch view (the crash) must fall inside its epoch, which is
    // partitioned over the view before it.
    if (view.in_epoch() && view.iter_begin >= iters_over(views[v - 1])) {
      throw std::invalid_argument(
          "TrainConfig: crash_iter is beyond the crash epoch's iteration "
          "count");
    }
    if (view.size() == 0) continue;  // Halt: nobody runs past it
    view_nets[v] =
        cfg.fleet.bottleneck(cfg.net, std::span<const int>(view.ranks));
    view_nets[v].n_workers = view.size();
    if (view.size() < n) {
      view_worlds[v] = std::make_unique<comm::World>(view.size());
      view_injectors[v] = std::make_unique<faults::FaultInjector>(
          plan, view_nets[v], view.size());
      view_worlds[v]->install_faults(view_injectors[v].get());
    }
  }

  bool compressing =
      core::parse_spec(cfg.grace.compressor_spec).name != "none";

  // Adaptive controller setup (src/control, DESIGN.md §11). Validate on
  // this thread — a bad policy name or arm spec must not throw inside a
  // worker — and auto-attach an internal fidelity probe when the caller
  // did not supply one (the controller's signals come from the probe).
  const control::ControlConfig& ctl_cfg = cfg.grace.control;
  const bool ctl_on = ctl_cfg.enabled();
  std::unique_ptr<CompressionFidelityProbe> ctl_probe_storage;
  std::vector<std::unique_ptr<control::Controller>> controllers(
      static_cast<size_t>(ctl_on ? n : 0));
  if (ctl_on) {
    ctl_cfg.validate();
    for (const std::string& arm : ctl_cfg.arms) {
      core::make_compressor(arm);  // fail fast on an unknown arm spec
      // Any arm may serve any bucket at some point: the per-tensor
      // dispatch overhead applies whenever any candidate compresses.
      compressing = compressing || core::parse_spec(arm).name != "none";
    }
    if (cfg.fidelity == nullptr) {
      ctl_probe_storage = std::make_unique<CompressionFidelityProbe>(
          n, ctl_cfg.probe_every_k);
    }
  }

  // Every simulated second is priced in sim/pricing.h. RunResult::compute_s
  // is the uniform device's figure; each rank runs at its fleet
  // compute_scale.
  const Pricing pricing(cfg.time, fwd_flops_per_sample, cfg.batch_per_worker,
                        result.model_parameters, compressing);
  result.compute_s = pricing.device(1.0).compute_s;
  result.optimizer_s = pricing.optimizer_s();

  Trace* const trace = cfg.trace;
  CompressionFidelityProbe* const fidelity =
      cfg.fidelity != nullptr ? cfg.fidelity : ctl_probe_storage.get();
  MetricRegistry* const metrics = cfg.metrics;
  CriticalPathCollector* const cpath = cfg.critical_path;
  if (cpath != nullptr && cpath->n_ranks() != n) {
    throw std::invalid_argument(
        "TrainConfig: critical_path collector sized for a different world");
  }
  if (ctl_on && fidelity->n_ranks() < n) {
    throw std::invalid_argument(
        "TrainConfig: the controller's fidelity probe is sized for a "
        "smaller world");
  }

  // Each rank thread gets an equal share of the shared pool's lanes (see
  // the launch below).
  const int lanes_per_rank = std::max(1, runtime::num_threads() / n);
  result.lanes_per_rank = lanes_per_rank;

  auto worker_fn = [&](int rank) {
    runtime::LaneBudgetScope lane_share(lanes_per_rank);
    auto model = factory(cfg.seed);  // same init seed on every worker
    core::GraceWorker grace(cfg.grace, world.comm(rank),
                            base_net, cfg.seed * 7919ULL + static_cast<uint64_t>(rank));
    auto optimizer = optim::make_optimizer(cfg.optimizer);
    Rng batch_rng(cfg.seed * 104729ULL + static_cast<uint64_t>(rank));
    WorkerLog& log = logs[static_cast<size_t>(rank)];
    comm::Comm comm = world.comm(rank);

    const int64_t train_n = model->train_size();
    // Every exchange flows through the bucket scheduler; the legacy
    // per-tensor and all-fused paths are its fusion_bytes = 0 / SIZE_MAX
    // endpoints (sim/scheduler.h).
    ExchangeScheduler sched(model->module().parameters(), cfg.fusion_bytes);
    const size_t n_buckets = sched.n_buckets();
    // Compute and codec seconds stretch by this rank's compute_scale
    // (comm/fleet.h).
    const DeviceTimes dev = pricing.device(cfg.fleet.compute_scale(rank));
    std::vector<core::ExchangeHandle> handles;  // per-iter, reused
    handles.reserve(n_buckets);
    std::vector<uint64_t> bucket_bytes(n_buckets);
    std::vector<BucketTiming> timings(n_buckets);
    std::vector<int64_t> wrapped;  // slice buffer when the batch wraps

    // Adaptive controller (one identical instance per rank). Initial arm
    // routing is applied before the first iteration; afterwards switches
    // happen only inside control_step, at decision boundaries.
    control::Controller* ctl = nullptr;
    std::vector<CompressionFidelityProbe::Totals> ctl_base;
    std::vector<float> ctl_sig;
    int ctl_boundary = 0;
    if (ctl_on) {
      std::vector<std::string> bucket_names;
      bucket_names.reserve(n_buckets);
      for (const BucketSpec& b : sched.buckets()) bucket_names.push_back(b.name);
      controllers[static_cast<size_t>(rank)] =
          std::make_unique<control::Controller>(ctl_cfg,
                                                std::move(bucket_names),
                                                cfg.seed);
      ctl = controllers[static_cast<size_t>(rank)].get();
      ctl_base.resize(n_buckets);
      ctl_sig.resize(ctl->signal_size());
      for (size_t b = 0; b < n_buckets; ++b) {
        grace.set_compressor_override(sched.buckets()[b].name,
                                      ctl->arm_spec(b));
      }
    }

    // Live-world binding: view 0 (the whole fleet on the base world) until
    // the timeline moves this rank to a later view.
    size_t bound = 0;
    bool member = true;  // in views[bound]
    int live_rank = rank;
    faults::FaultInjector* live_injector = injector.get();
    // The last view this rank is a member of: once the timeline moves past
    // it the rank has left for good and its loop ends; before that, a
    // non-member is parked awaiting a rejoin.
    size_t last_view = 0;
    for (size_t v = 0; v < views.size(); ++v) {
      if (views[v].contains(rank)) last_view = v;
    }
    const bool pp_on =
        plan != nullptr && plan->spec().has_partial_participation();

    auto record = [&](int epoch, int64_t it, Phase phase, int32_t tensor,
                      double seconds, uint64_t bytes, double start = -1.0) {
      trace->record(rank, TraceEvent{epoch, static_cast<int32_t>(it),
                                     static_cast<int16_t>(rank), phase, tensor,
                                     seconds, bytes, start});
    };
    // Per-exchange distributions (the same priced stages the trace records,
    // so the registry's tails are comparable with the phase means).
    auto record_metrics = [&](size_t b) {
      const BucketTiming& t = timings[b];
      metrics->inc(rank, "exchange.count");
      metrics->inc(rank, "exchange.wire_bytes_total", bucket_bytes[b]);
      metrics->observe(rank, "exchange.compress_ns", t.compress_s * 1e9);
      metrics->observe(rank, "exchange.decompress_ns", t.decompress_s * 1e9);
      metrics->observe(rank, "exchange.comm_ns", t.comm_s * 1e9);
      metrics->observe(rank, "exchange.wire_bytes",
                       static_cast<double>(bucket_bytes[b]));
      metrics->inc(rank, "sched.bucket_exchanges");
      metrics->observe(rank, "sched.bucket_bytes",
                       static_cast<double>(sched.buckets()[b].numel) * 4.0);
    };
    // One controller decision boundary. The per-bucket signal window is
    // this rank's probe totals minus the previous boundary's baseline
    // (totals are monotonic, so a resumed run sees the same windows as the
    // original run's tail); the windows are then summed across live ranks
    // with the deterministic ring allreduce — bit-identical on every rank
    // — before the policy steps, so all controllers decide identically
    // without any shared state. Every live rank calls this at the same
    // schedule points.
    auto control_step = [&](int epoch, int64_t it) {
      for (size_t b = 0; b < n_buckets; ++b) {
        const CompressionFidelityProbe::Totals t =
            fidelity->totals(rank, sched.buckets()[b].name);
        const CompressionFidelityProbe::Totals& s0 = ctl_base[b];
        float* s = ctl_sig.data() + b * control::Controller::kSignalsPerBucket;
        s[0] = static_cast<float>(t.samples - s0.samples);
        s[1] = static_cast<float>(t.cosine_sum - s0.cosine_sum);
        s[2] = static_cast<float>(t.sign_sum - s0.sign_sum);
        s[3] = static_cast<float>(t.residual_sum - s0.residual_sum);
        s[4] = static_cast<float>(t.grad_sum - s0.grad_sum);
        s[5] = static_cast<float>(t.wire_bits - s0.wire_bits);
        s[6] = static_cast<float>(t.dense_bits - s0.dense_bits);
        ctl_base[b] = t;
      }
      comm::allreduce_sum(comm, std::span<float>(ctl_sig),
                          kControlTagBase - ctl_boundary);
      ++ctl_boundary;
      const std::vector<control::ControlDecision> switched =
          ctl->step(ctl_sig, epoch, it);
      for (const control::ControlDecision& d : switched) {
        grace.set_compressor_override(
            d.bucket_name, ctl->arm_spec(static_cast<size_t>(d.bucket)));
        if (ctl_cfg.residual_carry == control::ResidualCarry::Flush) {
          grace.flush_residual(d.bucket_name);
        }
      }
      if (metrics) {
        metrics->inc(rank, "control.boundaries");
        if (!switched.empty()) {
          metrics->inc(rank, "control.switches", switched.size());
        }
      }
    };

    // Every world change — crash, leave, join — goes through here: rebind
    // onto views[seg] (world endpoint, bottleneck net over the members,
    // contiguous live renumbering) and restart the exchange tag sequence
    // so ranks whose tag counters froze while parked agree with the others
    // on PS shard routing. Compressor and error-feedback state carry over.
    // With `bootstrap`, joiners then take parameters (+ EF residuals) from
    // live rank 0 over the CRC-sealed frame path before their first
    // iteration. A non-member only records the view.
    auto enter_view = [&](size_t seg, int epoch, bool bootstrap) {
      const core::MembershipView& prev = views[bound];
      const core::MembershipView& view = views[seg];
      bound = seg;
      member = view.contains(rank);
      if (!member) return;
      live_rank = view.live_rank(rank);
      live_injector =
          view_injectors[seg] ? view_injectors[seg].get() : injector.get();
      comm = (view_worlds[seg] ? *view_worlds[seg] : world).comm(live_rank);
      grace.rebind(comm, view_nets[seg]);
      grace.reset_tags();
      if (!bootstrap) return;
      const int btag = kBootstrapTagBase - epoch;
      if (!prev.contains(rank)) {
        // Joiner: install rank 0's parameters (and EF residuals, in
        // bucket order). deserialize verifies the frame's CRC.
        const core::BootstrapState st =
            core::open_bootstrap_frame(comm.recv(0, btag));
        size_t at = 0;
        for (auto& p : model->module().parameters()) {
          auto pv = p.value->data.f32();
          std::copy_n(st.params.begin() + static_cast<int64_t>(at),
                      pv.size(), pv.begin());
          at += pv.size();
        }
        for (size_t b = 0; b < st.residuals.size() && b < n_buckets; ++b) {
          grace.install_residual(sched.buckets()[b].name, st.residuals[b]);
        }
      } else if (live_rank == 0) {
        Tensor frame;  // sealed once, sent to every joiner
        for (int r : view.ranks) {
          if (prev.contains(r)) continue;
          if (frame.empty()) {
            std::vector<Tensor> residuals;
            if (grace.error_feedback_enabled()) {
              residuals.reserve(n_buckets);
              for (size_t b = 0; b < n_buckets; ++b) {
                residuals.push_back(grace.residual_snapshot(
                    sched.buckets()[b].name,
                    Tensor::zeros(Shape{{sched.buckets()[b].numel}})));
              }
            }
            frame = core::seal_bootstrap_frame(flat_parameters(*model),
                                               residuals);
          }
          comm.send(view.live_rank(r), frame, btag);
        }
      }
    };
    // Parked out of the fleet: push one inactive row per member iteration
    // so every rank's log stays index-aligned, and keep the critical-path
    // collector aligned too.
    auto park = [&](int64_t iters) {
      log.rows.resize(log.rows.size() + static_cast<size_t>(iters));
      if (cpath) {
        for (int64_t it = 0; it < iters; ++it) cpath->record(rank, {});
      }
    };

    for (int e0 = 0; e0 < cfg.epochs && bound <= last_view; ++e0) {
      const int epoch = cfg.start_epoch + e0;
      // The lr schedule runs on EVERY rank, parked ones included: a parked
      // rank's optimizer must track the members' decays so its state is
      // current the epoch it rejoins.
      if (cfg.lr_decay_every > 0 && epoch > 0 && epoch % cfg.lr_decay_every == 0) {
        optimizer->set_lr(optimizer->lr() * cfg.lr_decay_factor);
      }

      // Boundary events (churn) apply before the epoch's data partition is
      // taken. Joins bootstrap only inside a run: at its first epoch the
      // factory supplied every replica's state.
      const auto seg = static_cast<size_t>(membership.segment_at(epoch));
      if (seg != bound) enter_view(seg, epoch, /*bootstrap=*/e0 > 0);
      if (bound > last_view) break;  // left for good
      const int64_t iters_per_epoch = iters_over(views[bound]);
      if (!member) {
        park(iters_per_epoch);  // sits out the exchanges, check_sync, eval
        continue;
      }

      const auto order = epoch_order(train_n, cfg.seed, epoch);
      // The data partition is fixed at epoch start. In-epoch events (a
      // crash) keep these positions — survivors finish the epoch on the
      // old schedule with the dead rank's slices simply dropped (degraded
      // rounds) — and only the next epoch re-partitions over the survivors.
      const int sched_rank = live_rank;
      const int64_t sched_global_batch =
          static_cast<int64_t>(views[bound].size()) * cfg.batch_per_worker;
      // The iteration at which an in-epoch view (the crash) takes over, or
      // -1. A plan has one crash, so an epoch has at most one such view.
      const size_t next = bound + 1;
      const int64_t change_at = next < views.size() && views[next].in_epoch() &&
                                        views[next].epoch_begin == epoch
                                    ? views[next].iter_begin
                                    : -1;
      int64_t iters_done = 0;
      for (int64_t it = 0; it < iters_per_epoch; ++it) {
        if (it == change_at) {
          enter_view(next, epoch, /*bootstrap=*/false);
          if (!member) {
            // This rank leaves at the iteration boundary: it completed
            // iteration it-1 including all of its sends (mailbox puts never
            // block), so the others are owed nothing. Its undrained stall
            // dies with it (nobody reads that slot until the threads have
            // joined).
            if (bound <= last_view) park(iters_per_epoch - it);
            break;
          }
        }
        if (fidelity) {
          // Sample every K-th iteration: attach the probe to this worker's
          // exchanges for exactly the sampled iterations. Samples are
          // recorded under the stable physical rank, not comm_.rank() —
          // after a crash rebind the live rank would alias a survivor's
          // samples into the dead rank's slot, which would skew the
          // controller's per-rank windows.
          grace.set_probe(
              fidelity->should_sample(epoch * iters_per_epoch + it)
                  ? fidelity
                  : nullptr,
              rank);
        }
        const int64_t base = it * sched_global_batch +
                             static_cast<int64_t>(sched_rank) * cfg.batch_per_worker;
        std::span<const int64_t> slice;
        if (base + cfg.batch_per_worker <= train_n) {
          slice = std::span<const int64_t>(
              order.data() + base, static_cast<size_t>(cfg.batch_per_worker));
        } else {
          // Dataset smaller than one global batch: wrap around the epoch
          // order so every worker still sees a full batch (the only case
          // that reaches here, since iters_per_epoch floors otherwise).
          wrapped.resize(static_cast<size_t>(cfg.batch_per_worker));
          for (int64_t j = 0; j < cfg.batch_per_worker; ++j) {
            wrapped[static_cast<size_t>(j)] =
                order[static_cast<size_t>((base + j) % train_n)];
          }
          slice = wrapped;
        }
        model->module().zero_grad();
        IterRow row{.active = true,
                    .loss = model->forward_backward(slice, batch_rng)};
        if (trace) {
          record(epoch, it, Phase::Forward, -1, dev.forward_s, 0);
          record(epoch, it, Phase::Backward, -1, dev.backward_s, 0);
        }

        const bool skip_round = plan != nullptr && plan->round_skipped(epoch, it);
        // Partial participation: a sat-out rank folds its gradients into the
        // error-feedback residual and ships an all-zero payload, so the
        // collective stays in lockstep and replicas remain bit-identical
        // (everyone still applies the same aggregate). Rank 0 always
        // participates; an outage window forces non-participation.
        const bool participate =
            !pp_on || plan->participates(rank, epoch, it);
        // This round's priced buckets; none when the round is skipped.
        std::span<const BucketTiming> priced;
        if (skip_round) {
          // Degraded round: the exchange is lost on every rank. Fold the
          // computed gradients into the error-feedback residual — at the
          // same bucket granularity a healthy round would have used — so
          // the work feeds the next round; no optimizer step (replicas
          // remain identical because everyone skips the same rounds).
          sched.absorb_all(grace);
          if (rank == 0) ++log.rounds_skipped;
        } else {
          // Submit every bucket (compensate + compress + memory update, all
          // compressor/EF state mutation and RNG draws, in pack order —
          // identical to the legacy exchange order), then wait for each in
          // submission order, price it, and scatter its aggregate into the
          // optimizer.
          if (!participate) ++log.sat_out_rounds;
          for (size_t b = 0; b < n_buckets; ++b) {
            handles.push_back(
                participate
                    ? sched.submit_bucket(grace, b, /*instrument=*/true)
                    : sched.submit_bucket_zero(grace, b, /*instrument=*/true));
          }
          for (size_t b = 0; b < n_buckets; ++b) {
            core::ExchangeStats s;  // wait() accumulates
            Tensor aggregated = grace.wait(std::move(handles[b]), &s);
            timings[b] = pricing.bucket(s, sched.ready_fraction(b), dev);
            bucket_bytes[b] = s.wire_bytes;
            row.wire_bytes += s.wire_bytes;
            if (metrics) record_metrics(b);
            sched.apply_bucket(
                b, aggregated,
                [&](size_t slot, std::span<float> param, std::span<const float> g) {
                  optimizer->apply(slot, param, g);
                });
          }
          handles.clear();
          priced = timings;
        }
        // Bucket b's compression may start once its gradients are ready
        // during backward (cumulative-numel ramp); buckets serialize on the
        // codec stages and on the link. With overlap off the same layout is
        // the additive one, so traces stay sequential. The layout feeds the
        // overlap metric and the trace's per-bucket start offsets.
        BucketSchedule layout;
        const bool laid_out = cfg.time.overlap || trace != nullptr;
        row.price = price_rank(priced, dev, cfg.time.overlap,
                               laid_out ? &layout : nullptr);
        if (cpath) cpath->record(rank, priced);
        // Per-bucket stages carry the bucket's stable id as the tensor slot
        // and their absolute start within the iteration (Chrome traces then
        // show overlap).
        for (size_t b = 0; trace && b < priced.size(); ++b) {
          const int32_t id = sched.buckets()[b].id;
          const BucketSpan& at = layout.spans[b];
          record(epoch, it, Phase::Compress, id, priced[b].compress_s, 0,
                 at.compress_start);
          record(epoch, it, Phase::Comm, id, priced[b].comm_s, bucket_bytes[b],
                 at.comm_start);
          record(epoch, it, Phase::Decompress, id, priced[b].decompress_s, 0,
                 at.decompress_start);
        }
        if (metrics && cfg.time.overlap && !skip_round) {
          metrics->observe(rank, "sched.overlap_saved_ns",
                           (layout.additive_end - row.price.pipe_s) * 1e9);
        }
        if (trace) {
          record(epoch, it, Phase::Optimizer, -1, pricing.optimizer_s(), 0);
        }

        // Fault stall: the straggler delay this plan assigns to (rank,
        // epoch, it) plus every simulated retry charge this rank's
        // receives accumulated during the exchanges above.
        double stall = 0.0;
        if (plan != nullptr) {
          const double delay = plan->straggler_delay(rank, epoch, it);
          if (delay > 0.0) {
            ++log.straggler_events;
            log.straggler_stall_s += delay;
            stall += delay;
          }
          if (pp_on && plan->spec().outage_prob > 0.0) {
            // Count each outage window once (on entry) and charge the
            // reconnect stall the first iteration after it ends.
            if (plan->in_outage(rank, epoch, it) &&
                (it == 0 || !plan->in_outage(rank, epoch, it - 1))) {
              ++log.outages;
            }
            if (plan->outage_reconnect(rank, epoch, it)) {
              const double rs = plan->spec().outage_reconnect_stall_s;
              if (rs > 0.0) {
                log.outage_stall_s += rs;
                stall += rs;
              }
            }
          }
          stall += live_injector->drain_stall(live_rank);
          if (stall > 0.0) {
            if (trace) record(epoch, it, Phase::Fault, -1, stall, 0);
            if (metrics) metrics->observe(rank, "fault.stall_ns", stall * 1e9);
          }
          if (rank == 0 && views[bound].size() < n) ++log.degraded_iters;
        }

        row.price.stall_s = stall;
        log.rows.push_back(row);
        // Intra-epoch decision boundary (never doubled with the epoch-end
        // one); the condition depends only on shared schedule state, so
        // every live rank takes it together.
        if (ctl != nullptr && ctl_cfg.decide_every_iters > 0 &&
            (it + 1) % ctl_cfg.decide_every_iters == 0 &&
            it + 1 < iters_per_epoch) {
          control_step(epoch, it);
        }
        ++iters_done;
      }
      if (rank == 0 && iters_done > 0) log.epoch_iters.push_back(iters_done);
      // Left mid-epoch: no epoch-end work (the loop ends if for good).
      if (!member) continue;

      // Epoch-end decision boundary — always, including the final epoch,
      // so a run handing its snapshot to a resumed run carries the
      // post-epoch decision (the resume contract's alignment point).
      if (ctl != nullptr) control_step(epoch, /*it=*/-1);

      if (cfg.check_sync) {
        // All replicas must hold identical parameters: allreduce the sum of
        // all parameter values and compare against members * local.
        float checksum = 0.0f;
        for (auto& p : model->module().parameters()) {
          checksum += ops::sum(p.value->data.f32());
        }
        float global = checksum;
        comm::allreduce_sum(comm, std::span<float>(&global, 1), /*tag=*/-epoch - 1);
        const float expect =
            checksum * static_cast<float>(views[bound].size());
        const float tol = 1e-4f * (1.0f + std::fabs(expect));
        log.sync_ok.push_back(std::fabs(global - expect) <= tol);
      }

      if (rank == 0 &&
          (epoch % cfg.eval_every == 0 || e0 == cfg.epochs - 1)) {
        evals.push_back(model->evaluate());
        eval_epochs.push_back(epoch);
      }
    }

    if (rank == 0) {
      // Snapshot the final weights: the cheap handle for bit-identical
      // replay checks and crash hand-off equivalence tests.
      final_params = flat_parameters(*model);
    }
  };

  // All ranks submit their kernel work to the one shared pool (sized by
  // GRACE_NUM_THREADS, not by n), each within its lanes_per_rank share:
  // without the share, n ranks fanning out over all L lanes put n x L
  // lanes' worth of work on L cores and queue behind each other's helper
  // tasks (4 ranks x 4 lanes on a 4-vCPU host trained hostbench's
  // dense-adam at 6,265 samples/s against 9,946 with one lane). With a
  // share of 1 every rank runs its kernels inline, with no dispatch.
  // Determinism is unaffected because chunk boundaries ignore rank count,
  // pool size and the share.

  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(n));
  for (int rank = 0; rank < n; ++rank) threads.emplace_back(worker_fn, rank);
  for (auto& t : threads) t.join();

  // --- Post-processing (single-threaded) ---
  const auto total_iters = static_cast<int64_t>(logs[0].rows.size());
  // Rank 0 runs every iteration of the run (crash_rank 0 is rejected), so
  // its per-epoch counts are the run's ground-truth schedule; epochs can
  // have different lengths once a crash shrinks the world.
  const std::vector<int64_t>& epoch_iters = logs[0].epoch_iters;
  const int64_t first_epoch_iters = epoch_iters.empty() ? 0 : epoch_iters.front();

  // Epoch sample accounting (the epoch tail never enters an iteration when
  // the dataset size is not a multiple of the global batch). Quoted for the
  // schedule at run start; post-crash epochs cover more samples per iter.
  result.samples_per_epoch = first_epoch_iters * global_batch;
  result.samples_dropped_per_epoch =
      std::max<int64_t>(0, probe_train_n - result.samples_per_epoch);

  // Per-iteration simulated time, closed by the pricing core over the
  // ranks that ran the iteration: the log of a rank that left ends early,
  // and a parked rank's holds zero placeholder rows.
  std::vector<double> iter_seconds(static_cast<size_t>(total_iters));
  double compress_sum = 0.0, decompress_sum = 0.0, comm_sum = 0.0,
         stall_sum = 0.0, bytes_sum = 0.0, scale_sum = 0.0, iter_sum = 0.0;
  double additive_sum = 0.0, saved_sum = 0.0;
  result.overlap_enabled = cfg.time.overlap;
  std::vector<RankPrice> ranks;
  std::vector<std::span<const BucketTiming>> rank_timings;
  for (int64_t it = 0; it < total_iters; ++it) {
    const auto i = static_cast<size_t>(it);
    ranks.clear();
    rank_timings.clear();
    for (size_t r = 0; r < logs.size(); ++r) {
      if (i >= logs[r].rows.size() || !logs[r].rows[i].active) continue;
      ranks.push_back(logs[r].rows[i].price);
      if (cpath) {
        rank_timings.push_back(cpath->timings(static_cast<int>(r), it));
      }
    }
    const IterationPrice p =
        price_iteration(ranks, pricing.optimizer_s(), cfg.time.overlap);
    iter_seconds[i] = p.iteration_s;
    iter_sum += p.iteration_s;
    additive_sum += p.additive_s;
    saved_sum += p.additive_s - p.iteration_s;
    scale_sum += p.device.compute_scale;
    compress_sum += p.compress_s;
    decompress_sum += p.decompress_s;
    comm_sum += p.comm_s;
    stall_sum += p.stall_s;
    bytes_sum += static_cast<double>(logs[0].rows[i].wire_bytes);
    if (cpath) result.critical_path.add(p, ranks, rank_timings);
  }
  if (total_iters > 0) {
    const auto iters = static_cast<double>(total_iters);
    result.comm_s = comm_sum / iters;
    result.compress_s = (compress_sum + decompress_sum) / iters;
    result.wire_bytes_per_iter = bytes_sum / iters;
    // The iterations' binding compute, split at the mean compute_scale (a
    // uniform fleet's is exactly 1).
    const DeviceTimes mean_dev = pricing.device(scale_sum / iters);
    result.phases.forward_s = mean_dev.forward_s;
    result.phases.backward_s = mean_dev.backward_s;
    result.phases.compress_s = compress_sum / iters;
    result.phases.comm_s = result.comm_s;
    result.phases.decompress_s = decompress_sum / iters;
    result.phases.optimizer_s = result.optimizer_s;
    result.phases.stall_s = stall_sum / iters;
    result.iteration_s = iter_sum / iters;
    result.overlap_saved_s = saved_sum / iters;
    result.overlap_fraction =
        additive_sum > 0.0 ? saved_sum / additive_sum : 0.0;
    if (cpath) result.critical_path.finish(result.iteration_s);
  }

  // Steady-state throughput over the trailing window (paper: last 100 iters).
  const int64_t window = std::min<int64_t>(100, total_iters);
  if (window > 0) {
    double tail = 0.0;
    for (int64_t it = total_iters - window; it < total_iters; ++it) {
      tail += iter_seconds[static_cast<size_t>(it)];
    }
    result.throughput =
        static_cast<double>(global_batch * window) / std::max(tail, 1e-12);
  }

  // Epoch records: loss averages from worker 0, quality from evaluations.
  double cum = 0.0;
  size_t eval_at = 0;
  int64_t at = 0;
  for (size_t e = 0; e < epoch_iters.size(); ++e) {
    const int epoch = cfg.start_epoch + static_cast<int>(e);
    EpochRecord rec;
    rec.epoch = epoch;
    const int64_t count = epoch_iters[e];
    double loss = 0.0, epoch_time = 0.0;
    for (int64_t it = at; it < at + count; ++it) {
      loss += logs[0].rows[static_cast<size_t>(it)].loss;
      epoch_time += iter_seconds[static_cast<size_t>(it)];
    }
    at += count;
    rec.train_loss = count > 0 ? loss / static_cast<double>(count) : 0.0;
    rec.epoch_sim_seconds = epoch_time;
    cum += epoch_time;
    rec.cum_sim_seconds = cum;
    if (eval_at < eval_epochs.size() && eval_epochs[eval_at] == epoch) {
      rec.quality = evals[eval_at].quality;
      ++eval_at;
    } else {
      rec.quality = result.epochs.empty() ? 0.0 : result.epochs.back().quality;
    }
    result.epochs.push_back(rec);
  }
  result.total_sim_seconds = cum;
  if (!evals.empty()) {
    result.final_quality = evals.back().quality;
    result.best_quality = evals.front().quality;
    for (const auto& e : evals) result.best_quality = std::max(result.best_quality, e.quality);
  }
  for (const auto& log : logs) {
    for (bool ok : log.sync_ok) result.replicas_in_sync = result.replicas_in_sync && ok;
  }

  // Physical transport counters across all ranks and collectives. Shrunk
  // membership views run on their own Worlds, so fold those in too.
  result.comm_messages = world.messages_sent();
  result.comm_payload_bytes = world.payload_bytes_sent();
  for (const auto& vw : view_worlds) {
    if (!vw) continue;
    result.comm_messages += vw->messages_sent();
    result.comm_payload_bytes += vw->payload_bytes_sent();
  }

  // Resilience accounting: fold the injector's link-layer totals with the
  // trainer-level tallies, and mirror everything into the metric registry
  // (before its snapshot below) so fault counters ride the same export
  // path as the exchange metrics.
  if (plan != nullptr) {
    // Link-layer counters: the base injector serves every full-strength
    // view, each shrunken view has its own, whose live ranks map back to
    // physical ranks through view.ranks.
    result.faults = injector->totals();
    std::vector<faults::FaultCounters> link;
    for (int r = 0; r < n; ++r) link.push_back(injector->rank_counters(r));
    for (size_t v = 0; v < views.size(); ++v) {
      if (!view_injectors[v]) continue;
      result.faults += view_injectors[v]->totals();
      for (int lr = 0; lr < views[v].size(); ++lr) {
        link[static_cast<size_t>(views[v].ranks[static_cast<size_t>(lr)])] +=
            view_injectors[v]->rank_counters(lr);
      }
    }
    for (const auto& log : logs) {
      result.faults.straggler_events += log.straggler_events;
      result.faults.straggler_stall_s += log.straggler_stall_s;
      result.faults.sat_out_rounds += log.sat_out_rounds;
      result.faults.outages += log.outages;
      result.faults.outage_stall_s += log.outage_stall_s;
    }
    result.faults.rounds_skipped = logs[0].rounds_skipped;
    result.faults.degraded_iters = logs[0].degraded_iters;
    // Membership counters: every view change inside this run's window — after
    // its first epoch boundary (a start_epoch resume begins on the view that
    // boundary already produced) and before its end. Departures count as
    // crashes at an in-epoch view and as leaves at a boundary one; the
    // empty terminal view of a Halt crash counts nothing.
    for (size_t v = 1; v < views.size(); ++v) {
      const core::MembershipView& view = views[v];
      const core::MembershipView& prev = views[v - 1];
      const bool in_run =
          std::pair(view.epoch_begin, view.iter_begin) >
              std::pair(cfg.start_epoch, core::MembershipView::kBoundary) &&
          view.epoch_begin < cfg.start_epoch + cfg.epochs;
      if (!in_run || view.size() == 0) continue;
      for (int r : view.ranks) {
        if (!prev.contains(r)) ++result.faults.joins;
      }
      for (int r : prev.ranks) {
        if (view.contains(r)) continue;
        ++(view.in_epoch() ? result.faults.crashed_ranks
                           : result.faults.leaves);
      }
    }
    if (metrics) {
      for (int r = 0; r < n; ++r) {
        const faults::FaultCounters& c = link[static_cast<size_t>(r)];
        if (c.attempts_staged) {
          metrics->inc(r, "fault.attempts_staged", c.attempts_staged);
        }
        if (c.drops_detected) {
          metrics->inc(r, "fault.drops_detected", c.drops_detected);
        }
        if (c.corruptions_detected) {
          metrics->inc(r, "fault.corruptions_detected", c.corruptions_detected);
        }
        if (c.retries) metrics->inc(r, "fault.retries", c.retries);
        const WorkerLog& log = logs[static_cast<size_t>(r)];
        if (log.straggler_events) {
          metrics->inc(r, "fault.straggler_events", log.straggler_events);
        }
      }
      if (result.faults.rounds_skipped) {
        metrics->inc(0, "fault.rounds_skipped", result.faults.rounds_skipped);
      }
      if (result.faults.crashed_ranks) {
        metrics->inc(0, "fault.crashed_ranks", result.faults.crashed_ranks);
      }
      if (result.faults.leaves) {
        metrics->inc(0, "fault.leaves", result.faults.leaves);
      }
      if (result.faults.joins) {
        metrics->inc(0, "fault.joins", result.faults.joins);
      }
      if (result.faults.sat_out_rounds) {
        metrics->inc(0, "fault.sat_out_rounds", result.faults.sat_out_rounds);
      }
      if (result.faults.outages) {
        metrics->inc(0, "fault.outages", result.faults.outages);
      }
    }
  }

  // Aggregate rank 0's per-tensor trace events into run summaries.
  if (trace) {
    result.trace_events_dropped = trace->dropped();
    result.tensor_trace.resize(tensor_names.size());
    for (size_t t = 0; t < tensor_names.size(); ++t) {
      result.tensor_trace[t].name = tensor_names[t];
      result.tensor_trace[t].numel = tensor_numels[t];
    }
    for (const TraceEvent& ev : trace->events()) {
      if (ev.rank != 0 || ev.tensor < 0 ||
          static_cast<size_t>(ev.tensor) >= result.tensor_trace.size()) {
        continue;
      }
      TensorTraceSummary& sum = result.tensor_trace[static_cast<size_t>(ev.tensor)];
      switch (ev.phase) {
        case Phase::Compress:
          sum.compress_s += ev.seconds;
          ++sum.exchanges;  // one Compress event per exchange() call
          break;
        case Phase::Comm:
          sum.comm_s += ev.seconds;
          sum.wire_bytes += ev.bytes;
          break;
        case Phase::Decompress:
          sum.decompress_s += ev.seconds;
          break;
        default:
          break;
      }
    }
  }

  // Adaptive-controller outcome. The allreduced signals guarantee every
  // live rank decided identically; verify that invariant by comparing the
  // serialized controller states before reporting rank 0's (a mismatch is
  // a determinism bug, not a user error — fail loudly).
  if (ctl_on) {
    // The members when the run ended: ranks that left stopped deciding
    // then. A Halt crash's empty terminal view stands for the members it
    // stopped.
    int last = membership.segment_at(cfg.start_epoch + cfg.epochs - 1,
                                     std::numeric_limits<int64_t>::max());
    if (views[static_cast<size_t>(last)].size() == 0) --last;
    const core::MembershipView& final_view = views[static_cast<size_t>(last)];
    const control::Controller* ref = nullptr;
    for (int r = 0; r < n; ++r) {
      if (!final_view.contains(r)) continue;
      const control::Controller* c = controllers[static_cast<size_t>(r)].get();
      if (c == nullptr) continue;
      if (ref == nullptr) {
        ref = c;
      } else if (c->snapshot() != ref->snapshot()) {
        throw std::logic_error(
            "adaptive controller diverged across ranks (decision sequences "
            "are not identical)");
      }
    }
    if (ref != nullptr) result.control = ref->summary();
  }

  // Fidelity / metrics snapshots (both merges are deterministic). The
  // controller's internal probe stays internal: result.fidelity is only
  // populated when the caller asked for a probe.
  if (cfg.fidelity) result.fidelity = cfg.fidelity->summaries();
  if (metrics) {
    result.metric_counters = metrics->counters();
    result.metric_histograms = metrics->histograms();
  }

  result.final_parameters = std::move(final_params);
  result.parameters_crc32 = util::crc32(
      std::as_bytes(std::span<const float>(result.final_parameters)));

  result.error_feedback =
      core::GraceWorker(cfg.grace, world.comm(0), cfg.net, 0)
          .error_feedback_enabled();
  return result;
}

}  // namespace grace::sim
