// online_multitenant: closed loop, one thread. About 32 StreamingSessions
// in the paper's online mode (adaptive window, triage off, compaction on,
// one engine thread) are flushed round-robin, once per I/O phase, from
// IOR, HACC-IO and LAMMPS generators with distinct periods. Sweeps are
// incremental and cheap; each flush transforms a window whose length is
// rarely a power of two, and the many distinct lengths thrash the plan
// cache.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "engine/streaming.hpp"
#include "signal/plan.hpp"
#include "trace/model.hpp"
#include "util/rng.hpp"
#include "workloads/apps.hpp"
#include "workloads/ior.hpp"

namespace perfbench {
namespace {

using ftio::trace::IoRequest;

struct Tenant {
  std::string label;
  double truth = 0.0;  ///< period [s] from the generator configuration
  double burst = 0.0;  ///< length [s] of one I/O phase
  std::vector<std::vector<IoRequest>> flushes;  ///< one per I/O phase
};

/// Splits a trace into its I/O phases: a phase ends where no request is
/// in flight for more than half a second.
std::vector<std::vector<IoRequest>> split_phases(ftio::trace::Trace trace) {
  trace.sort_by_start();
  std::vector<std::vector<IoRequest>> phases;
  double busy_until = -1e300;
  for (const IoRequest& r : trace.requests) {
    if (phases.empty() || r.start > busy_until + 0.5) phases.emplace_back();
    phases.back().push_back(r);
    busy_until = std::max(busy_until, r.end);
  }
  return phases;
}

/// Tenant sessions, and I/O phases (flushes) per tenant and epoch.
constexpr std::size_t kTenants = 32;
constexpr int kPhases = 60;

/// Tenant i runs IOR, HACC-IO or LAMMPS (i mod 3) with kPhases I/O
/// phases. Within each application the tenants' periods and rank counts
/// are spread evenly over a fixed range, so every seed offers the same mix
/// of window lengths; the seed jitters each period by up to 3% and seeds
/// every generator.
std::vector<Tenant> make_tenants(const Args& args) {
  ftio::util::Rng rng(args.seed);
  const std::size_t per_app = (kTenants + 2) / 3;
  std::vector<Tenant> tenants;
  for (std::size_t i = 0; i < kTenants; ++i) {
    Tenant t;
    // Position of this tenant within its application's range, in (0, 1).
    const double slot =
        (static_cast<double>(i / 3) + 0.5) / static_cast<double>(per_app);
    const double jitter = rng.uniform(0.97, 1.03);
    const auto seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30));
    ftio::trace::Trace trace;
    switch (i % 3) {
      case 0: {
        ftio::workloads::IorConfig c;
        c.ranks = 8 << ((i / 3) % 3);
        c.iterations = kPhases;
        c.compute_seconds = (8.0 + 32.0 * slot) * jitter;
        c.seed = seed;
        trace = ftio::workloads::generate_ior_trace(c);
        t.burst = ior_phase_seconds(c);
        t.truth = t.burst + c.compute_seconds;
        t.label = "ior/" + std::to_string(c.ranks);
        break;
      }
      case 1: {
        ftio::workloads::HaccIoConfig c;
        c.ranks = static_cast<int>(16.0 + 48.0 * slot);
        c.loops = kPhases;
        const double gap = (6.0 + 14.0 * slot) * jitter;
        c.phase_gaps.clear();
        double sum = 0.0;
        for (int k = 1; k < kPhases; ++k) {
          c.phase_gaps.push_back(gap * rng.uniform(0.95, 1.05));
          sum += c.phase_gaps.back();
        }
        c.first_phase_start = 1.0;
        c.first_phase_duration = c.write_seconds + c.read_seconds;
        trace = ftio::workloads::generate_haccio_trace(c);
        t.burst = c.write_seconds + c.read_seconds;
        t.truth = sum / static_cast<double>(c.phase_gaps.size());
        t.label = "hacc-io/" + std::to_string(c.ranks);
        break;
      }
      default: {
        ftio::workloads::LammpsConfig c;
        c.ranks = static_cast<int>(64.0 + 192.0 * slot);
        c.steps = kPhases * c.dump_every;
        c.step_seconds = (0.4 + 1.2 * slot) * jitter;
        c.seed = seed;
        trace = ftio::workloads::generate_lammps_trace(c);
        t.burst = static_cast<double>(c.dump_bytes_per_rank) *
                  static_cast<double>(c.ranks) / c.dump_bandwidth;
        t.truth = c.step_seconds * static_cast<double>(c.dump_every);
        t.label = "lammps/" + std::to_string(c.ranks);
        break;
      }
    }
    t.label += '#';
    t.label += std::to_string(i);
    t.flushes = split_phases(std::move(trace));
    tenants.push_back(std::move(t));
  }
  return tenants;
}

ftio::engine::StreamingOptions session_options() {
  ftio::engine::StreamingOptions options;
  options.online.strategy = ftio::core::WindowStrategy::kAdaptive;
  options.online.base.sampling_frequency = 10.0;
  options.compaction.enabled = true;
  options.triage.enabled = false;
  options.engine.threads = 1;
  return options;
}

using Sessions = std::vector<std::unique_ptr<ftio::engine::StreamingSession>>;

Sessions make_sessions(std::size_t n) {
  Sessions sessions;
  for (std::size_t i = 0; i < n; ++i) {
    sessions.push_back(
        std::make_unique<ftio::engine::StreamingSession>(session_options()));
  }
  return sessions;
}

/// Round-robin flush order of one epoch: (tenant, phase) pairs.
std::vector<std::pair<std::size_t, std::size_t>> flush_order(
    const std::vector<Tenant>& tenants) {
  std::size_t rounds = 0;
  for (const auto& t : tenants) rounds = std::max(rounds, t.flushes.size());
  std::vector<std::pair<std::size_t, std::size_t>> order;
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t t = 0; t < tenants.size(); ++t) {
      if (r < tenants[t].flushes.size()) order.emplace_back(t, r);
    }
  }
  return order;
}

/// Restoring all sessions takes about 2 ms: one repetition times this
/// many restores in a row, and the median over the repetitions of the
/// time per restore is reported.
constexpr std::size_t kRestoresPerRep = 10;
constexpr std::size_t kRestoreReps = 11;

using MaybePrediction = std::optional<ftio::core::Prediction>;

/// predict(), or nullopt when it throws. A flush whose prediction throws
/// is a failed operation; the epoch carries on past it.
MaybePrediction try_predict(ftio::engine::StreamingSession& session,
                            std::string* error = nullptr) {
  try {
    return session.predict();
  } catch (const std::exception& e) {
    if (error != nullptr) *error = e.what();
    return std::nullopt;
  }
}

bool same_prediction(const MaybePrediction& x, const MaybePrediction& y) {
  if (!x || !y) return !x && !y;
  const ftio::core::Prediction& a = *x;
  const ftio::core::Prediction& b = *y;
  auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  return bits(a.frequency.value_or(-1.0)) == bits(b.frequency.value_or(-1.0)) &&
         bits(a.refined_confidence) == bits(b.refined_confidence) &&
         a.sample_count == b.sample_count && a.from_triage == b.from_triage;
}

}  // namespace

Result run_online_multitenant(const Args& args) {
  Result result;

  // Set-up: generate the tenants' phases, build the sessions and run one
  // untimed warm-up epoch, whose predictions are the reference every timed
  // epoch must reproduce. Repeated, and the median reported.
  std::vector<Tenant> tenants;
  std::vector<std::pair<std::size_t, std::size_t>> order;
  std::vector<MaybePrediction> reference;
  std::vector<std::string> flush_errors;
  std::vector<std::vector<std::uint8_t>> snapshots;
  std::size_t evicted_events = 0;
  std::vector<double> setup_times;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    ftio::signal::plan_cache().clear();
    tenants = make_tenants(args);
    order = flush_order(tenants);
    auto sessions = make_sessions(tenants.size());
    reference.clear();
    flush_errors.clear();
    for (const auto& [t, phase] : order) {
      sessions[t]->ingest(tenants[t].flushes[phase]);
      std::string error;
      reference.push_back(try_predict(*sessions[t], &error));
      if (!reference.back()) {
        flush_errors.push_back(tenants[t].label + " phase " +
                               std::to_string(phase) + ": " + error);
      }
    }
    setup_times.push_back(seconds_between(t0, Clock::now()));
    snapshots.clear();
    evicted_events = 0;
    for (const auto& s : sessions) {
      snapshots.push_back(s->serialize_state());
      evicted_events += s->compaction_stats().evicted_events;
    }
  }

  // Quality of the reference epoch against generator truth. A tenant whose
  // phases last at least one sampling interval, and whose typical detected
  // period is off by more than the tolerance, fails the run. Shorter bursts
  // (IOR's 14 ms phases at fs = 10 Hz) fall between samples: their misses
  // and wrong periods count in detected_frac and period_error_pct only.
  std::vector<double> errors;
  std::size_t found = 0;
  std::size_t analysed = 0;
  std::vector<std::vector<double>> tenant_periods(tenants.size());
  // Each distinct flush of the epoch is one operation, and one whose
  // predict() throws is a failed one. The timed epochs repeat these same
  // operations, and must fail exactly where the reference epoch did, so
  // they are not counted again: attempted and failed depend on the seed
  // only, not on how many epochs the time allowed.
  result.attempted += order.size();
  result.failed_ops += flush_errors.size();
  for (const auto& what : flush_errors) {
    std::fprintf(stderr, "flush failed: %s\n", what.c_str());
  }
  for (std::size_t j = 0; j < order.size(); ++j) {
    const auto& p = reference[j];
    const Tenant& tenant = tenants[order[j].first];
    if (!p) continue;
    analysed += p->from_triage ? 0 : 1;
    if (!p->found()) continue;
    ++found;
    errors.push_back(std::abs(p->period() - tenant.truth) / tenant.truth);
    tenant_periods[order[j].first].push_back(p->period());
  }
  const double sampling_interval =
      1.0 / session_options().online.base.sampling_frequency;
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    if (tenant_periods[t].empty() || tenants[t].burst < sampling_interval) {
      continue;
    }
    const double typical = median(tenant_periods[t]);
    result.check(std::abs(typical - tenants[t].truth) <=
                     kPeriodTolerance * tenants[t].truth,
                 tenants[t].label + ": median period " + std::to_string(typical) +
                     " s outside tolerance of truth " +
                     std::to_string(tenants[t].truth));
  }

  // The timed loop: epochs of fresh sessions until the time is spent;
  // every prediction must equal the reference epoch's. In the traced run,
  // epochs alternate between untraced and traced, so both see the same
  // inputs and the same host conditions; the overhead figure compares them.
  Tracer tracer(args.trace);
  Tracer untraced(false);
  std::vector<double> latencies;
  std::vector<double> traced_latencies;
  std::vector<double> lengths;
  std::size_t flushes = 0;
  const auto plans_before = ftio::signal::plan_cache().stats();
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration<double>(args.seconds);
  for (std::size_t epoch = 0; Clock::now() < deadline; ++epoch) {
    const bool traced = args.trace && epoch % 2 == 1;
    Tracer& tr = traced ? tracer : untraced;
    auto sessions = make_sessions(tenants.size());
    for (std::size_t j = 0; j < order.size() && Clock::now() < deadline; ++j) {
      const auto [t, phase] = order[j];
      const std::uint64_t op = flushes++;
      const auto t0 = Clock::now();
      MaybePrediction p;
      {
        const SpanScope flush(tr, "engine.flush", 0, op);
        {
          const SpanScope s(tr, "engine.ingest", flush.id(), op);
          sessions[t]->ingest(tenants[t].flushes[phase]);
        }
        const SpanScope s(tr, "engine.predict", flush.id(), op);
        p = try_predict(*sessions[t]);
      }
      const double elapsed = seconds_between(t0, Clock::now());
      if (p) {
        (traced ? traced_latencies : latencies).push_back(elapsed);
        lengths.push_back(static_cast<double>(p->sample_count));
      }
      if (!same_prediction(p, reference[j])) {
        result.fail(tenants[t].label + ": prediction of flush " +
                    std::to_string(j) + " differs from the reference epoch");
      }
    }
  }
  const double timed_seconds = seconds_between(start, Clock::now());
  const auto plans = ftio::signal::plan_cache().stats();

  if (!args.trace) {
    result.add("setup_s", median(setup_times), "s");
    result.add("latency_us_p50", quantile(latencies, 0.50) * 1e6, "us");
    result.add("throughput_per_s", static_cast<double>(flushes) / timed_seconds,
               "1/s");
    result.add("period_error_pct", mean(errors) * 100.0, "%");
    result.add("detected_frac",
               static_cast<double>(found) / static_cast<double>(order.size()),
               "ratio");
    result.add("analysed_frac",
               static_cast<double>(analysed) / static_cast<double>(order.size()),
               "ratio");
    result.add("peak_rss_mb", peak_rss_mb(), "MB");
    return result;
  }

  // Restore every session from its snapshot of the reference epoch's end
  // state; a restored session must serialise back unchanged.
  auto restore_all = [&] {
    auto sessions = make_sessions(tenants.size());
    for (std::size_t t = 0; t < sessions.size(); ++t) {
      sessions[t]->restore_state(snapshots[t]);
    }
    return sessions;
  };
  const auto restored = restore_all();
  for (std::size_t t = 0; t < restored.size(); ++t) {
    result.check(restored[t]->serialize_state() == snapshots[t],
                 tenants[t].label + ": restored session state differs");
  }
  std::vector<double> restore_times;
  for (std::size_t rep = 0; rep < kRestoreReps; ++rep) {
    const SpanScope s(tracer, "engine.restore", 0, rep);
    const auto t0 = Clock::now();
    for (std::size_t k = 0; k < kRestoresPerRep; ++k) restore_all();
    restore_times.push_back(seconds_between(t0, Clock::now()) /
                            static_cast<double>(kRestoresPerRep));
  }

  result.add("engine.flush_us_p99", quantile(latencies, 0.99) * 1e6, "us");
  result.add("engine.restore_ms", median(restore_times) * 1e3, "ms");
  const std::vector<double> ingests = tracer.durations("engine.ingest");
  const std::vector<double> predicts = tracer.durations("engine.predict");
  result.add("engine.ingest_us_p50", quantile(ingests, 0.50) * 1e6, "us");
  result.add("engine.ingest_us_p99", quantile(ingests, 0.99) * 1e6, "us");
  result.add("engine.predict_us_p50", quantile(predicts, 0.50) * 1e6, "us");
  result.add("engine.predict_us_p99", quantile(predicts, 0.99) * 1e6, "us");
  std::size_t snapshot_bytes = 0;
  for (const auto& s : snapshots) snapshot_bytes += s.size();
  result.add("engine.snapshot_bytes", static_cast<double>(snapshot_bytes), "bytes");
  result.add("engine.evicted_events", static_cast<double>(evicted_events), "count");
  add_window_length_metrics(result, lengths);
  add_plan_cache_metrics(result, plans_before, plans);
  result.add("bench.trace_overhead_frac",
             mean(traced_latencies) / mean(latencies) - 1.0, "ratio");
  tracer.write_csv(args.workdir + "/spans-online_multitenant.csv");
  return result;
}

}  // namespace perfbench
