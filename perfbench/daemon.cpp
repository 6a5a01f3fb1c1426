// daemon_zipf: one generator thread. Zipf(1.1) tenancy over a background
// IngestDaemon with 2 shards, the default session template (triage and
// compaction on) and durability on. Open-loop steps on a fixed schedule,
// each flush timed from its due time, run well below capacity; a closed
// loop with a bounded backlog measures capacity; an open-loop step above
// it exercises coalescing and the degradation ladder. Then a clean stop()
// and a timed restart over the same directory. The service and durability
// layers do the work.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "durability/journal.hpp"
#include "service/daemon.hpp"
#include "service/service.hpp"
#include "signal/plan.hpp"
#include "util/file.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using ftio::trace::IoRequest;

/// Tenants, and the Zipf exponent of their activity.
constexpr std::size_t kTenantCount = 400;
constexpr double kZipfExponent = 1.1;

/// The phases of a run, each for its share of --seconds: an open-loop
/// warm-up step at the reference rate, through which the peak RSS is
/// read; the closed-loop capacity phase; the open-loop reference step, at
/// which the acknowledgement latency is reported; an open-loop overload
/// step at kOverloadFactor times the capacity found.
constexpr double kReferenceRate = 8000.0;
constexpr double kOverloadFactor = 1.25;
constexpr double kWarmupShare = 0.2;
constexpr double kReferenceShare = 0.3;
constexpr double kCapacityShare = 0.25;
constexpr double kOverloadShare = 0.05;

/// Capacity phase, a closed loop: the generator reads each shard's
/// backlog (accepted flushes not yet processed) from stats(), submits in
/// schedule order while the next flush's shard holds fewer than
/// kShardBacklog, pauses kCapacityPollMicros and reads again. The bound
/// is below the coalescing depth (half of the 256-item mailbox) and the
/// ladder's high watermark (0.75 of it), so every flush is a work item
/// analysed at full quality. The capacity is the items processed per
/// second of CPU time the process used in the phase. The wall-clock rate
/// (the median of the items processed per kCapacityWindowSeconds) is a
/// per-layer figure: on a shared host the threads got 1.33 to 1.70 CPUs
/// in runs of the same code, which moved it by a fifth, while the items
/// per CPU-second stayed within 4%.
constexpr std::size_t kShardBacklog = 112;
constexpr auto kCapacityPollMicros = std::chrono::microseconds(20);
constexpr double kCapacityWindowSeconds = 0.25;

/// Tenant draws made before timing. The flushes of a run take them in
/// order and wrap around; a tenant's phases keep advancing.
constexpr std::size_t kDraws = std::size_t{1} << 19;

/// Drain cycles between checkpoints (see daemon_options).
constexpr std::size_t kCheckpointIntervalCycles = 1024;

/// Tenants sampled for durability.restart_predictions_frac.
constexpr std::size_t kHotTenants = 64;

/// A restart takes about 0.1 s and varies with the host, so it is
/// repeated this often and the median reported.
constexpr std::size_t kRestartReps = 7;

/// One tenant's periodic I/O: every flush is one phase of `ranks`
/// concurrent writes; phases start `period` seconds apart (2% jitter).
struct TenantModel {
  std::string name;
  double period = 0.0;
  double burst = 0.0;
  int ranks = 0;
  double first_start = 0.0;

  std::vector<IoRequest> phase(double start) const {
    std::vector<IoRequest> requests;
    requests.reserve(static_cast<std::size_t>(ranks));
    for (int r = 0; r < ranks; ++r) {
      requests.push_back({r, start, start + burst, 8'000'000,
                          ftio::trace::IoKind::kWrite});
    }
    return requests;
  }
};

/// A flush is the next phase of a Zipf-drawn tenant; its requests are
/// built from the tenant model just before the flush is due. The phase
/// after it starts `jitter` periods later.
struct Draw {
  std::uint32_t tenant = 0;
  float jitter = 1.0F;
};

/// Zipf(s) rank sampler by inverse CDF over the harmonic prefix.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s) : cdf_(n) {
    double sum = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[k] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  std::size_t operator()(ftio::util::Rng& rng) const {
    const double u = rng.uniform(0.0, 1.0);
    return static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

/// The tenants and the draws the phases consume in order.
struct Schedule {
  std::vector<TenantModel> tenants;
  std::vector<Draw> draws;
};

/// Every input of the run, drawn from the seed before timing starts.
Schedule make_schedule(const Args& args) {
  ftio::util::Rng rng(args.seed);
  Schedule schedule;
  for (std::size_t k = 0; k < kTenantCount; ++k) {
    TenantModel t;
    t.name = "tenant-" + std::to_string(k);
    t.period = rng.uniform(4.0, 30.0);
    t.burst = rng.uniform(0.3, 0.25 * t.period);
    t.ranks = static_cast<int>(rng.uniform_int(2, 8));
    t.first_start = rng.uniform(0.0, t.period);
    schedule.tenants.push_back(std::move(t));
  }
  const ZipfSampler zipf(kTenantCount, kZipfExponent);
  schedule.draws.resize(kDraws);
  for (Draw& draw : schedule.draws) {
    draw.tenant = static_cast<std::uint32_t>(zipf(rng));
    draw.jitter = static_cast<float>(rng.uniform(0.98, 1.02));
  }
  return schedule;
}

ftio::service::ServiceOptions daemon_options(const fs::path& directory) {
  ftio::service::ServiceOptions options;  // 2 shards, default session template
  options.durability.enabled = true;
  options.durability.directory = directory.string();
  // The journal lives in the benchmark's checkout, on whatever disk that
  // is; fsync latency there is shared with other tenants of the machine
  // and varies by an order of magnitude between identical runs, so the
  // journal trusts OS writeback. Every append, checkpoint and replay
  // still runs.
  options.durability.fsync_every_records = 0;
  // The default cadence, a full-state checkpoint every 64 drain cycles,
  // comes every 64 flushes at the low rates, where a cycle holds one:
  // about 5 GB written per 25-second run, which the shared disk turns
  // into the benchmark's noise. At 1024 cycles a 25-second run writes
  // about 1 GB.
  options.durability.checkpoint_interval_cycles = kCheckpointIntervalCycles;
  return options;
}

/// Replaces `to` with a copy of `from`, then constructs a daemon over the
/// copy; `seconds` is the constructor's time: checkpoint load plus journal
/// replay.
std::unique_ptr<ftio::service::IngestDaemon> restart_copy(
    const fs::path& from, const fs::path& to, Tracer& tracer, std::uint64_t op,
    double& seconds) {
  fs::remove_all(to);
  fs::copy(from, to, fs::copy_options::recursive);
  const SpanScope s(tracer, "durability.recover", 0, op);
  const auto t0 = Clock::now();
  auto daemon = std::make_unique<ftio::service::IngestDaemon>(daemon_options(to));
  seconds = seconds_between(t0, Clock::now());
  return daemon;
}

std::size_t directory_bytes(const fs::path& dir) {
  std::size_t bytes = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

/// Flush records in the journal segments under `dir`, decoded with the
/// durability layer's own frame scanner. Throws when a segment holds a
/// torn or corrupt frame: a clean stop leaves none.
std::size_t journal_flush_records(const fs::path& dir) {
  std::size_t flushes = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.path().extension() != ".wal") continue;
    const auto bytes = ftio::util::read_binary_file(entry.path());
    std::vector<ftio::durability::JournalRecord> records;
    const auto scan = ftio::durability::scan_journal_bytes(
        bytes, ftio::durability::DurabilityOptions{}.max_record_bytes, records);
    if (scan.records_discarded != 0 || scan.valid_bytes != bytes.size()) {
      throw std::runtime_error("journal segment " + entry.path().string() +
                               " holds a torn or corrupt frame");
    }
    for (const auto& record : records) {
      if (record.type == ftio::durability::JournalRecordType::kFlush) ++flushes;
    }
  }
  return flushes;
}

/// CPU time [s] the process has used, over all its threads.
double process_cpu_seconds() {
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

std::size_t rejections(const ftio::service::ShardStats& s) {
  return s.rejected_queue_full + s.rejected_poisoned + s.rejected_stopped +
         s.rejected_durability;
}

Clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

struct StepOutcome {
  std::vector<double> acks;  ///< due time -> submit() returned [s]
  std::vector<double> late;  ///< due time -> submit() called [s]
  std::size_t admitted = 0;
  std::size_t rejected = 0;
  std::size_t rejected_full = 0;  ///< of those, for a full mailbox
  double elapsed = 0.0;
};

/// Submits the schedule's flushes, in order, to the daemon.
class Generator {
 public:
  Generator(ftio::service::IngestDaemon& daemon, const Schedule& schedule,
            Tracer& tracer, bool trace)
      : daemon_(daemon), schedule_(schedule), tracer_(tracer), trace_(trace) {
    for (const TenantModel& t : schedule.tenants) {
      shard_of_.push_back(daemon.shard_of(t.name));
      next_start_.push_back(t.first_start);
    }
  }

  /// Open loop: offers `rate` flushes/s for `seconds` on a fixed schedule.
  /// In the traced run every other submission of the reference step goes
  /// without a span: the untraced half of the overhead figure.
  StepOutcome open_step(double rate, double seconds, bool reference) {
    StepOutcome out;
    const auto count = static_cast<std::size_t>(rate * seconds);
    out.acks.reserve(count);
    out.late.reserve(count);
    const double interval = 1.0 / rate;
    const auto start = Clock::now();
    for (std::size_t f = 0; f < count; ++f) {
      const auto due = start + to_duration(static_cast<double>(f) * interval);
      std::vector<IoRequest> requests = next_requests();
      while (Clock::now() < due) {
      }
      const bool traced = trace_ && !(reference && f % 2 == 1);
      const auto t0 = Clock::now();
      const auto verdict = submit(std::move(requests), traced);
      const auto t1 = Clock::now();
      out.late.push_back(seconds_between(due, t0));
      out.acks.push_back(seconds_between(due, t1));
      ++(ftio::service::admitted(verdict) ? out.admitted : out.rejected);
      if (verdict == ftio::service::Admission::kRejectedQueueFull) ++out.rejected_full;
      if (reference) {
        (traced ? traced_submits : untraced_submits).push_back(seconds_between(t0, t1));
      }
    }
    out.elapsed = seconds_between(start, Clock::now());
    return out;
  }

  /// Closed loop for `seconds` with up to kShardBacklog accepted flushes
  /// unprocessed per shard. Returns the items processed per second in
  /// each window of kCapacityWindowSeconds; counts rejections in
  /// `rejected`.
  std::vector<double> capacity(double seconds, std::size_t& rejected) {
    std::vector<double> rates;
    const auto start = Clock::now();
    const auto end = start + to_duration(seconds);
    const auto window = to_duration(kCapacityWindowSeconds);
    auto window_start = start;
    std::size_t window_base = daemon_.stats().total().processed_items;
    std::vector<std::size_t> backlog(daemon_.shard_count());
    for (auto now = start; now < end; now = Clock::now()) {
      // Accepted flushes are work items; a coalesced one adds none.
      const auto stats = daemon_.stats();
      std::size_t processed = 0;
      for (std::size_t i = 0; i < backlog.size(); ++i) {
        backlog[i] = stats.shards[i].accepted - stats.shards[i].processed_items;
        processed += stats.shards[i].processed_items;
      }
      if (now - window_start >= window) {
        rates.push_back(static_cast<double>(processed - window_base) /
                        seconds_between(window_start, now));
        window_start = now;
        window_base = processed;
      }
      // Bounded, so that a daemon rejecting every flush cannot hold the
      // loop past `end`.
      for (std::size_t n = 0; n < kShardBacklog * backlog.size(); ++n) {
        const std::size_t shard = shard_of_[next_draw().tenant];
        if (backlog[shard] >= kShardBacklog) break;
        const auto verdict = submit(next_requests(), trace_);
        if (verdict == ftio::service::Admission::kAccepted) ++backlog[shard];
        if (!ftio::service::admitted(verdict)) ++rejected;
      }
      std::this_thread::sleep_for(kCapacityPollMicros);
    }
    return rates;
  }

  std::uint64_t next_op() { return op_++; }
  std::size_t submitted() const { return next_; }

  std::vector<double> traced_submits;
  std::vector<double> untraced_submits;

 private:
  const Draw& next_draw() const {
    return schedule_.draws[next_ % schedule_.draws.size()];
  }

  std::vector<IoRequest> next_requests() {
    const Draw& draw = next_draw();
    ++next_;
    tenant_ = &schedule_.tenants[draw.tenant];
    double& start = next_start_[draw.tenant];
    std::vector<IoRequest> requests = tenant_->phase(start);
    start += tenant_->period * draw.jitter;
    return requests;
  }

  ftio::service::Admission submit(std::vector<IoRequest> requests, bool traced) {
    const SpanScope s(traced ? tracer_ : untraced_, "service.submit", 0, op_++);
    return daemon_.submit(tenant_->name, std::move(requests));
  }

  ftio::service::IngestDaemon& daemon_;
  const Schedule& schedule_;
  Tracer& tracer_;
  Tracer untraced_{false};
  bool trace_;
  std::vector<std::size_t> shard_of_;  ///< per tenant
  std::vector<double> next_start_;    ///< per tenant
  std::size_t next_ = 0;
  const TenantModel* tenant_ = nullptr;
  std::uint64_t op_ = 0;
};

/// The load_ingest --check invariants after a drain without crashes.
void check_invariants(const ftio::service::DaemonStats& stats, Result& result) {
  for (const auto& shard : stats.shards) {
    result.check(shard.queue_max_depth <= shard.queue_capacity,
                 "mailbox exceeded its capacity bound");
    result.check(shard.queue_depth == 0, "queue not empty after drain");
  }
  const auto total = stats.total();
  result.check(total.submitted == total.accepted + total.coalesced + rejections(total),
               "admission verdicts do not sum to submissions");
  result.check(total.processed_items <= total.accepted,
               "processed more items than were admitted");
  result.check(total.shard_restarts == 0, "a shard cycle crashed");
  result.check(total.shard_restarts > 0 || total.processed_items == total.accepted,
               "admitted work lost without a shard crash");
}

}  // namespace

Result run_daemon_zipf(const Args& args) {
  Result result;
  const fs::path root = fs::path(args.workdir) / "daemon";
  fs::remove_all(root);

  // Set-up: draw the schedule and construct the daemon on an empty
  // directory. Repeated, and the median reported; the last one runs.
  Schedule schedule;
  std::unique_ptr<ftio::service::IngestDaemon> daemon;
  std::vector<double> setup_times;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    daemon.reset();
    fs::remove_all(root / "live");
    const auto t0 = Clock::now();
    schedule = make_schedule(args);
    daemon = std::make_unique<ftio::service::IngestDaemon>(daemon_options(root / "live"));
    setup_times.push_back(seconds_between(t0, Clock::now()));
  }

  Tracer tracer(args.trace);
  Generator generator(*daemon, schedule, tracer, args.trace);
  auto log_step = [&](const char* what, const StepOutcome& out,
                      const ftio::service::ShardStats& before) {
    const auto after = daemon->stats().total();
    std::fprintf(stderr,
                 "%s: %zu admitted (%.0f/s), %zu rejected, %zu coalesced, "
                 "ack p50 %.1f us p99 %.1f us, %zu items processed (%.0f/s), "
                 "%zu ladder step-downs, %zu ingest-only drops\n",
                 what, out.admitted, static_cast<double>(out.admitted) / out.elapsed,
                 out.rejected, after.coalesced - before.coalesced,
                 quantile(out.acks, 0.5) * 1e6, quantile(out.acks, 0.99) * 1e6,
                 after.processed_items - before.processed_items,
                 static_cast<double>(after.processed_items - before.processed_items) /
                     out.elapsed,
                 after.ladder_step_downs - before.ladder_step_downs,
                 after.dropped_ingest_only - before.dropped_ingest_only);
  };
  const auto plans_before = ftio::signal::plan_cache().stats();

  auto before = daemon->stats().total();
  const StepOutcome warmup =
      generator.open_step(kReferenceRate, args.seconds * kWarmupShare, false);
  log_step("warm-up", warmup, before);
  // Peak RSS through the warm-up, when every tenant has a session: in the
  // closed-loop capacity phase the shards' checkpoint buffers overlap at
  // random, and the peak read after it moved between 50 and 95 MB in runs
  // of the same code.
  const double rss_through_warmup = peak_rss_mb();

  before = daemon->stats().total();
  std::size_t capacity_rejected = 0;
  const double cpu_before = process_cpu_seconds();
  const std::vector<double> windows =
      generator.capacity(args.seconds * kCapacityShare, capacity_rejected);
  const double cpu_seconds = process_cpu_seconds() - cpu_before;
  const auto after_capacity = daemon->stats().total();
  const double wall_capacity = median(windows);
  const double capacity =
      static_cast<double>(after_capacity.processed_items - before.processed_items) /
      cpu_seconds;
  std::fprintf(stderr,
               "capacity: %.0f items per CPU-second, %.0f items/s (median of %zu windows, "
               "%.0f-%.0f), %zu rejected, %zu coalesced, %zu ladder step-downs\n",
               capacity, wall_capacity, windows.size(), quantile(windows, 0.0),
               quantile(windows, 1.0), capacity_rejected,
               after_capacity.coalesced - before.coalesced,
               after_capacity.ladder_step_downs - before.ladder_step_downs);

  // The reference step follows the capacity phase: run first, on a
  // freshly started process, its acknowledgements were up to 4 times
  // slower on some runs than on the next, and after the capacity phase
  // they are not.
  before = daemon->stats().total();
  const StepOutcome ref =
      generator.open_step(kReferenceRate, args.seconds * kReferenceShare, true);
  log_step("reference", ref, before);

  // Above capacity admission control may reject for a full mailbox: that
  // verdict is the designed response to overload, so it is not a failed
  // operation there.
  before = daemon->stats().total();
  const StepOutcome overload =
      generator.open_step(std::max(kReferenceRate, kOverloadFactor * wall_capacity),
                          args.seconds * kOverloadShare, false);
  log_step("overload", overload, before);

  result.attempted += generator.submitted();
  result.failed_ops += warmup.rejected + ref.rejected + capacity_rejected +
                       overload.rejected - overload.rejected_full;

  double drain_seconds = 0.0;
  {
    const SpanScope s(tracer, "service.drain", 0, generator.next_op());
    const auto t0 = Clock::now();
    daemon->drain();
    drain_seconds = seconds_between(t0, Clock::now());
  }
  const auto plans = ftio::signal::plan_cache().stats();
  const auto stats = daemon->stats();
  const auto total = stats.total();
  check_invariants(stats, result);

  // Every tenant's last published prediction against its configured
  // period.
  std::vector<double> errors;
  std::vector<double> lengths;
  std::size_t predicted = 0;
  std::size_t found = 0;
  for (const TenantModel& tenant : schedule.tenants) {
    const auto p = daemon->last_prediction(tenant.name);
    if (!p) continue;
    ++predicted;
    lengths.push_back(static_cast<double>(p->sample_count));
    if (!p->found()) continue;
    ++found;
    errors.push_back(std::abs(p->period() - tenant.period) / tenant.period);
  }

  daemon->stop();
  daemon.reset();
  const std::size_t disk_bytes = directory_bytes(root / "live");
  const std::size_t journal_flushes = journal_flush_records(root / "live");

  // A clean restart over a copy of the stopped daemon's directory; the
  // traced run repeats it to time it. stop() wrote a final checkpoint, so
  // every journal record left is one it covers: each is discarded and
  // none replayed. Hot tenants, the most active Zipf ranks, are sampled
  // right after the restart.
  const std::size_t hot = std::min(kHotTenants, schedule.tenants.size());
  ftio::durability::RecoveryStats recovery;
  std::size_t restored_predictions = 0;
  std::vector<double> recovery_times;
  for (std::size_t rep = 0; rep < (args.trace ? kRestartReps : 1); ++rep) {
    double seconds = 0.0;
    const auto restarted =
        restart_copy(root / "live", root / "restart", tracer, generator.next_op(), seconds);
    recovery_times.push_back(seconds);
    if (rep > 0) continue;
    recovery = restarted->stats().total().recovery;
    result.check(recovery.records_replayed + recovery.records_discarded == journal_flushes,
                 "clean restart did not account for every journal record");
    result.check(recovery.records_replayed == 0,
                 "clean restart replayed records the final checkpoint covers");
    result.check(recovery.torn_tails_truncated == 0 &&
                     recovery.tenant_frames_skipped == 0,
                 "clean restart found corrupt journal or checkpoint bytes");
    result.check(recovery.snapshots_rejected == 0,
                 "clean restart rejected session snapshots");
    result.check(recovery.checkpoints_quarantined == 0,
                 "clean restart quarantined checkpoints");
    result.check(recovery.sessions_restored == total.live_sessions,
                 "clean restart did not restore every live session");
    for (std::size_t k = 0; k < hot; ++k) {
      if (restarted->last_prediction(schedule.tenants[k].name)) ++restored_predictions;
    }
  }

  const double processed = static_cast<double>(std::max<std::size_t>(1, total.processed_items));
  const double shed = static_cast<double>(total.dropped_ingest_only +
                                          total.budget_skips +
                                          total.deadline_expired);

  fs::remove_all(root);
  if (!args.trace) {
    result.add("setup_s", median(setup_times), "s");
    result.add("latency_us_p50", quantile(ref.acks, 0.50) * 1e6, "us");
    result.add("throughput_per_s", capacity, "1/s");
    result.add("period_error_pct", mean(errors) * 100.0, "%");
    result.add("detected_frac",
               static_cast<double>(found) / static_cast<double>(std::max<std::size_t>(1, predicted)),
               "ratio");
    result.add("analysed_frac", 1.0 - shed / processed, "ratio");
    result.add("peak_rss_mb", rss_through_warmup, "MB");
    return result;
  }

  result.add("service.ack_us_p99", quantile(ref.acks, 0.99) * 1e6, "us");
  result.add("service.capacity_wall_per_s", wall_capacity, "1/s");
  result.add("durability.recovery_ms", median(recovery_times) * 1e3, "ms");
  const std::vector<double> submits = tracer.durations("service.submit");
  result.add("service.submit_us_p50", quantile(submits, 0.50) * 1e6, "us");
  result.add("service.submit_us_p99", quantile(submits, 0.99) * 1e6, "us");
  result.add("service.accepted", static_cast<double>(total.accepted), "count");
  result.add("service.coalesced", static_cast<double>(total.coalesced), "count");
  result.add("service.rejected", static_cast<double>(rejections(total)), "count");
  result.add("service.queue_wait_us_p99", total.queue_wait.percentile(0.99) * 1e6, "us");
  result.add("service.process_us_p99", total.process_time.percentile(0.99) * 1e6, "us");
  result.add("service.drain_ms", drain_seconds * 1e3, "ms");
  result.add("service.analyses", static_cast<double>(total.analyses), "count");
  result.add("service.analyses_full_frac",
             static_cast<double>(total.analyses_at_level[0]) /
                 std::max(1.0, static_cast<double>(total.analyses)),
             "ratio");
  result.add("service.grouped_analyses", static_cast<double>(total.grouped_analyses), "count");
  result.add("service.coalesced_analyses", static_cast<double>(total.coalesced_analyses), "count");
  result.add("service.ladder_step_downs", static_cast<double>(total.ladder_step_downs), "count");
  result.add("service.live_sessions", static_cast<double>(total.live_sessions), "count");
  result.add("service.evicted_idle", static_cast<double>(total.evicted_idle), "count");
  result.add("service.shed_frac", shed / processed, "ratio");
  result.add("durability.journal_appends", static_cast<double>(total.journal_appends), "count");
  result.add("durability.checkpoints_written", static_cast<double>(total.checkpoints_written), "count");
  result.add("durability.checkpoint_failures", static_cast<double>(total.checkpoint_failures), "count");
  result.add("durability.snapshot_reuses", static_cast<double>(total.snapshot_reuses), "count");
  result.add("durability.disk_bytes", static_cast<double>(disk_bytes), "bytes");
  result.add("durability.records_replayed", static_cast<double>(recovery.records_replayed), "count");
  result.add("durability.records_discarded", static_cast<double>(recovery.records_discarded), "count");
  result.add("durability.sessions_restored", static_cast<double>(recovery.sessions_restored), "count");
  result.add("durability.replayed_requests", static_cast<double>(recovery.replayed_requests), "count");
  result.add("durability.restart_predictions_frac",
             static_cast<double>(restored_predictions) /
                 static_cast<double>(std::max<std::size_t>(1, hot)),
             "ratio");
  add_window_length_metrics(result, lengths);
  add_plan_cache_metrics(result, plans_before, plans);
  std::vector<double> late;
  for (const StepOutcome* out : {&warmup, &ref, &overload}) {
    late.insert(late.end(), out->late.begin(), out->late.end());
  }
  result.add("bench.generator_late_us_p99", quantile(late, 0.99) * 1e6, "us");
  result.add("bench.trace_overhead_frac",
             mean(generator.traced_submits) / mean(generator.untraced_submits) - 1.0,
             "ratio");
  tracer.write_csv(args.workdir + "/spans-daemon_zipf.csv");
  return result;
}

}  // namespace perfbench
