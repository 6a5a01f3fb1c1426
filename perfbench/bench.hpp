#pragma once

// Shared pieces of the end-to-end benchmark: run arguments, the span
// recorder of the traced run, sample statistics and the result record.
// Each workload lives in its own translation unit and fills one Result.

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "signal/plan.hpp"
#include "workloads/ior.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Command-line arguments. Each workload's fixed parameters are constants
/// in its own translation unit; perfbench/workloads.json describes them.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory inside the checkout for spans and the daemon's journal.
  std::string workdir = ".bench_build/work";
};

/// offline_paper / online_multitenant: a detected period must lie within
/// this share of the generator's truth.
inline constexpr double kPeriodTolerance = 0.15;

/// Set-up is repeated this often in a run and its median reported.
inline constexpr std::size_t kSetupReps = 3;

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One timed call into a layer: `op` groups the spans of one benchmark
/// operation (a detect() call, a flush, a submission), `parent` is the
/// span that caused it (0 for a root).
struct Span {
  const char* name = "";
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  std::uint64_t op = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// In-memory span recorder, written out when the run ends. Disabled, it
/// reads no clock and stores nothing, so the untraced run pays nothing.
/// Single-threaded: only the benchmark's driving thread records.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  std::uint32_t begin(const char* name, std::uint32_t parent,
                      std::uint64_t op) {
    if (!enabled_) return 0;
    Span span;
    span.name = name;
    span.id = static_cast<std::uint32_t>(spans_.size() + 1);
    span.parent = parent;
    span.op = op;
    span.start_ns = now_ns();
    spans_.push_back(span);
    return span.id;
  }

  void end(std::uint32_t id) {
    if (!enabled_ || id == 0) return;
    spans_[id - 1].end_ns = now_ns();
  }

  /// Durations in seconds of every span called `name`.
  std::vector<double> durations(const char* name) const;

  /// Writes the spans as CSV (id,parent,op,name,start_ns,end_ns).
  void write_csv(const std::string& path) const;

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span around one call.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, const char* name, std::uint32_t parent,
            std::uint64_t op)
      : tracer_(tracer), id_(tracer.begin(name, parent, op)) {}
  ~SpanScope() { tracer_.end(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  std::uint32_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::uint32_t id_;
};

// ---------------------------------------------------------------------------
// Statistics and results
// ---------------------------------------------------------------------------

/// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `failed_ops` counts operations that
/// failed without breaking a correctness check (a rejected flush);
/// `failures` lists every correctness-check miss, and the run is correct
/// when it is empty.
struct Result {
  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed_ops = 0;
  std::vector<std::string> failures;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fail(std::string what) { failures.push_back(std::move(what)); }
  /// One correctness check: counts as an attempted operation.
  void check(bool ok, std::string what) {
    ++attempted;
    if (!ok) fail(std::move(what));
  }
};

/// Median window length and the shares of lengths that are powers of two
/// and 5-smooth (2^a 3^b 5^c), which a transform change may rely on.
void add_window_length_metrics(Result& result,
                               const std::vector<double>& lengths);

/// Length [s] of one write phase of an IOR run: its period is this plus
/// the compute gap.
double ior_phase_seconds(const ftio::workloads::IorConfig& config);

/// Plan-cache lookups between two stats() snapshots.
void add_plan_cache_metrics(Result& result,
                            const ftio::signal::PlanCache::Stats& before,
                            const ftio::signal::PlanCache::Stats& after);

Result run_offline_paper(const Args& args);
Result run_online_multitenant(const Args& args);
Result run_daemon_zipf(const Args& args);

}  // namespace perfbench
