#include "trace/model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/binio.hpp"
#include "util/error.hpp"

namespace ftio::trace {

const char* io_kind_name(IoKind kind) {
  return kind == IoKind::kWrite ? "write" : "read";
}

double Trace::begin_time() const {
  if (requests.empty()) return 0.0;
  double t = requests.front().start;
  for (const auto& r : requests) t = std::min(t, r.start);
  return t;
}

double Trace::end_time() const {
  if (requests.empty()) return 0.0;
  double t = requests.front().end;
  for (const auto& r : requests) t = std::max(t, r.end);
  return t;
}

std::uint64_t Trace::total_bytes(std::optional<IoKind> kind) const {
  std::uint64_t total = 0;
  for (const auto& r : requests) {
    if (!kind || r.kind == *kind) total += r.bytes;
  }
  return total;
}

Trace Trace::filtered(IoKind kind) const {
  Trace out;
  out.app = app;
  out.rank_count = rank_count;
  for (const auto& r : requests) {
    if (r.kind == kind) out.requests.push_back(r);
  }
  return out;
}

Trace Trace::window(double t0, double t1) const {
  ftio::util::expect(t1 > t0, "Trace::window: empty window");
  Trace out;
  out.app = app;
  out.rank_count = rank_count;
  for (const auto& r : requests) {
    if (r.end <= t0 || r.start >= t1) continue;
    IoRequest clipped = r;
    const double full = r.duration();
    clipped.start = std::max(r.start, t0);
    clipped.end = std::min(r.end, t1);
    if (full > 0.0) {
      // Scale bytes to the clipped fraction so bandwidth stays unchanged.
      const double frac = clipped.duration() / full;
      clipped.bytes = static_cast<std::uint64_t>(
          std::llround(static_cast<double>(r.bytes) * frac));
    }
    out.requests.push_back(clipped);
  }
  return out;
}

void Trace::sort_by_start() {
  std::sort(requests.begin(), requests.end(),
            [](const IoRequest& a, const IoRequest& b) {
              if (a.start != b.start) return a.start < b.start;
              return a.rank < b.rank;
            });
}

namespace {

bool request_selected(const IoRequest& r, const BandwidthOptions& options) {
  if (options.kind && r.kind != *options.kind) return false;
  if (options.window_start && r.end <= *options.window_start) return false;
  if (options.window_end && r.start >= *options.window_end) return false;
  return true;
}

bool same_request(const IoRequest& a, const IoRequest& b) {
  return a.start == b.start && a.end == b.end && a.bytes == b.bytes &&
         a.kind == b.kind;
}

/// Calls visit(start, end, bw, count) for every group of `count`
/// consecutive identical requests (same start, end, bytes and kind) that
/// `options` and `only_rank` select, clipped to the window, in request
/// order; requests of other ranks do not break a group. The ranks of a
/// collective phase issue identical requests, so a group costs one
/// bandwidth division however many ranks it spans. Groups that clip to
/// nothing or carry no bandwidth are skipped.
template <typename Visit>
void for_each_swept_request(std::span<const IoRequest> requests,
                            const BandwidthOptions& options,
                            std::optional<int> only_rank, Visit&& visit) {
  const IoRequest* head = nullptr;
  std::size_t count = 0;
  const auto flush = [&] {
    if (count == 0 || !request_selected(*head, options)) return;
    double start = head->start;
    double end = head->end;
    if (options.window_start) start = std::max(start, *options.window_start);
    if (options.window_end) end = std::min(end, *options.window_end);
    if (end <= start) return;
    const double bw = head->bandwidth();
    if (bw <= 0.0) return;
    visit(start, end, bw, count);
  };
  for (const auto& r : requests) {
    if (only_rank && r.rank != *only_rank) continue;
    if (count > 0 && same_request(r, *head)) {
      ++count;
      continue;
    }
    flush();
    head = &r;
    count = 1;
  }
  flush();
}

/// Sweep order: time, then delta, so at one time every end (negative
/// delta) precedes every start. The order is total on (time, delta), so
/// the prefix sums, and with them the rounding of the curve, do not
/// depend on request order.
constexpr auto event_less = [](const BandwidthEvent& a,
                               const BandwidthEvent& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.delta < b.delta;
};

/// `count` identical sweep events. Replaying a run applies its delta
/// `count` times: exactly the adds of its events, which sit next to each
/// other in the (time, delta) order.
struct EventRun : BandwidthEvent {
  std::size_t count = 1;
};

/// The start or the end runs of a sweep, appended in request order. An
/// event equal in time and delta to the last run folds into it. `ordered`
/// records whether every append kept (time, delta) order, so a stream
/// built from a trace in start order is neither re-checked nor sorted.
struct RunStream {
  std::vector<EventRun> runs;
  bool ordered = true;

  void clear() {
    runs.clear();
    ordered = true;
  }

  void append(double time, double delta, std::size_t count) {
    if (!runs.empty()) {
      EventRun& last = runs.back();
      if (last.time == time && last.delta == delta) {
        last.count += count;
        return;
      }
      ordered = ordered && event_less(last, BandwidthEvent{time, delta});
    }
    runs.push_back({{time, delta}, count});
  }

  void sort_if_unordered() {
    if (!ordered) std::sort(runs.begin(), runs.end(), event_less);
  }
};

void replay(double& level, const EventRun& run) {
  for (std::size_t n = run.count; n > 0; --n) level += run.delta;
}

ftio::signal::StepFunction sweep(std::span<const IoRequest> requests,
                                 const BandwidthOptions& options,
                                 std::optional<int> only_rank) {
  // Event sweep: +bw at request start, -bw at request end; prefix-summing
  // the events in (time, delta) order yields the piecewise-constant
  // aggregate bandwidth. Starts and ends fill two run streams in request
  // order; a trace in start order has both already ordered, so neither is
  // sorted and the sweep is linear. Reused per-thread scratch spares the
  // page faults of fresh multi-MB buffers.
  thread_local RunStream starts;
  thread_local RunStream ends;
  starts.clear();
  ends.clear();
  for_each_swept_request(
      requests, options, only_rank,
      [](double start, double end, double bw, std::size_t count) {
        starts.append(start, bw, count);
        ends.append(end, -bw, count);
      });
  if (ends.runs.empty()) return {};
  starts.sort_if_unordered();
  ends.sort_if_unordered();

  // Merge the streams while replaying: at one time the end runs go first.
  // Every request ends after it starts, so the last boundary is an end,
  // and an infinite sentinel start spares the start-side bounds checks.
  // Distinct event times are the segment boundaries; the value of segment
  // [times[i], times[i+1]) is the running level after applying all deltas
  // at times[i].
  const std::span<const EventRun> end_runs = ends.runs;
  starts.runs.push_back({{std::numeric_limits<double>::infinity(), 0.0}, 0});
  const EventRun* next_start = starts.runs.data();
  std::vector<double> times;
  times.reserve(starts.runs.size() + end_runs.size());
  std::vector<double> seg_values;
  seg_values.reserve(starts.runs.size() + end_runs.size());
  double level = 0.0;
  std::size_t e = 0;
  while (e < end_runs.size()) {
    const double t = next_start->time < end_runs[e].time ? next_start->time
                                                         : end_runs[e].time;
    for (; e < end_runs.size() && end_runs[e].time == t; ++e) {
      replay(level, end_runs[e]);
    }
    for (; next_start->time == t; ++next_start) replay(level, *next_start);
    times.push_back(t);
    // The final boundary closes the support; it has no following segment.
    if (e < end_runs.size()) seg_values.push_back(std::max(level, 0.0));
  }
  return ftio::signal::StepFunction(std::move(times), std::move(seg_values));
}

/// Sweeps sorted events[from..), continuing the prefix sum from running
/// level `level`: appends one boundary per distinct event time to `times`
/// and the unclamped level after its deltas to `raw_levels`, and the
/// clamped segment value for every boundary except the final one to
/// `values`. The left-to-right accumulation order is exactly the full
/// sweep's, so restarting from a cached level reproduces the full rebuild
/// bit for bit. Returns the final running level.
double sweep_tail(std::span<const BandwidthEvent> events, std::size_t from,
                  double level, std::vector<double>& times,
                  std::vector<double>& values,
                  std::vector<double>& raw_levels) {
  std::size_t ev = from;
  while (ev < events.size()) {
    const double t = events[ev].time;
    for (; ev < events.size() && events[ev].time == t; ++ev) {
      level += events[ev].delta;
    }
    times.push_back(t);
    raw_levels.push_back(level);
    if (ev < events.size()) values.push_back(std::max(level, 0.0));
  }
  return level;
}

}  // namespace

bool bandwidth_event_less(const BandwidthEvent& a, const BandwidthEvent& b) {
  return event_less(a, b);
}

void append_bandwidth_events(std::span<const IoRequest> requests,
                             const BandwidthOptions& options,
                             std::optional<int> only_rank,
                             std::vector<BandwidthEvent>& events) {
  for_each_swept_request(
      requests, options, only_rank,
      [&events](double start, double end, double bw, std::size_t count) {
        for (std::size_t n = 0; n < count; ++n) {
          events.push_back({start, bw});
          events.push_back({end, -bw});
        }
      });
}

IncrementalBandwidth::IncrementalBandwidth(BandwidthOptions options)
    : options_(std::move(options)) {}

double IncrementalBandwidth::extend(std::span<const IoRequest> requests) {
  std::vector<BandwidthEvent> fresh;
  fresh.reserve(requests.size() * 2);
  append_bandwidth_events(requests, options_, std::nullopt, fresh);
  if (fresh.empty()) return std::numeric_limits<double>::infinity();
  std::sort(fresh.begin(), fresh.end(), event_less);
  const double dirty = fresh.front().time;

  const std::size_t old_count = events_.size();
  events_.insert(events_.end(), fresh.begin(), fresh.end());
  if (old_count > 0 &&
      event_less(events_[old_count], events_[old_count - 1])) {
    // Only a chunk reaching back into already-swept time needs the merge;
    // the dominant in-order flush is a pure append and stays O(chunk).
    std::inplace_merge(
        events_.begin(),
        events_.begin() + static_cast<std::ptrdiff_t>(old_count),
        events_.end(), event_less);
  }

  // Everything strictly before the earliest new event is untouched: keep
  // those boundaries (and the running level after the last of them), drop
  // the rest, and re-sweep from the first event at or after `dirty`.
  const auto boundaries = curve_.times();
  const std::size_t keep = static_cast<std::size_t>(
      std::lower_bound(boundaries.begin(), boundaries.end(), dirty) -
      boundaries.begin());
  const std::size_t from = static_cast<std::size_t>(
      std::lower_bound(events_.begin(), events_.end(), dirty,
                       [](const BandwidthEvent& e, double t) {
                         return e.time < t;
                       }) -
      events_.begin());
  const double level = keep > 0 ? raw_levels_[keep - 1] : base_level_;
  raw_levels_.resize(keep);

  std::vector<double> tail_times;
  std::vector<double> tail_values;
  if (keep == boundaries.size() && keep > 0) {
    // Pure append beyond the old support: the old final boundary becomes
    // interior, so emit its (previously unstored) segment value first —
    // the clamp of the cached level, exactly what a full sweep stores.
    tail_values.push_back(std::max(level, 0.0));
  }
  sweep_tail(events_, from, level, tail_times, tail_values, raw_levels_);
  curve_.splice_tail(keep, tail_times, tail_values);
  return dirty;
}

std::size_t IncrementalBandwidth::compact(double horizon) {
  if (curve_.empty()) return 0;
  const auto boundaries = curve_.times();
  if (horizon <= boundaries.front()) return 0;

  // Cut at the start of the segment containing `horizon` (aligning down
  // keeps the curve bit-identical at and after `horizon`), and always
  // keep at least one segment so the curve stays analysable.
  const auto it =
      std::upper_bound(boundaries.begin(), boundaries.end(), horizon);
  std::size_t cut = static_cast<std::size_t>(it - boundaries.begin()) - 1;
  cut = std::min(cut, curve_.segment_count() - 1);
  if (cut == 0) return 0;
  const double cut_time = boundaries[cut];

  // The running level entering the cut boundary replaces the evicted
  // event prefix: a later re-sweep of the whole retained range restarts
  // from it instead of from zero.
  base_level_ = raw_levels_[cut - 1];

  const auto first_kept = std::lower_bound(
      events_.begin(), events_.end(), cut_time,
      [](const BandwidthEvent& e, double t) { return e.time < t; });
  const auto evicted = static_cast<std::size_t>(first_kept - events_.begin());
  events_.erase(events_.begin(), first_kept);
  raw_levels_.erase(raw_levels_.begin(),
                    raw_levels_.begin() + static_cast<std::ptrdiff_t>(cut));
  curve_.trim_front(cut);

  // Late chunks reaching below the cut are clipped exactly like a
  // window_start: re-admitting them would need the evicted prefix sums.
  floor_ = cut_time;
  if (!options_.window_start || *options_.window_start < cut_time) {
    options_.window_start = cut_time;
  }

  // Return freed capacity to the allocator once it dominates live data —
  // the point of compaction is a flat memory footprint, not just flat
  // element counts.
  if (events_.capacity() > 2 * events_.size()) events_.shrink_to_fit();
  if (raw_levels_.capacity() > 2 * raw_levels_.size()) {
    raw_levels_.shrink_to_fit();
  }
  curve_.shrink_to_fit();
  return evicted;
}

void IncrementalBandwidth::save_state(ftio::util::BinWriter& out) const {
  out.f64_opt(options_.window_start);  // compact() clips future chunks here
  out.u64(events_.size());
  for (const auto& e : events_) {
    out.f64(e.time);
    out.f64(e.delta);
  }
  out.f64_vec(raw_levels_);
  out.f64_vec(curve_.times());
  out.f64_vec(curve_.values());
  out.f64(base_level_);
  out.f64_opt(floor_);
}

void IncrementalBandwidth::load_state(ftio::util::BinReader& in) {
  const std::optional<double> window_start = in.f64_opt();
  const std::size_t event_count = in.count(2 * sizeof(double));
  std::vector<BandwidthEvent> events(event_count);
  for (auto& e : events) {
    e.time = in.f64();
    e.delta = in.f64();
  }
  std::vector<double> raw_levels = in.f64_vec();
  std::vector<double> times = in.f64_vec();
  std::vector<double> values = in.f64_vec();
  const double base_level = in.f64();
  const std::optional<double> floor = in.f64_opt();

  for (std::size_t i = 1; i < events.size(); ++i) {
    if (event_less(events[i], events[i - 1])) {
      throw ftio::util::ParseError("IncrementalBandwidth: events not sorted");
    }
  }
  if (times.empty()) {
    if (!values.empty() || !raw_levels.empty() || event_count != 0) {
      throw ftio::util::ParseError(
          "IncrementalBandwidth: empty curve with residual state");
    }
  } else if (times.size() != values.size() + 1 ||
             raw_levels.size() != times.size()) {
    throw ftio::util::ParseError(
        "IncrementalBandwidth: curve/level size mismatch");
  }
  // The StepFunction constructor re-validates monotonicity; a corrupt
  // snapshot surfaces as InvalidArgument, which durability decoders
  // translate into a rejection like any other parse failure.
  ftio::signal::StepFunction curve =
      times.empty() ? ftio::signal::StepFunction{}
                    : ftio::signal::StepFunction(std::move(times),
                                                 std::move(values));

  options_.window_start = window_start;
  events_ = std::move(events);
  raw_levels_ = std::move(raw_levels);
  curve_ = std::move(curve);
  base_level_ = base_level;
  floor_ = floor;
}

std::size_t IncrementalBandwidth::memory_bytes() const {
  return events_.capacity() * sizeof(BandwidthEvent) +
         raw_levels_.capacity() * sizeof(double) + curve_.memory_bytes();
}

ftio::signal::StepFunction bandwidth_signal(const Trace& trace,
                                            const BandwidthOptions& options) {
  return sweep(trace.requests, options, std::nullopt);
}

ftio::signal::StepFunction bandwidth_signal(std::span<const IoRequest> requests,
                                            const BandwidthOptions& options) {
  return sweep(requests, options, std::nullopt);
}

ftio::signal::StepFunction rank_bandwidth_signal(
    const Trace& trace, int rank, const BandwidthOptions& options) {
  return sweep(trace.requests, options, rank);
}

std::span<const IoRequest> RankBuckets::of(int rank) const {
  const auto r = static_cast<std::size_t>(rank);
  ftio::util::expect(rank >= 0 && r + 1 < offsets.size(),
                     "RankBuckets::of: rank out of range");
  return std::span<const IoRequest>(requests)
      .subspan(offsets[r], offsets[r + 1] - offsets[r]);
}

RankBuckets bucket_by_rank(const Trace& trace) {
  const auto ranks = static_cast<std::size_t>(std::max(trace.rank_count, 0));
  const auto in_range = [ranks](const IoRequest& r) {
    return r.rank >= 0 && static_cast<std::size_t>(r.rank) < ranks;
  };
  RankBuckets out;
  out.offsets.assign(ranks + 1, 0);
  for (const auto& r : trace.requests) {
    if (in_range(r)) ++out.offsets[static_cast<std::size_t>(r.rank) + 1];
  }
  for (std::size_t i = 0; i < ranks; ++i) {
    out.offsets[i + 1] += out.offsets[i];
  }
  out.requests.resize(out.offsets.back());
  std::vector<std::size_t> next(out.offsets.begin(), out.offsets.end() - 1);
  for (const auto& r : trace.requests) {
    if (in_range(r)) out.requests[next[static_cast<std::size_t>(r.rank)]++] = r;
  }
  return out;
}

}  // namespace ftio::trace
