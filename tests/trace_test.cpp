#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <random>
#include <vector>

#include "trace/formats.hpp"
#include "trace/model.hpp"
#include "util/error.hpp"

namespace tr = ftio::trace;

namespace {

/// Two ranks writing 100 MB each over [0, 1] and [0.5, 1.5].
tr::Trace overlap_trace() {
  tr::Trace t;
  t.app = "test";
  t.rank_count = 2;
  t.requests.push_back({0, 0.0, 1.0, 100'000'000, tr::IoKind::kWrite});
  t.requests.push_back({1, 0.5, 1.5, 100'000'000, tr::IoKind::kWrite});
  return t;
}

}  // namespace

// ---------------------------------------------------------------------------
// Model basics
// ---------------------------------------------------------------------------

TEST(TraceModel, TimesAndVolume) {
  const auto t = overlap_trace();
  EXPECT_DOUBLE_EQ(t.begin_time(), 0.0);
  EXPECT_DOUBLE_EQ(t.end_time(), 1.5);
  EXPECT_DOUBLE_EQ(t.duration(), 1.5);
  EXPECT_EQ(t.total_bytes(), 200'000'000u);
}

TEST(TraceModel, EmptyTrace) {
  tr::Trace t;
  EXPECT_TRUE(t.empty());
  EXPECT_DOUBLE_EQ(t.duration(), 0.0);
  EXPECT_EQ(t.total_bytes(), 0u);
  EXPECT_TRUE(tr::bandwidth_signal(t).empty());
}

TEST(TraceModel, FilterByKind) {
  auto t = overlap_trace();
  t.requests.push_back({0, 2.0, 3.0, 5'000, tr::IoKind::kRead});
  EXPECT_EQ(t.filtered(tr::IoKind::kRead).requests.size(), 1u);
  EXPECT_EQ(t.filtered(tr::IoKind::kWrite).requests.size(), 2u);
  EXPECT_EQ(t.total_bytes(tr::IoKind::kRead), 5'000u);
}

TEST(TraceModel, RequestBandwidth) {
  const tr::IoRequest r{0, 1.0, 3.0, 2'000'000, tr::IoKind::kWrite};
  EXPECT_DOUBLE_EQ(r.bandwidth(), 1'000'000.0);
  const tr::IoRequest zero{0, 1.0, 1.0, 10, tr::IoKind::kWrite};
  EXPECT_DOUBLE_EQ(zero.bandwidth(), 0.0);
}

TEST(TraceModel, WindowClipsAndScalesBytes) {
  const auto t = overlap_trace();
  const auto w = t.window(0.75, 1.25);
  ASSERT_EQ(w.requests.size(), 2u);
  // Rank 0's request [0,1] clipped to [0.75,1]: quarter of the bytes.
  EXPECT_DOUBLE_EQ(w.requests[0].start, 0.75);
  EXPECT_DOUBLE_EQ(w.requests[0].end, 1.0);
  EXPECT_EQ(w.requests[0].bytes, 25'000'000u);
}

TEST(TraceModel, WindowRejectsEmptyRange) {
  EXPECT_THROW(overlap_trace().window(1.0, 1.0), ftio::util::InvalidArgument);
}

TEST(TraceModel, SortByStart) {
  tr::Trace t;
  t.requests.push_back({1, 5.0, 6.0, 1, tr::IoKind::kWrite});
  t.requests.push_back({0, 1.0, 2.0, 1, tr::IoKind::kWrite});
  t.sort_by_start();
  EXPECT_DOUBLE_EQ(t.requests.front().start, 1.0);
}

// ---------------------------------------------------------------------------
// Bandwidth sweep
// ---------------------------------------------------------------------------

TEST(Bandwidth, OverlappingRequestsAdd) {
  const auto f = tr::bandwidth_signal(overlap_trace());
  // Each request runs at 100 MB/s; the overlap [0.5, 1.0] carries 200 MB/s.
  EXPECT_DOUBLE_EQ(f.value_at(0.25), 1e8);
  EXPECT_DOUBLE_EQ(f.value_at(0.75), 2e8);
  EXPECT_DOUBLE_EQ(f.value_at(1.25), 1e8);
  EXPECT_DOUBLE_EQ(f.value_at(2.0), 0.0);
}

TEST(Bandwidth, VolumeIsConserved) {
  const auto t = overlap_trace();
  const auto f = tr::bandwidth_signal(t);
  EXPECT_NEAR(f.total_integral(), static_cast<double>(t.total_bytes()), 1.0);
}

TEST(Bandwidth, GapsHaveZeroBandwidth) {
  tr::Trace t;
  t.requests.push_back({0, 0.0, 1.0, 1'000'000, tr::IoKind::kWrite});
  t.requests.push_back({0, 3.0, 4.0, 1'000'000, tr::IoKind::kWrite});
  const auto f = tr::bandwidth_signal(t);
  EXPECT_DOUBLE_EQ(f.value_at(2.0), 0.0);
  EXPECT_GT(f.value_at(0.5), 0.0);
  EXPECT_GT(f.value_at(3.5), 0.0);
}

TEST(Bandwidth, KindFilterSelectsDirection) {
  tr::Trace t;
  t.requests.push_back({0, 0.0, 1.0, 1'000'000, tr::IoKind::kWrite});
  t.requests.push_back({0, 0.0, 1.0, 9'000'000, tr::IoKind::kRead});
  const auto writes = tr::bandwidth_signal(t, {.kind = tr::IoKind::kWrite});
  EXPECT_DOUBLE_EQ(writes.value_at(0.5), 1e6);
  const auto reads = tr::bandwidth_signal(t, {.kind = tr::IoKind::kRead});
  EXPECT_DOUBLE_EQ(reads.value_at(0.5), 9e6);
}

TEST(Bandwidth, WindowRestrictsSignal) {
  const auto t = overlap_trace();
  tr::BandwidthOptions opts;
  opts.window_start = 0.5;
  opts.window_end = 1.0;
  const auto f = tr::bandwidth_signal(t, opts);
  EXPECT_DOUBLE_EQ(f.start_time(), 0.5);
  EXPECT_DOUBLE_EQ(f.end_time(), 1.0);
  EXPECT_DOUBLE_EQ(f.value_at(0.75), 2e8);
}

TEST(Bandwidth, PerRankSignal) {
  const auto t = overlap_trace();
  const auto r0 = tr::rank_bandwidth_signal(t, 0);
  EXPECT_DOUBLE_EQ(r0.value_at(0.25), 1e8);
  EXPECT_DOUBLE_EQ(r0.value_at(1.25), 0.0);
  const auto r1 = tr::rank_bandwidth_signal(t, 1);
  EXPECT_DOUBLE_EQ(r1.value_at(1.25), 1e8);
}

TEST(Bandwidth, ZeroDurationRequestsIgnoredInSweep) {
  tr::Trace t;
  t.requests.push_back({0, 1.0, 1.0, 500, tr::IoKind::kWrite});
  EXPECT_TRUE(tr::bandwidth_signal(t).empty());
}

TEST(Bandwidth, ManyIdenticalRequestsScaleLinearly) {
  tr::Trace t;
  for (int r = 0; r < 32; ++r) {
    t.requests.push_back({r, 0.0, 2.0, 1'000'000, tr::IoKind::kWrite});
  }
  const auto f = tr::bandwidth_signal(t);
  EXPECT_NEAR(f.value_at(1.0), 32.0 * 500'000.0, 1e-6);
}

// ---------------------------------------------------------------------------
// Sweep coalescing: bit-identical to sweeping every event separately
// ---------------------------------------------------------------------------

namespace {

/// Oracle: the sweep without coalescing. Every event is appended, sorted
/// by bandwidth_event_less and added to the running level one at a time.
ftio::signal::StepFunction event_by_event_sweep(
    const tr::Trace& t, const tr::BandwidthOptions& options = {},
    std::optional<int> only_rank = std::nullopt) {
  std::vector<tr::BandwidthEvent> events;
  tr::append_bandwidth_events(t.requests, options, only_rank, events);
  if (events.empty()) return {};
  std::sort(events.begin(), events.end(), tr::bandwidth_event_less);
  std::vector<double> times;
  std::vector<double> values;
  double level = 0.0;
  for (std::size_t i = 0; i < events.size();) {
    const double at = events[i].time;
    for (; i < events.size() && events[i].time == at; ++i) {
      level += events[i].delta;
    }
    times.push_back(at);
    if (i < events.size()) values.push_back(std::max(level, 0.0));
  }
  return {std::move(times), std::move(values)};
}

void expect_bit_identical(const ftio::signal::StepFunction& got,
                          const ftio::signal::StepFunction& want) {
  ASSERT_EQ(got.times().size(), want.times().size());
  ASSERT_EQ(got.values().size(), want.values().size());
  for (std::size_t i = 0; i < got.times().size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.times()[i]),
              std::bit_cast<std::uint64_t>(want.times()[i]))
        << "boundary " << i;
  }
  for (std::size_t i = 0; i < got.values().size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.values()[i]),
              std::bit_cast<std::uint64_t>(want.values()[i]))
        << "segment " << i;
  }
}

/// Collective phases, phase-major: the ranks of one phase share start,
/// end and bytes, so consecutive requests repeat the same events. Rank
/// counts and byte sizes are odd so that `count` repeated adds round
/// differently from one multiplied add. Every fifth rank straggles, and
/// reads alternate with writes, so one time carries several deltas.
tr::Trace collective_trace(int ranks, int phases) {
  tr::Trace t;
  t.app = "collective";
  t.rank_count = ranks;
  for (int p = 0; p < phases; ++p) {
    const double start = 0.7 + 13.1 * p;
    const auto kind = p % 2 == 0 ? tr::IoKind::kWrite : tr::IoKind::kRead;
    for (int r = 0; r < ranks; ++r) {
      const double end = start + (r % 5 == 4 ? 2.9 : 2.3);
      t.requests.push_back({r, start, end, 7'777'777, kind});
    }
  }
  return t;
}

}  // namespace

TEST(SweepCoalescing, CollectiveRequestsMatchEventByEventSweep) {
  const auto t = collective_trace(37, 9);
  const auto f = tr::bandwidth_signal(t);
  EXPECT_EQ(f.times().size(), 9u * 3u);  // start, bulk end, straggler end
  expect_bit_identical(f, event_by_event_sweep(t));
}

TEST(SweepCoalescing, ShuffledRequestsMatchEventByEventSweep) {
  // Duplicates no longer sit next to each other: fewer events fold, and
  // the runs of one (time, delta) meet only in the sort.
  auto t = collective_trace(37, 9);
  std::mt19937_64 engine(7);
  std::shuffle(t.requests.begin(), t.requests.end(), engine);
  expect_bit_identical(tr::bandwidth_signal(t), event_by_event_sweep(t));
}

TEST(SweepCoalescing, BackToBackPhasesShareBoundaryTimes) {
  // Phase k ends exactly where phase k + 1 starts, so a -bw run and a +bw
  // run sit at one time, and the -bw run must be applied first.
  tr::Trace t;
  t.rank_count = 23;
  for (int p = 0; p < 12; ++p) {
    for (int r = 0; r < 23; ++r) {
      t.requests.push_back({r, 0.1 * p, 0.1 * (p + 1),
                            static_cast<std::uint64_t>(3'000'001 + 977 * p),
                            tr::IoKind::kWrite});
    }
  }
  const auto f = tr::bandwidth_signal(t);
  EXPECT_EQ(f.times().size(), 13u);
  expect_bit_identical(f, event_by_event_sweep(t));
}

TEST(SweepCoalescing, WindowClipMakesStartsCoincide) {
  // Requests that began before window_start all start at the clip; equal
  // bandwidths then fold although their raw starts differ.
  tr::Trace t;
  t.rank_count = 31;
  for (int r = 0; r < 31; ++r) {
    const double start = 0.5 + 0.25 * (r % 4);
    t.requests.push_back({r, start, start + 20.0, 41'000'003,
                          tr::IoKind::kWrite});
  }
  for (int r = 0; r < 31; ++r) {
    t.requests.push_back({r, 22.0, 25.5, 9'999'991, tr::IoKind::kWrite});
  }
  tr::BandwidthOptions options;
  options.window_start = 5.0;
  options.window_end = 24.0;
  const auto f = tr::bandwidth_signal(t, options);
  EXPECT_EQ(f.start_time(), 5.0);
  EXPECT_EQ(f.end_time(), 24.0);
  expect_bit_identical(f, event_by_event_sweep(t, options));
}

TEST(SweepCoalescing, KindFilterMatchesEventByEventSweep) {
  // The filter drops the interleaved reads, so the writes of a phase
  // become adjacent and fold across the skipped requests.
  const auto t = collective_trace(29, 8);
  for (const auto kind : {tr::IoKind::kWrite, tr::IoKind::kRead}) {
    tr::BandwidthOptions options;
    options.kind = kind;
    expect_bit_identical(tr::bandwidth_signal(t, options),
                         event_by_event_sweep(t, options));
  }
}

TEST(SweepCoalescing, RankSignalMatchesEventByEventSweep) {
  // Rank 3 issues every request five times in a row, so its own signal
  // carries folded runs.
  tr::Trace t;
  for (const auto& r : collective_trace(16, 10).requests) {
    const int repeats = r.rank == 3 ? 5 : 1;
    for (int i = 0; i < repeats; ++i) t.requests.push_back(r);
  }
  for (int rank : {0, 3, 4}) {
    expect_bit_identical(tr::rank_bandwidth_signal(t, rank),
                         event_by_event_sweep(t, {}, rank));
  }
}

TEST(SweepCoalescing, RankMajorOrderTakesSortFallback) {
  // File order of a per-rank trace: all of rank 0's requests, then rank
  // 1's, and so on. Neither stream is in time order, so both are sorted.
  auto t = collective_trace(37, 9);
  std::stable_sort(t.requests.begin(), t.requests.end(),
                   [](const tr::IoRequest& a, const tr::IoRequest& b) {
                     return a.rank < b.rank;
                   });
  expect_bit_identical(tr::bandwidth_signal(t), event_by_event_sweep(t));
  tr::BandwidthOptions options;
  options.kind = tr::IoKind::kRead;
  expect_bit_identical(tr::bandwidth_signal(t, options),
                       event_by_event_sweep(t, options));
}

TEST(SweepCoalescing, VariableDurationsLeaveEndsOutOfOrder) {
  // Sorted by start, with random durations and sizes: the start stream
  // is already ordered, the end stream is not. Groups of ranks share a
  // start, so the start stream also carries ties at one time.
  tr::Trace t;
  std::mt19937_64 engine(11);
  std::uniform_real_distribution<double> duration(0.005, 3.0);
  std::uniform_int_distribution<std::uint64_t> bytes(1, 90'000'000);
  for (int i = 0; i < 3000; ++i) {
    const double start = 0.013 * (i / 4);
    t.requests.push_back(
        {i % 64, start, start + duration(engine), bytes(engine),
         i % 3 == 0 ? tr::IoKind::kRead : tr::IoKind::kWrite});
  }
  t.sort_by_start();
  expect_bit_identical(tr::bandwidth_signal(t), event_by_event_sweep(t));
  tr::BandwidthOptions options;
  options.window_start = 3.1;
  options.window_end = 7.7;
  expect_bit_identical(tr::bandwidth_signal(t, options),
                       event_by_event_sweep(t, options));
}

TEST(SweepCoalescing, FilteredRequestSplitsIdenticalGroup) {
  // Three identical writes, one request the options drop, three more
  // identical writes: the dropped request ends the first group, and the
  // second group's events fold into the first group's runs.
  for (const bool by_kind : {true, false}) {
    tr::Trace t;
    const tr::IoRequest write{0, 0.5, 2.5, 7'777'777, tr::IoKind::kWrite};
    const tr::IoRequest dropped =
        by_kind ? tr::IoRequest{0, 0.5, 2.5, 7'777'777, tr::IoKind::kRead}
                : tr::IoRequest{0, 10.0, 11.0, 7'777'777, tr::IoKind::kWrite};
    for (int i = 0; i < 3; ++i) t.requests.push_back(write);
    t.requests.push_back(dropped);
    for (int i = 0; i < 3; ++i) t.requests.push_back(write);
    t.requests.push_back({1, 1.5, 3.5, 3'333'331, tr::IoKind::kWrite});
    tr::BandwidthOptions options;
    if (by_kind) {
      options.kind = tr::IoKind::kWrite;
    } else {
      options.window_end = 5.0;
    }
    const auto f = tr::bandwidth_signal(t, options);
    EXPECT_EQ(f.times().size(), 4u);
    expect_bit_identical(f, event_by_event_sweep(t, options));
  }
}

TEST(SweepCoalescing, EndPrecedesEqualBandwidthStartAtOneTime) {
  // Request A ends where request B starts, with the same bandwidth b, on
  // top of a background level c = 1/3. The sweep applies -b before +b;
  // (c + b) + b - b rounds differently, so taking the start first would
  // change the bits of the segment [2, 3).
  tr::Trace t;
  t.requests.push_back({0, 0.0, 3.0, 1, tr::IoKind::kWrite});
  t.requests.push_back({1, 1.0, 2.0, 1'610'612'741, tr::IoKind::kWrite});
  t.requests.push_back({2, 2.0, 3.0, 1'610'612'741, tr::IoKind::kWrite});
  const auto f = tr::bandwidth_signal(t);
  ASSERT_EQ(f.times().size(), 4u);
  const double b = 1'610'612'741.0;
  const double level = 1.0 / 3.0 + b;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(f.values()[2]),
            std::bit_cast<std::uint64_t>(level - b + b));
  EXPECT_NE(std::bit_cast<std::uint64_t>(level - b + b),
            std::bit_cast<std::uint64_t>(level + b - b));
  expect_bit_identical(f, event_by_event_sweep(t));
}

TEST(RankBuckets, EveryBucketSweepsLikeRankBandwidthSignal) {
  // Ranks interleave in request order, rank 5 is idle, rank 7 only reads
  // (idle under the write filter), rank 2 repeats identical requests, and
  // two requests carry ranks outside [0, rank_count).
  tr::Trace t;
  t.rank_count = 9;
  std::mt19937_64 engine(5);
  std::uniform_real_distribution<double> jitter(0.0, 0.4);
  for (int phase = 0; phase < 40; ++phase) {
    for (int rank : {0, 1, 2, 2, 2, 3, 4, 6, 7, 8}) {
      const double start = 3.0 * phase + (rank == 2 ? 0.0 : jitter(engine));
      t.requests.push_back({rank, start, start + 1.25, 5'000'011,
                            rank == 7 || phase % 5 == 4 ? tr::IoKind::kRead
                                                        : tr::IoKind::kWrite});
    }
  }
  t.requests.push_back({-1, 1.0, 2.0, 1'000, tr::IoKind::kWrite});
  t.requests.push_back({9, 1.0, 2.0, 1'000, tr::IoKind::kWrite});
  const auto buckets = tr::bucket_by_rank(t);
  ASSERT_EQ(buckets.offsets.size(), 10u);
  EXPECT_EQ(buckets.requests.size(), t.requests.size() - 2);
  EXPECT_TRUE(buckets.of(5).empty());
  EXPECT_THROW(buckets.of(-1), ftio::util::InvalidArgument);
  EXPECT_THROW(buckets.of(9), ftio::util::InvalidArgument);
  for (const auto kind : {std::optional<tr::IoKind>{},
                          std::optional<tr::IoKind>{tr::IoKind::kWrite},
                          std::optional<tr::IoKind>{tr::IoKind::kRead}}) {
    tr::BandwidthOptions options;
    options.kind = kind;
    for (int rank = 0; rank < t.rank_count; ++rank) {
      expect_bit_identical(tr::bandwidth_signal(buckets.of(rank), options),
                           tr::rank_bandwidth_signal(t, rank, options));
    }
  }
}

// ---------------------------------------------------------------------------
// Incremental bandwidth compaction
// ---------------------------------------------------------------------------

namespace {

/// Periodic write phases: 4 ranks, 2 s bursts every `period` seconds.
std::vector<tr::IoRequest> burst_chunk(double start) {
  std::vector<tr::IoRequest> reqs;
  for (int r = 0; r < 4; ++r) {
    reqs.push_back({r, start, start + 2.0, 50'000'000, tr::IoKind::kWrite});
  }
  return reqs;
}

}  // namespace

TEST(IncrementalCompact, NoopWhenHorizonBeforeSupport) {
  tr::IncrementalBandwidth inc;
  inc.extend(burst_chunk(10.0));
  EXPECT_EQ(inc.compact(5.0), 0u);
  EXPECT_EQ(inc.compact(10.0), 0u);  // horizon == front: nothing older
  EXPECT_FALSE(inc.floor_time().has_value());
}

TEST(IncrementalCompact, AlignsDownAndPreservesSuffixBitExact) {
  tr::Trace all;
  tr::IncrementalBandwidth inc;
  for (int i = 0; i < 12; ++i) {
    const auto chunk = burst_chunk(i * 10.0);
    all.requests.insert(all.requests.end(), chunk.begin(), chunk.end());
    inc.extend(chunk);
  }
  const std::size_t events_before = inc.event_count();
  const std::size_t evicted = inc.compact(57.0);
  ASSERT_GT(evicted, 0u);
  EXPECT_EQ(inc.event_count(), events_before - evicted);
  // The cut aligns down to a boundary at or before the horizon.
  ASSERT_TRUE(inc.floor_time().has_value());
  EXPECT_LE(*inc.floor_time(), 57.0);
  EXPECT_EQ(inc.curve().start_time(), *inc.floor_time());

  // Retained suffix equals the full sweep bit for bit.
  const auto reference = tr::bandwidth_signal(all);
  const auto& got = inc.curve();
  const std::size_t offset =
      reference.times().size() - got.times().size();
  for (std::size_t i = 0; i < got.times().size(); ++i) {
    EXPECT_EQ(got.times()[i], reference.times()[offset + i]) << i;
  }
  for (std::size_t i = 0; i < got.values().size(); ++i) {
    EXPECT_EQ(got.values()[i], reference.values()[offset + i]) << i;
  }
}

TEST(IncrementalCompact, KeepsAtLeastOneSegment) {
  tr::IncrementalBandwidth inc;
  inc.extend(burst_chunk(0.0));
  inc.compact(1e9);
  EXPECT_GE(inc.curve().segment_count(), 1u);
  EXPECT_FALSE(inc.curve().empty());
}

TEST(IncrementalCompact, ExtendAfterCompactMatchesUncompacted) {
  tr::IncrementalBandwidth compacted;
  tr::IncrementalBandwidth plain;
  for (int i = 0; i < 8; ++i) {
    compacted.extend(burst_chunk(i * 10.0));
    plain.extend(burst_chunk(i * 10.0));
  }
  ASSERT_GT(compacted.compact(40.0), 0u);
  // Straggler dirtying the entire retained range: the re-sweep must
  // restart from the folded base level, not from zero.
  std::vector<tr::IoRequest> late{
      {1, 41.0, 78.0, 37'000'000, tr::IoKind::kWrite}};
  compacted.extend(late);
  plain.extend(late);
  for (int i = 8; i < 11; ++i) {
    compacted.extend(burst_chunk(i * 10.0));
    plain.extend(burst_chunk(i * 10.0));
  }
  const auto& a = compacted.curve();
  const auto& b = plain.curve();
  ASSERT_LT(a.times().size(), b.times().size());
  const std::size_t offset = b.times().size() - a.times().size();
  for (std::size_t i = 0; i < a.times().size(); ++i) {
    EXPECT_EQ(a.times()[i], b.times()[offset + i]) << "boundary " << i;
  }
  for (std::size_t i = 0; i < a.values().size(); ++i) {
    EXPECT_EQ(a.values()[i],
              b.values()[b.values().size() - a.values().size() + i])
        << "segment " << i;
  }
}

TEST(IncrementalCompact, RequestsBelowFloorAreClipped) {
  tr::IncrementalBandwidth inc;
  for (int i = 0; i < 8; ++i) inc.extend(burst_chunk(i * 10.0));
  ASSERT_GT(inc.compact(40.0), 0u);
  const double floor = *inc.floor_time();
  const std::size_t events = inc.event_count();

  // Entirely before the floor: dropped, no event added.
  std::vector<tr::IoRequest> ancient{
      {0, 1.0, 3.0, 10'000'000, tr::IoKind::kWrite}};
  EXPECT_TRUE(std::isinf(inc.extend(ancient)));
  EXPECT_EQ(inc.event_count(), events);
  EXPECT_EQ(inc.curve().start_time(), floor);

  // Spanning the floor: clipped to [floor, end), bandwidth unchanged.
  std::vector<tr::IoRequest> spanning{
      {0, floor - 5.0, floor + 5.0, 20'000'000, tr::IoKind::kWrite}};
  const double dirty = inc.extend(spanning);
  EXPECT_EQ(dirty, floor);
  EXPECT_EQ(inc.event_count(), events + 2);
  EXPECT_EQ(inc.curve().start_time(), floor);
}

TEST(IncrementalCompact, MemoryBytesShrinkAfterEviction) {
  tr::IncrementalBandwidth inc;
  for (int i = 0; i < 200; ++i) inc.extend(burst_chunk(i * 10.0));
  const std::size_t before = inc.memory_bytes();
  ASSERT_GT(inc.compact(1900.0), 0u);
  EXPECT_LT(inc.memory_bytes(), before / 2);
}

// ---------------------------------------------------------------------------
// JSONL round trip
// ---------------------------------------------------------------------------

TEST(Jsonl, RoundTripPreservesRequests) {
  const auto t = overlap_trace();
  const auto text = tr::to_jsonl(t);
  const auto back = tr::from_jsonl(text);
  EXPECT_EQ(back.app, "test");
  EXPECT_EQ(back.rank_count, 2);
  ASSERT_EQ(back.requests.size(), 2u);
  EXPECT_DOUBLE_EQ(back.requests[1].start, 0.5);
  EXPECT_EQ(back.requests[1].bytes, 100'000'000u);
  EXPECT_EQ(back.requests[1].kind, tr::IoKind::kWrite);
}

TEST(Jsonl, SkipsUnknownRecordTypes) {
  const std::string text =
      "{\"type\":\"meta\",\"app\":\"x\",\"ranks\":1}\n"
      "{\"type\":\"flush\",\"time\":3.5}\n"
      "{\"type\":\"io\",\"kind\":\"read\",\"rank\":0,\"start\":1.0,\"end\":2.0,\"bytes\":10}\n";
  const auto t = tr::from_jsonl(text);
  ASSERT_EQ(t.requests.size(), 1u);
  EXPECT_EQ(t.requests[0].kind, tr::IoKind::kRead);
}

TEST(Jsonl, RejectsCorruptRecords) {
  EXPECT_THROW(tr::from_jsonl("{\"no_type\":1}\n"), ftio::util::ParseError);
  EXPECT_THROW(
      tr::from_jsonl("{\"type\":\"io\",\"kind\":\"write\",\"rank\":0,"
                     "\"start\":2.0,\"end\":1.0,\"bytes\":1}\n"),
      ftio::util::ParseError);
}

TEST(Jsonl, SkipBadDropsAndCountsMalformedRecords) {
  const std::string text =
      "{\"type\":\"meta\",\"app\":\"x\",\"ranks\":1}\n"
      "not json at all\n"
      "{\"type\":\"io\",\"kind\":\"write\",\"rank\":0,\"start\":0.0,"
      "\"end\":1.0,\"bytes\":10}\n"
      "{\"type\":\"io\",\"kind\":\"write\",\"rank\":0,\"start\":2.0,"
      "\"end\":1.0,\"bytes\":1}\n"
      "{\"type\":\"io\",\"kind\":\"read\",\"rank\":0,\"start\":1.0,"
      "\"end\":2.0,\"bytes\":20}\n";
  tr::ParseStats stats;
  const auto t = tr::from_jsonl(text, tr::ParsePolicy::kSkipBad, &stats);
  ASSERT_EQ(t.requests.size(), 2u);  // the garbage line and end<start drop
  EXPECT_EQ(t.app, "x");
  EXPECT_EQ(stats.records, 3u);  // meta + two good io records
  EXPECT_EQ(stats.skipped, 2u);
}

TEST(MsgpackTrace, SkipBadDropsBufferTailOnFramingError) {
  auto t = overlap_trace();
  auto bytes = tr::to_msgpack(t);
  // A corrupt byte mid-stream is a framing error: no resynchronisation
  // is possible, so the remainder drops as one skipped record.
  bytes.push_back(0xc1);  // the one reserved/never-used msgpack byte
  tr::ParseStats stats;
  const auto back = tr::from_msgpack(bytes, tr::ParsePolicy::kSkipBad, &stats);
  EXPECT_EQ(back.requests.size(), t.requests.size());
  EXPECT_EQ(stats.skipped, 1u);
  EXPECT_THROW(static_cast<void>(tr::from_msgpack(bytes)),
               ftio::util::ParseError);
}

TEST(RecorderCsv, SkipBadDropsAndCountsMalformedRows) {
  const std::string csv =
      "rank,start,end,bytes,op\n"
      "0,0.0,1.0,1048576,write\n"
      "0,abc,1,1,write\n"
      "1,0.25,0.75,2097152,read\n";
  tr::ParseStats stats;
  const auto t =
      tr::from_recorder_csv(csv, tr::ParsePolicy::kSkipBad, &stats);
  ASSERT_EQ(t.requests.size(), 2u);
  EXPECT_EQ(stats.records, 2u);
  EXPECT_EQ(stats.skipped, 1u);
}

// ---------------------------------------------------------------------------
// MessagePack round trip
// ---------------------------------------------------------------------------

TEST(MsgpackTrace, RoundTrip) {
  auto t = overlap_trace();
  t.requests.push_back({1, 3.0, 4.5, 42, tr::IoKind::kRead});
  const auto bytes = tr::to_msgpack(t);
  const auto back = tr::from_msgpack(bytes);
  ASSERT_EQ(back.requests.size(), 3u);
  EXPECT_EQ(back.app, t.app);
  EXPECT_EQ(back.requests[2].kind, tr::IoKind::kRead);
  EXPECT_DOUBLE_EQ(back.requests[2].end, 4.5);
}

TEST(MsgpackTrace, SmallerThanJsonl) {
  tr::Trace t;
  t.app = "compact";
  t.rank_count = 8;
  for (int i = 0; i < 100; ++i) {
    t.requests.push_back({i % 8, i * 1.0, i * 1.0 + 0.5,
                          static_cast<std::uint64_t>(1024 * i),
                          tr::IoKind::kWrite});
  }
  EXPECT_LT(tr::to_msgpack(t).size(), tr::to_jsonl(t).size());
}

// ---------------------------------------------------------------------------
// Recorder CSV
// ---------------------------------------------------------------------------

TEST(RecorderCsv, RoundTrip) {
  const auto t = overlap_trace();
  const auto csv = tr::to_recorder_csv(t);
  const auto back = tr::from_recorder_csv(csv);
  ASSERT_EQ(back.requests.size(), 2u);
  EXPECT_EQ(back.rank_count, 2);
  EXPECT_DOUBLE_EQ(back.requests[1].end, 1.5);
}

TEST(RecorderCsv, ParsesHandWrittenFile) {
  const std::string csv =
      "rank,start,end,bytes,op\n"
      "0,0.0,1.0,1048576,write\n"
      "1,0.25,0.75,2097152,read\n";
  const auto t = tr::from_recorder_csv(csv);
  ASSERT_EQ(t.requests.size(), 2u);
  EXPECT_EQ(t.requests[1].kind, tr::IoKind::kRead);
  EXPECT_EQ(t.requests[1].bytes, 2097152u);
}

TEST(RecorderCsv, RejectsInvalidNumbers) {
  EXPECT_THROW(tr::from_recorder_csv("rank,start,end,bytes,op\n0,abc,1,1,write\n"),
               ftio::util::ParseError);
}

// ---------------------------------------------------------------------------
// Darshan-like heatmap
// ---------------------------------------------------------------------------

TEST(Heatmap, FromTraceBinsBytes) {
  tr::Trace t;
  t.app = "hm";
  // 10 MB written uniformly over [0, 2): 5 MB per 1 s bin.
  t.requests.push_back({0, 0.0, 2.0, 10'000'000, tr::IoKind::kWrite});
  const auto h = tr::heatmap_from_trace(t, 1.0);
  ASSERT_EQ(h.bytes_per_bin.size(), 2u);
  EXPECT_NEAR(h.bytes_per_bin[0], 5e6, 1.0);
  EXPECT_NEAR(h.bytes_per_bin[1], 5e6, 1.0);
  EXPECT_DOUBLE_EQ(h.implied_sampling_frequency(), 1.0);
}

TEST(Heatmap, VolumeConserved) {
  const auto t = overlap_trace();
  const auto h = tr::heatmap_from_trace(t, 0.25);
  double total = 0.0;
  for (double b : h.bytes_per_bin) total += b;
  EXPECT_NEAR(total, static_cast<double>(t.total_bytes()), 1.0);
}

TEST(Heatmap, BandwidthCurveFromBins) {
  tr::Heatmap h;
  h.bin_width = 2.0;
  h.bytes_per_bin = {4e6, 0.0, 8e6};
  const auto f = h.bandwidth();
  EXPECT_DOUBLE_EQ(f.value_at(1.0), 2e6);
  EXPECT_DOUBLE_EQ(f.value_at(3.0), 0.0);
  EXPECT_DOUBLE_EQ(f.value_at(5.0), 4e6);
  EXPECT_DOUBLE_EQ(f.duration(), 6.0);
}

TEST(Heatmap, CsvRoundTrip) {
  tr::Heatmap h;
  h.app = "nek5000";
  h.start_time = 10.0;
  h.bin_width = 160.0;
  h.bytes_per_bin = {1e9, 0.0, 3.5e9, 2e8};
  const auto csv = tr::to_heatmap_csv(h);
  const auto back = tr::from_heatmap_csv(csv);
  EXPECT_EQ(back.app, "nek5000");
  EXPECT_DOUBLE_EQ(back.start_time, 10.0);
  EXPECT_NEAR(back.bin_width, 160.0, 1e-9);
  ASSERT_EQ(back.bytes_per_bin.size(), 4u);
  EXPECT_DOUBLE_EQ(back.bytes_per_bin[2], 3.5e9);
}

TEST(Heatmap, InstantaneousRequestLandsInBin) {
  tr::Trace t;
  t.requests.push_back({0, 0.0, 4.0, 0, tr::IoKind::kWrite});  // span trace
  t.requests.push_back({0, 2.5, 2.5, 777, tr::IoKind::kWrite});
  const auto h = tr::heatmap_from_trace(t, 1.0);
  EXPECT_DOUBLE_EQ(h.bytes_per_bin[2], 777.0);
}

TEST(Heatmap, RejectsBadBinWidth) {
  EXPECT_THROW(tr::heatmap_from_trace(tr::Trace{}, 0.0),
               ftio::util::InvalidArgument);
}
