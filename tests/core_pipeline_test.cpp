#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/acf_analysis.hpp"
#include "core/ftio.hpp"
#include "core/metrics.hpp"
#include "signal/step_function.hpp"
#include "trace/model.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace core = ftio::core;
namespace sig = ftio::signal;
namespace tr = ftio::trace;

namespace {

/// Periodic burst trace: `phases` I/O phases of `burst` seconds every
/// `period` seconds; `ranks` ranks each writing `bytes_per_rank` per phase.
tr::Trace periodic_trace(int phases, double period, double burst, int ranks,
                         std::uint64_t bytes_per_rank = 100'000'000) {
  tr::Trace t;
  t.app = "synthetic";
  t.rank_count = ranks;
  for (int p = 0; p < phases; ++p) {
    const double start = p * period;
    for (int r = 0; r < ranks; ++r) {
      t.requests.push_back(
          {r, start, start + burst, bytes_per_rank, tr::IoKind::kWrite});
    }
  }
  // Terminal compute phase so the trace spans full periods.
  t.requests.push_back({0, phases * period - 1e-3, phases * period, 1,
                        tr::IoKind::kWrite});
  return t;
}

/// Square bandwidth wave as a step function.
sig::StepFunction square_wave(int cycles, double period, double burst,
                              double height) {
  std::vector<double> times{0.0};
  std::vector<double> values;
  for (int c = 0; c < cycles; ++c) {
    const double t0 = c * period;
    times.push_back(t0 + burst);
    values.push_back(height);
    times.push_back(t0 + period);
    values.push_back(0.0);
  }
  return sig::StepFunction(std::move(times), std::move(values));
}

}  // namespace

// ---------------------------------------------------------------------------
// ACF refinement
// ---------------------------------------------------------------------------

TEST(AcfAnalysis, RecoversPeriodOfBurstTrain) {
  const double fs = 1.0;
  std::vector<double> x(400, 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (std::fmod(static_cast<double>(i), 20.0) < 3.0) x[i] = 10.0;
  }
  const auto a = core::analyze_autocorrelation(x, fs);
  ASSERT_TRUE(a.found());
  EXPECT_NEAR(a.period, 20.0, 1.0);
  EXPECT_GT(a.confidence, 0.9);
  EXPECT_FALSE(a.raw_periods.empty());
  EXPECT_LE(a.candidate_periods.size(), a.raw_periods.size());
}

TEST(AcfAnalysis, NoPeaksMeansNotFound) {
  ftio::util::Rng rng(5);
  std::vector<double> x(64);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  core::AcfOptions opts;
  opts.peak_threshold = 0.99;  // nothing reaches this
  const auto a = core::analyze_autocorrelation(x, 1.0, opts);
  EXPECT_FALSE(a.found());
  EXPECT_DOUBLE_EQ(a.confidence, 0.0);
}

TEST(AcfAnalysis, TinySignalHandled) {
  std::vector<double> x{1.0, 2.0};
  const auto a = core::analyze_autocorrelation(x, 1.0);
  EXPECT_FALSE(a.found());
}

TEST(AcfAnalysis, SimilarityHighWhenPeriodsAgree) {
  std::vector<double> x(400, 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (std::fmod(static_cast<double>(i), 20.0) < 3.0) x[i] = 10.0;
  }
  const auto a = core::analyze_autocorrelation(x, 1.0);
  ASSERT_TRUE(a.found());
  EXPECT_GT(core::dft_acf_similarity(a, 20.0), 0.9);
  EXPECT_LT(core::dft_acf_similarity(a, 60.0), 0.7);
}

TEST(AcfAnalysis, SimilarityZeroWithoutCandidates) {
  core::AcfAnalysis empty;
  EXPECT_DOUBLE_EQ(core::dft_acf_similarity(empty, 10.0), 0.0);
}

TEST(AcfAnalysis, MergedConfidenceAveragesThree) {
  std::vector<double> x(400, 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (std::fmod(static_cast<double>(i), 20.0) < 3.0) x[i] = 10.0;
  }
  const auto a = core::analyze_autocorrelation(x, 1.0);
  const double cd = 0.6;
  const double merged = core::merged_confidence(cd, a, 20.0);
  const double cs = core::dft_acf_similarity(a, 20.0);
  EXPECT_NEAR(merged, (cd + a.confidence + cs) / 3.0, 1e-12);
}

TEST(AcfAnalysis, MergedConfidenceFallsBackToDft) {
  core::AcfAnalysis empty;
  EXPECT_DOUBLE_EQ(core::merged_confidence(0.55, empty, 10.0), 0.55);
}

TEST(AcfAnalysis, RejectsBadFs) {
  std::vector<double> x(10, 1.0);
  EXPECT_THROW(core::analyze_autocorrelation(x, 0.0),
               ftio::util::InvalidArgument);
}

// ---------------------------------------------------------------------------
// Characterization metrics
// ---------------------------------------------------------------------------

TEST(Metrics, PerfectSquareWave) {
  // 25% duty cycle square wave: R_IO = 0.25, sigma_vol = sigma_time = 0.
  const auto f = square_wave(10, 20.0, 5.0, 8.0);
  const auto m = core::compute_metrics(f, 1.0 / 20.0);
  EXPECT_NEAR(m.time_ratio_io, 0.25, 1e-9);
  EXPECT_NEAR(m.sigma_vol, 0.0, 1e-9);
  EXPECT_NEAR(m.sigma_time, 0.0, 1e-9);
  EXPECT_NEAR(m.periodicity_score(), 1.0, 1e-9);
  EXPECT_NEAR(m.substantial_bandwidth, 8.0, 1e-9);
  EXPECT_EQ(m.period_count, 10u);
  // Every period carries burst*height = 40 units of data.
  EXPECT_NEAR(m.bytes_per_period, 40.0, 1e-6);
}

TEST(Metrics, ThresholdIsMeanVolumePerTime) {
  const auto f = square_wave(4, 10.0, 2.0, 5.0);
  const auto m = core::compute_io_ratio(f);
  // V(T)/L(T) = (4 phases * 2 s * 5)/40 s = 1.0
  EXPECT_NEAR(m.noise_threshold, 1.0, 1e-9);
  EXPECT_NEAR(m.time_ratio_io, 0.2, 1e-9);
  EXPECT_NEAR(m.substantial_bandwidth, 5.0, 1e-9);
}

TEST(Metrics, UnevenVolumesRaiseSigmaVol) {
  // Alternating strong/weak phases at the same cadence.
  std::vector<double> times{0.0};
  std::vector<double> values;
  for (int c = 0; c < 10; ++c) {
    const double t0 = c * 20.0;
    times.push_back(t0 + 5.0);
    values.push_back(c % 2 == 0 ? 10.0 : 2.0);
    times.push_back(t0 + 20.0);
    values.push_back(0.0);
  }
  const sig::StepFunction f(std::move(times), std::move(values));
  const auto m = core::compute_metrics(f, 1.0 / 20.0);
  EXPECT_GT(m.sigma_vol, 0.2);
  // Time behaviour is still perfectly periodic... but the weak phases sit
  // below the global threshold, so sigma_time rises as well — matching the
  // paper's observation that sigma metrics react to uneven volumes.
  EXPECT_LT(m.periodicity_score(), 0.8);
}

TEST(Metrics, LowBandwidthNoiseIsFilteredOut) {
  // Periodic tall bursts + constant low "log file" noise: noise sits below
  // the V/L threshold so R_IO counts only the bursts.
  std::vector<double> times{0.0};
  std::vector<double> values;
  for (int c = 0; c < 8; ++c) {
    const double t0 = c * 10.0;
    times.push_back(t0 + 1.0);
    values.push_back(100.0);     // burst
    times.push_back(t0 + 10.0);
    values.push_back(0.5);       // background noise
  }
  const sig::StepFunction f(std::move(times), std::move(values));
  const auto m = core::compute_metrics(f, 0.1);
  EXPECT_NEAR(m.time_ratio_io, 0.1, 0.02);
  EXPECT_GT(m.substantial_bandwidth, 50.0);
}

TEST(Metrics, TraceShorterThanPeriod) {
  const auto f = square_wave(1, 10.0, 2.0, 5.0);
  const auto m = core::compute_metrics(f, 1.0 / 20.0);  // period 20 > 10
  EXPECT_EQ(m.period_count, 0u);
}

TEST(Metrics, RejectsBadArguments) {
  const auto f = square_wave(2, 10.0, 2.0, 5.0);
  EXPECT_THROW(core::compute_metrics(f, 0.0), ftio::util::InvalidArgument);
  EXPECT_THROW(core::compute_metrics(sig::StepFunction{}, 1.0),
               ftio::util::InvalidArgument);
}

TEST(Metrics, ScoreClampedToUnitInterval) {
  core::PeriodicityMetrics m;
  m.sigma_vol = 0.5;
  m.sigma_time = 0.5;
  EXPECT_DOUBLE_EQ(m.periodicity_score(), 0.0);
  m.sigma_vol = 0.0;
  m.sigma_time = 0.0;
  EXPECT_DOUBLE_EQ(m.periodicity_score(), 1.0);
}

namespace {

/// compute_metrics with every above-threshold measure walking all
/// segments of the curve, the form before the walks were windowed.
core::PeriodicityMetrics all_segments_metrics(const sig::StepFunction& f,
                                              double fd) {
  const auto measure = [&f](double a, double b, double threshold) {
    std::pair<double, double> out{0.0, 0.0};  // length, volume
    const auto times = f.times();
    const auto values = f.values();
    for (std::size_t i = 0; i < values.size(); ++i) {
      const double lo = std::max(a, times[i]);
      const double hi = std::min(b, times[i + 1]);
      if (hi <= lo) continue;
      if (values[i] > threshold) {
        out.first += hi - lo;
        out.second += values[i] * (hi - lo);
      }
    }
    return out;
  };
  core::PeriodicityMetrics m;
  const double length = f.duration();
  m.noise_threshold = f.total_integral() / length;
  const auto s = measure(f.start_time(), f.end_time(), m.noise_threshold);
  m.time_ratio_io = s.first / length;
  m.substantial_bandwidth = s.first > 0.0 ? s.second / s.first : 0.0;
  const double period = 1.0 / fd;
  const auto count = static_cast<std::size_t>(length * fd);
  m.period_count = count;
  if (count == 0) return m;
  const double t0 = f.start_time();
  std::vector<double> volumes(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double a = t0 + static_cast<double>(i) * period;
    volumes[i] = f.integral(a, a + period);
  }
  const double vmax = ftio::util::max_value(volumes);
  if (vmax > 0.0) {
    std::vector<double> normalised(count);
    for (std::size_t i = 0; i < count; ++i) normalised[i] = volumes[i] / vmax;
    m.sigma_vol = ftio::util::stddev(normalised);
  }
  double acc = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    const double a = t0 + static_cast<double>(i) * period;
    const double ratio = measure(a, a + period, m.noise_threshold).first / period;
    acc += (ratio - m.time_ratio_io) * (ratio - m.time_ratio_io);
  }
  m.sigma_time = std::sqrt(acc / static_cast<double>(count));
  m.bytes_per_period = s.second / (length * fd);
  return m;
}

void expect_same_bits(double got, double want, int trial, const char* what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
            std::bit_cast<std::uint64_t>(want))
      << what << " trial " << trial;
}

}  // namespace

TEST(Metrics, WindowedWalksMatchAllSegmentsBitwise) {
  // Random step functions (irregular knots, zero gaps, a few levels so
  // values sit on the threshold) and periods from below one knot spacing
  // to longer than the curve.
  ftio::util::Rng rng(2024);
  for (int trial = 0; trial < 300; ++trial) {
    const auto knots = rng.uniform_int(2, 400);
    std::vector<double> times{rng.uniform(-50.0, 50.0)};
    std::vector<double> values;
    for (std::int64_t k = 1; k < knots; ++k) {
      times.push_back(times.back() + rng.uniform(1e-3, 3.0));
      values.push_back(rng.uniform(0.0, 1.0) < 0.3
                           ? 0.0
                           : static_cast<double>(rng.uniform_int(1, 5)) *
                                 rng.uniform(0.9, 1.1));
    }
    const sig::StepFunction f(std::move(times), std::move(values));
    const double fd = 1.0 / (f.duration() * rng.uniform(0.002, 1.2));
    const auto got = core::compute_metrics(f, fd);
    const auto want = all_segments_metrics(f, fd);
    ASSERT_EQ(got.period_count, want.period_count) << "trial " << trial;
    expect_same_bits(got.noise_threshold, want.noise_threshold, trial,
                     "noise_threshold");
    expect_same_bits(got.time_ratio_io, want.time_ratio_io, trial,
                     "time_ratio_io");
    expect_same_bits(got.substantial_bandwidth, want.substantial_bandwidth,
                     trial, "substantial_bandwidth");
    expect_same_bits(got.sigma_vol, want.sigma_vol, trial, "sigma_vol");
    expect_same_bits(got.sigma_time, want.sigma_time, trial, "sigma_time");
    expect_same_bits(got.bytes_per_period, want.bytes_per_period, trial,
                     "bytes_per_period");
  }
}

// ---------------------------------------------------------------------------
// End-to-end pipeline: trace -> detect
// ---------------------------------------------------------------------------

TEST(Detect, PeriodicTraceEndToEnd) {
  const auto t = periodic_trace(/*phases=*/12, /*period=*/20.0,
                                /*burst=*/3.0, /*ranks=*/8);
  core::FtioOptions opts;
  opts.sampling_frequency = 1.0;
  const auto r = core::detect(t, opts);
  ASSERT_TRUE(r.periodic());
  EXPECT_NEAR(r.period(), 20.0, 1.0);
  EXPECT_GT(r.confidence(), 0.2);
  EXPECT_GT(r.refined_confidence, r.dft.confidence);  // ACF agrees, boosts it
  EXPECT_DOUBLE_EQ(r.confidence(), r.refined_confidence);
  ASSERT_TRUE(r.metrics.has_value());
  EXPECT_GT(r.metrics->periodicity_score(), 0.8);
  EXPECT_LT(r.abstraction_error, 0.05);
}

TEST(Detect, WindowRestrictsAnalysis) {
  // First half: period 20 s; second half: no I/O at all.
  auto t = periodic_trace(6, 20.0, 3.0, 4);
  t.requests.push_back({0, 400.0, 400.1, 5, tr::IoKind::kWrite});
  core::FtioOptions opts;
  opts.sampling_frequency = 1.0;
  opts.window_end = 120.0;
  const auto r = core::detect(t, opts);
  ASSERT_TRUE(r.periodic());
  EXPECT_NEAR(r.period(), 20.0, 1.0);
  EXPECT_LE(r.window_end, 120.0 + 1e-9);
}

TEST(Detect, KindFilterSeparatesReadAndWrite) {
  // Writes every 20 s; reads every 31 s.
  tr::Trace t;
  t.rank_count = 1;
  for (int p = 0; p < 20; ++p) {
    t.requests.push_back(
        {0, p * 20.0, p * 20.0 + 2.0, 50'000'000, tr::IoKind::kWrite});
  }
  for (int p = 0; p < 13; ++p) {
    t.requests.push_back(
        {0, p * 31.0, p * 31.0 + 2.0, 50'000'000, tr::IoKind::kRead});
  }
  core::FtioOptions opts;
  opts.sampling_frequency = 1.0;
  opts.kind = tr::IoKind::kWrite;
  const auto w = core::detect(t, opts);
  ASSERT_TRUE(w.periodic());
  EXPECT_NEAR(w.period(), 20.0, 1.5);
  opts.kind = tr::IoKind::kRead;
  const auto r = core::detect(t, opts);
  ASSERT_TRUE(r.periodic());
  EXPECT_NEAR(r.period(), 31.0, 2.0);
}

TEST(Detect, SkipFirstPhaseDropsProlongedInit) {
  // First phase lasts 15 s (init overhead), the rest 2 s every 20 s.
  tr::Trace t;
  t.rank_count = 1;
  t.requests.push_back({0, 0.0, 15.0, 150'000'000, tr::IoKind::kWrite});
  for (int p = 1; p < 12; ++p) {
    t.requests.push_back(
        {0, p * 20.0, p * 20.0 + 2.0, 20'000'000, tr::IoKind::kWrite});
  }
  core::FtioOptions opts;
  opts.sampling_frequency = 1.0;
  opts.skip_first_phase = true;
  const auto r = core::detect(t, opts);
  ASSERT_TRUE(r.periodic());
  EXPECT_GE(r.window_start, 15.0 - 1e-9);
  EXPECT_NEAR(r.period(), 20.0, 1.0);
}

TEST(Detect, EmptyTraceThrows) {
  EXPECT_THROW(core::detect(tr::Trace{}, core::FtioOptions{}),
               ftio::util::InvalidArgument);
}

TEST(Detect, KeepSpectrumExposesBins) {
  const auto t = periodic_trace(10, 20.0, 3.0, 2);
  core::FtioOptions opts;
  opts.sampling_frequency = 1.0;
  opts.keep_spectrum = true;
  const auto r = core::detect(t, opts);
  ASSERT_TRUE(r.spectrum.has_value());
  EXPECT_EQ(r.spectrum->total_samples, r.sample_count);
}

TEST(Detect, AutocorrelationCanBeDisabled) {
  const auto t = periodic_trace(10, 20.0, 3.0, 2);
  core::FtioOptions opts;
  opts.sampling_frequency = 1.0;
  opts.with_autocorrelation = false;
  const auto r = core::detect(t, opts);
  EXPECT_FALSE(r.acf.has_value());
  EXPECT_DOUBLE_EQ(r.refined_confidence, r.confidence());
}

// ---------------------------------------------------------------------------
// Parameter selection
// ---------------------------------------------------------------------------

TEST(Parameters, SuggestFsFromSmallestRequest) {
  tr::Trace t;
  t.requests.push_back({0, 0.0, 0.5, 100, tr::IoKind::kWrite});
  t.requests.push_back({0, 1.0, 1.1, 100, tr::IoKind::kWrite});  // 0.1 s
  EXPECT_NEAR(core::suggest_sampling_frequency(t), 20.0, 1e-9);
}

TEST(Parameters, SuggestFsClamped) {
  tr::Trace t;
  t.requests.push_back({0, 0.0, 1e-9, 100, tr::IoKind::kWrite});
  EXPECT_DOUBLE_EQ(core::suggest_sampling_frequency(t, 0.01, 100.0), 100.0);
  tr::Trace empty;
  EXPECT_DOUBLE_EQ(core::suggest_sampling_frequency(empty, 0.5, 100.0), 0.5);
}

TEST(Parameters, FrequencyResolution) {
  EXPECT_DOUBLE_EQ(core::frequency_resolution(781.0), 1.0 / 781.0);
  EXPECT_THROW(core::frequency_resolution(0.0), ftio::util::InvalidArgument);
}

TEST(Parameters, FirstPhaseEnd) {
  const auto f = square_wave(3, 10.0, 2.0, 5.0);
  EXPECT_DOUBLE_EQ(core::first_phase_end(f), 2.0);
  // All-active curve: first phase never ends before the trace does.
  sig::StepFunction solid({0.0, 5.0}, {3.0});
  EXPECT_DOUBLE_EQ(core::first_phase_end(solid), 5.0);
}
