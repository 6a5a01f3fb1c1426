#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "core/candidates.hpp"
#include "core/ftio.hpp"
#include "signal/spectrum.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace core = ftio::core;
namespace sig = ftio::signal;

namespace {

/// Square-wave bandwidth: bursts of `burst` seconds every `period` seconds,
/// amplitude `height`, sampled at `fs` for `seconds`. The canonical
/// periodic-I/O signal shape.
std::vector<double> bursty_signal(double period, double burst, double fs,
                                  double seconds, double height = 10.0,
                                  double noise = 0.0, std::uint64_t seed = 1) {
  ftio::util::Rng rng(seed);
  const auto n = static_cast<std::size_t>(seconds * fs);
  std::vector<double> x(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / fs;
    const double phase = std::fmod(t, period);
    if (phase < burst) x[i] = height;
    if (noise > 0.0) x[i] += rng.uniform(0.0, noise);
  }
  return x;
}

}  // namespace

// ---------------------------------------------------------------------------
// analyze_spectrum: decision rule
// ---------------------------------------------------------------------------

TEST(DftAnalysis, CleanPeriodicSignalIsPeriodic) {
  // Cosine at 0.1 Hz (period 10 s) with offset — a single spectral line.
  const double fs = 2.0;
  const auto n = static_cast<std::size_t>(200 * fs);
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / fs;
    x[i] = 5.0 + std::cos(2.0 * std::numbers::pi * 0.1 * t);
  }
  const auto s = sig::compute_spectrum(x, fs);
  const auto a = core::analyze_spectrum(s);
  EXPECT_EQ(a.verdict, core::Periodicity::kPeriodic);
  ASSERT_TRUE(a.dominant_frequency.has_value());
  EXPECT_NEAR(*a.dominant_frequency, 0.1, s.frequency_step());
  EXPECT_NEAR(a.period(), 10.0, 0.6);
  EXPECT_GT(a.confidence, 0.3);
}

TEST(DftAnalysis, WhiteNoiseIsAperiodic) {
  ftio::util::Rng rng(77);
  std::vector<double> x(1024);
  for (auto& v : x) v = rng.uniform(0.0, 1.0);
  const auto s = sig::compute_spectrum(x, 1.0);
  const auto a = core::analyze_spectrum(s);
  EXPECT_EQ(a.verdict, core::Periodicity::kAperiodic);
  EXPECT_FALSE(a.dominant_frequency.has_value());
  EXPECT_DOUBLE_EQ(a.period(), 0.0);
}

TEST(DftAnalysis, ConstantSignalIsAperiodic) {
  // A constant window puts all its power in the DC bin; every other bin
  // holds only rounding noise, far below it, and z-scores over that noise
  // would still clear the threshold.
  for (const double level : {4.2, 1.7, 0.3, 2.6e9}) {
    for (std::size_t n = 64; n <= 1600; n += 7) {
      const std::vector<double> x(n, level);
      const auto a = core::analyze_spectrum(sig::compute_spectrum(x, 10.0));
      EXPECT_EQ(a.verdict, core::Periodicity::kAperiodic)
          << "n = " << n << ", level = " << level;
      EXPECT_TRUE(a.candidates.empty()) << "n = " << n << ", level = " << level;
      EXPECT_DOUBLE_EQ(a.max_zscore, 0.0)
          << "n = " << n << ", level = " << level;
    }
  }
}

TEST(DftAnalysis, LoneImpulseIsAperiodic) {
  // The spectrum of a single impulse is flat: every bin has the same
  // power, up to the transform's rounding. Z-scores over that spread
  // would rank rounding noise, so no length and no impulse position may
  // yield a candidate.
  for (std::size_t n = 64; n <= 1600; n += 7) {
    std::vector<double> x(n, 0.0);
    x[(n * 3) / 7] = 5.0;
    const auto a = core::analyze_spectrum(sig::compute_spectrum(x, 10.0));
    EXPECT_EQ(a.verdict, core::Periodicity::kAperiodic) << "n = " << n;
    EXPECT_TRUE(a.candidates.empty()) << "n = " << n;
    EXPECT_FALSE(a.dominant_frequency.has_value()) << "n = " << n;
  }
}

TEST(DftAnalysis, TwoToneSignalIsPeriodicWithVariation) {
  // Two non-harmonic tones of similar power -> two candidates.
  const double fs = 2.0;
  const auto n = static_cast<std::size_t>(500 * fs);
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / fs;
    x[i] = 5.0 + std::cos(2.0 * std::numbers::pi * 0.11 * t) +
           0.97 * std::cos(2.0 * std::numbers::pi * 0.17 * t);
  }
  const auto s = sig::compute_spectrum(x, fs);
  const auto a = core::analyze_spectrum(s);
  EXPECT_EQ(a.verdict, core::Periodicity::kPeriodicWithVariation);
  ASSERT_TRUE(a.dominant_frequency.has_value());
  // The stronger tone wins.
  EXPECT_NEAR(*a.dominant_frequency, 0.11, s.frequency_step());
}

TEST(DftAnalysis, ManyCandidatesMeansAperiodic) {
  // Four well-separated, equally strong, non-harmonic tones.
  const double fs = 2.0;
  const auto n = static_cast<std::size_t>(500 * fs);
  std::vector<double> x(n);
  const double tones[] = {0.11, 0.17, 0.23, 0.31};
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / fs;
    x[i] = 5.0;
    for (double f : tones) x[i] += std::cos(2.0 * std::numbers::pi * f * t);
  }
  const auto a = core::analyze_spectrum(sig::compute_spectrum(x, fs));
  EXPECT_EQ(a.verdict, core::Periodicity::kAperiodic);
  EXPECT_GE(a.candidates.size(), 3u);
}

TEST(DftAnalysis, HarmonicIsSuppressed) {
  // Fundamental at 0.1 Hz plus its 0.2 Hz octave: bursty I/O shape. The
  // harmonic must be ignored and the verdict stay periodic.
  const double fs = 2.0;
  const auto n = static_cast<std::size_t>(500 * fs);
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / fs;
    x[i] = 5.0 + std::cos(2.0 * std::numbers::pi * 0.1 * t) +
           0.95 * std::cos(2.0 * std::numbers::pi * 0.2 * t);
  }
  core::CandidateOptions opts;
  opts.tolerance = 0.45;  // the Fig. 2 discussion's lowered tolerance
  const auto s = sig::compute_spectrum(x, fs);
  const auto a = core::analyze_spectrum(s, opts);
  EXPECT_EQ(a.verdict, core::Periodicity::kPeriodic);
  ASSERT_TRUE(a.dominant_frequency.has_value());
  EXPECT_NEAR(*a.dominant_frequency, 0.1, s.frequency_step());
  bool saw_suppressed = false;
  for (const auto& c : a.candidates) saw_suppressed |= c.harmonic_suppressed;
  EXPECT_TRUE(saw_suppressed);
}

TEST(DftAnalysis, BurstTrainDetectedDespiteHarmonics) {
  // A real burst train has many 2^m harmonics; detection must still lock
  // onto the fundamental.
  const auto x = bursty_signal(/*period=*/20.0, /*burst=*/2.0, /*fs=*/1.0,
                               /*seconds=*/400.0);
  const auto s = sig::compute_spectrum(x, 1.0);
  const auto a = core::analyze_spectrum(s);
  ASSERT_TRUE(a.dominant_frequency.has_value());
  EXPECT_NEAR(*a.dominant_frequency, 0.05, s.frequency_step());
}

TEST(DftAnalysis, ToleranceWidensCandidateSet) {
  const auto x = bursty_signal(20.0, 2.0, 1.0, 400.0);
  const auto s = sig::compute_spectrum(x, 1.0);
  core::CandidateOptions strict;
  strict.tolerance = 0.95;
  core::CandidateOptions loose;
  loose.tolerance = 0.2;
  EXPECT_LE(core::analyze_spectrum(s, strict).candidates.size(),
            core::analyze_spectrum(s, loose).candidates.size());
}

TEST(DftAnalysis, ConfidencesOfCandidatesSumBelowOne) {
  const auto x = bursty_signal(20.0, 5.0, 1.0, 400.0, 10.0, 0.5);
  const auto a = core::analyze_spectrum(sig::compute_spectrum(x, 1.0));
  double sum = 0.0;
  for (const auto& c : a.candidates) sum += c.confidence;
  EXPECT_LE(sum, 1.0 + 1e-9);
  for (const auto& c : a.candidates) {
    EXPECT_GE(c.confidence, 0.0);
    EXPECT_LE(c.confidence, 1.0);
  }
}

TEST(DftAnalysis, MeanBinContributionMatchesBinCount) {
  const auto x = bursty_signal(20.0, 2.0, 1.0, 100.0);
  const auto s = sig::compute_spectrum(x, 1.0);
  const auto a = core::analyze_spectrum(s);
  EXPECT_NEAR(a.mean_bin_contribution,
              1.0 / static_cast<double>(s.inspected_bins()), 1e-12);
}

TEST(DftAnalysis, RejectsBadTolerance) {
  const auto x = bursty_signal(20.0, 2.0, 1.0, 100.0);
  const auto s = sig::compute_spectrum(x, 1.0);
  core::CandidateOptions opts;
  opts.tolerance = 0.0;
  EXPECT_THROW(core::analyze_spectrum(s, opts), ftio::util::InvalidArgument);
  opts.tolerance = 1.5;
  EXPECT_THROW(core::analyze_spectrum(s, opts), ftio::util::InvalidArgument);
}

TEST(DftAnalysis, RefinementSkipsCandidateWithLargerNeighbour) {
  // Whole-cycle tones put powers 100 / 90 / 79 into bins 2 / 3 / 4. Bin 2
  // is below min_cycles, so bin 3 is the sole candidate while its left
  // neighbour is larger. The parabola through the three bins is nearly
  // flat (denominator -1), so its vertex lies ten bins to the left, below
  // 0 Hz; the candidate must keep a frequency within half a bin of its
  // own, and the metrics stage (which rejects f <= 0) must not throw.
  const double fs = 1.0;
  const std::size_t n = 512;
  const double powers[] = {100.0, 90.0, 79.0};
  std::vector<double> x(n, 40.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 2; k <= 4; ++k) {
      x[i] += std::sqrt(powers[k - 2]) *
              std::cos(2.0 * std::numbers::pi * static_cast<double>(k * i) /
                       static_cast<double>(n));
    }
  }
  const auto s = sig::compute_spectrum(x, fs);
  ASSERT_GT(s.power[2], s.power[3]);
  const auto a = core::analyze_spectrum(s);
  ASSERT_TRUE(a.dominant_frequency.has_value());
  ASSERT_EQ(a.candidates.front().bin, 3u);
  EXPECT_GT(*a.dominant_frequency, 0.0);
  EXPECT_LE(std::abs(*a.dominant_frequency - s.frequencies[3]),
            0.5 * s.frequency_step());

  // The same samples as a bandwidth curve (one segment per sample, so
  // point sampling at fs reproduces x): the full pipeline, metrics on.
  std::vector<double> times(n + 1);
  for (std::size_t i = 0; i <= n; ++i) {
    times[i] = static_cast<double>(i) / fs;
  }
  const sig::StepFunction bandwidth(times, x);
  core::FtioOptions opts;
  opts.sampling_frequency = fs;
  core::FtioResult r;
  ASSERT_NO_THROW(r = core::analyze_bandwidth(bandwidth, opts));
  EXPECT_EQ(r.sample_count, n);
  EXPECT_GT(r.frequency(), 0.0);
  EXPECT_TRUE(r.metrics.has_value());
}

TEST(DftAnalysis, PeriodicityNames) {
  EXPECT_STREQ(core::periodicity_name(core::Periodicity::kPeriodic),
               "periodic");
  EXPECT_STREQ(
      core::periodicity_name(core::Periodicity::kPeriodicWithVariation),
      "periodic-with-variation");
  EXPECT_STREQ(core::periodicity_name(core::Periodicity::kAperiodic),
               "aperiodic");
}

// ---------------------------------------------------------------------------
// Detection accuracy sweep (property-style): FTIO must recover the period
// of burst trains across a parameter grid.
// ---------------------------------------------------------------------------

struct BurstCase {
  double period;
  double burst;
  double fs;
  double seconds;
};

class BurstDetection : public ::testing::TestWithParam<BurstCase> {};

TEST_P(BurstDetection, RecoversPeriodWithinOneBin) {
  const auto& c = GetParam();
  const auto x = bursty_signal(c.period, c.burst, c.fs, c.seconds);
  const auto s = sig::compute_spectrum(x, c.fs);
  const auto a = core::analyze_spectrum(s);
  ASSERT_TRUE(a.dominant_frequency.has_value())
      << "period=" << c.period << " burst=" << c.burst;
  EXPECT_NEAR(*a.dominant_frequency, 1.0 / c.period, s.frequency_step());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BurstDetection,
    ::testing::Values(BurstCase{10.0, 1.0, 1.0, 200.0},
                      BurstCase{10.0, 5.0, 1.0, 200.0},
                      BurstCase{25.0, 2.0, 1.0, 500.0},
                      BurstCase{50.0, 10.0, 1.0, 1000.0},
                      BurstCase{100.0, 10.0, 0.5, 2000.0},
                      BurstCase{8.0, 0.5, 10.0, 160.0},
                      BurstCase{111.67, 11.0, 10.0, 781.0},   // Fig. 2 shape
                      BurstCase{25.73, 1.0, 10.0, 380.0},     // Fig. 10 shape
                      BurstCase{4642.1, 300.0, 0.00625, 55000.0}  // Fig. 11
                      ));

class BurstDetectionNoisy : public ::testing::TestWithParam<double> {};

TEST_P(BurstDetectionNoisy, SurvivesUniformNoiseFloor) {
  const double noise = GetParam();
  const auto x = bursty_signal(20.0, 2.0, 1.0, 600.0, 10.0, noise, 99);
  const auto s = sig::compute_spectrum(x, 1.0);
  const auto a = core::analyze_spectrum(s);
  ASSERT_TRUE(a.dominant_frequency.has_value()) << "noise=" << noise;
  EXPECT_NEAR(*a.dominant_frequency, 0.05, s.frequency_step());
}

INSTANTIATE_TEST_SUITE_P(NoiseLevels, BurstDetectionNoisy,
                         ::testing::Values(0.0, 0.5, 1.0, 2.0));
