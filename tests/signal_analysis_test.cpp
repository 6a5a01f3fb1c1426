#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <span>
#include <utility>
#include <vector>

#include "signal/autocorrelation.hpp"
#include "signal/peaks.hpp"
#include "signal/spectrum.hpp"
#include "signal/step_function.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace sig = ftio::signal;

namespace {

/// Sampled cosine at frequency `f` Hz, amplitude 1, over `seconds` at `fs`.
std::vector<double> cosine(double f, double fs, double seconds,
                           double offset = 0.0) {
  const auto n = static_cast<std::size_t>(seconds * fs);
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / fs;
    x[i] = offset + std::cos(2.0 * std::numbers::pi * f * t);
  }
  return x;
}

/// SciPy's all-pairs distance filter: repeatedly keep the highest
/// remaining peak (stable on ties) and drop every peak closer than
/// `distance` samples that is not higher.
std::vector<sig::Peak> all_pairs_distance(std::vector<sig::Peak> peaks,
                                          std::size_t distance) {
  std::vector<std::size_t> order(peaks.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return peaks[a].height > peaks[b].height;
                   });
  std::vector<bool> keep(peaks.size(), true);
  for (std::size_t rank : order) {
    if (!keep[rank]) continue;
    for (std::size_t j = 0; j < peaks.size(); ++j) {
      if (j == rank || !keep[j]) continue;
      const auto a = peaks[rank].index;
      const auto b = peaks[j].index;
      const std::size_t gap = a > b ? a - b : b - a;
      if (gap < distance && peaks[j].height <= peaks[rank].height) {
        keep[j] = false;
      }
    }
  }
  std::vector<sig::Peak> kept;
  for (std::size_t i = 0; i < peaks.size(); ++i) {
    if (keep[i]) kept.push_back(peaks[i]);
  }
  return kept;
}

/// find_peaks the slow, obvious way: every local maximum materialised,
/// then the height and threshold filters as separate passes over the
/// stored peaks, then the all-pairs distance filter.
std::vector<sig::Peak> reference_find_peaks(std::span<const double> v,
                                            const sig::PeakOptions& options) {
  std::vector<sig::Peak> peaks;
  if (v.size() < 3) return peaks;
  std::vector<std::size_t> maxima;
  const std::size_t n = v.size();
  std::size_t i = 1;
  while (i + 1 < n) {
    if (v[i - 1] < v[i]) {
      std::size_t ahead = i + 1;
      while (ahead + 1 < n && v[ahead] == v[i]) ++ahead;
      if (v[ahead] < v[i]) {
        maxima.push_back((i + ahead - 1) / 2);
        i = ahead;
        continue;
      }
    }
    ++i;
  }
  for (std::size_t idx : maxima) {
    sig::Peak p;
    p.index = idx;
    p.height = v[idx];
    peaks.push_back(p);
  }
  if (options.min_height) {
    std::erase_if(peaks, [&](const sig::Peak& p) {
      return p.height < *options.min_height;
    });
  }
  if (options.min_threshold) {
    std::erase_if(peaks, [&](const sig::Peak& p) {
      const double left = p.height - v[p.index - 1];
      const double right = p.height - v[p.index + 1];
      return std::min(left, right) < *options.min_threshold;
    });
  }
  if (options.min_distance && *options.min_distance > 1) {
    peaks = all_pairs_distance(std::move(peaks), *options.min_distance);
  }
  return peaks;
}

}  // namespace

// ---------------------------------------------------------------------------
// Spectrum
// ---------------------------------------------------------------------------

TEST(Spectrum, FrequencyAxisFollowsFsOverN) {
  const auto x = cosine(1.0, 8.0, 4.0);  // N = 32
  const auto s = sig::compute_spectrum(x, 8.0);
  ASSERT_EQ(s.frequencies.size(), 17u);  // N/2 + 1
  EXPECT_DOUBLE_EQ(s.frequencies[0], 0.0);
  EXPECT_DOUBLE_EQ(s.frequencies[1], 0.25);  // fs/N = 8/32
  EXPECT_DOUBLE_EQ(s.frequencies.back(), 4.0);
  EXPECT_DOUBLE_EQ(s.frequency_step(), 0.25);
  EXPECT_EQ(s.inspected_bins(), 16u);
}

TEST(Spectrum, PureToneDominatesItsBin) {
  // 0.5 Hz tone sampled at 8 Hz for 32 s -> bin 16 of 256 samples.
  const auto x = cosine(0.5, 8.0, 32.0, 2.0);
  const auto s = sig::compute_spectrum(x, 8.0);
  std::size_t best = 1;
  for (std::size_t k = 2; k < s.power.size(); ++k) {
    if (s.power[k] > s.power[best]) best = k;
  }
  EXPECT_NEAR(s.frequencies[best], 0.5, 1e-9);
}

TEST(Spectrum, DcBinCapturesOffset) {
  std::vector<double> x(64, 3.0);
  const auto s = sig::compute_spectrum(x, 1.0);
  EXPECT_NEAR(std::hypot(s.bin_re[0], s.bin_im[0]), 3.0 * 64.0, 1e-9);
  for (std::size_t k = 1; k < s.bin_re.size(); ++k) {
    EXPECT_NEAR(std::hypot(s.bin_re[k], s.bin_im[k]), 0.0, 1e-9);
  }
}

TEST(Spectrum, NormedPowerSumsToOne) {
  const auto x = cosine(0.25, 4.0, 64.0, 1.0);
  const auto s = sig::compute_spectrum(x, 4.0);
  double total = 0.0;
  for (double p : s.normed_power) total += p;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Spectrum, PowerIsAmplitudeSquaredOverN) {
  const auto x = cosine(0.25, 4.0, 16.0, 1.0);
  const auto s = sig::compute_spectrum(x, 4.0);
  for (std::size_t k = 0; k < s.power.size(); ++k) {
    const double amplitude = std::hypot(s.bin_re[k], s.bin_im[k]);
    EXPECT_NEAR(s.power[k],
                amplitude * amplitude / static_cast<double>(x.size()), 1e-9);
  }
}

TEST(Spectrum, ParsevalEnergyConservation) {
  // Parseval over the single-sided layout: sum_n x_n^2 must equal the
  // total single-sided power p_0 [+ p_{N/2} for even N] + 2*sum of the
  // interior bins (each interior bin owns a conjugate twin that the
  // packed half-spectrum transform never materialises). Checked for even
  // and odd N so the Nyquist-bin bookkeeping is exercised both ways.
  for (std::size_t n : {32u, 33u, 97u, 360u, 1024u}) {
    std::vector<double> x(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double t = static_cast<double>(i);
      x[i] = 2.5 + std::cos(0.37 * t) + 0.5 * std::sin(1.13 * t + 0.2);
    }
    const auto s = sig::compute_spectrum(x, 4.0);

    double time_energy = 0.0;
    for (double v : x) time_energy += v * v;

    const std::size_t half = n / 2;
    double freq_energy = s.power[0];
    for (std::size_t k = 1; k <= half; ++k) {
      const bool has_twin = !(n % 2 == 0 && k == half);
      freq_energy += (has_twin ? 2.0 : 1.0) * s.power[k];
    }
    EXPECT_NEAR(freq_energy, time_energy, 1e-8 * time_energy)
        << "n = " << n;
  }
}

TEST(Spectrum, ParsevalHoldsAcrossBlockedBitrevThreshold) {
  // Large power-of-two spectrum: the packed real transform inside
  // compute_spectrum runs a 2^17-point half transform, crossing the
  // cache-blocked bit-reversal threshold, and the whole path is planar
  // end-to-end. Parseval over the single-sided layout pins it.
  const std::size_t n = std::size_t{1} << 18;
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i);
    x[i] = 1.25 + std::cos(0.0037 * t) + 0.25 * std::sin(0.41 * t + 0.7);
  }
  const auto s = sig::compute_spectrum(x, 10.0);

  double time_energy = 0.0;
  for (double v : x) time_energy += v * v;

  const std::size_t half = n / 2;
  double freq_energy = s.power[0] + s.power[half];
  for (std::size_t k = 1; k < half; ++k) freq_energy += 2.0 * s.power[k];
  EXPECT_NEAR(freq_energy, time_energy, 1e-8 * time_energy);
}

TEST(Spectrum, RejectsBadArguments) {
  EXPECT_THROW(sig::compute_spectrum(std::vector<double>{}, 1.0),
               ftio::util::InvalidArgument);
  EXPECT_THROW(sig::compute_spectrum(std::vector<double>{1.0}, 0.0),
               ftio::util::InvalidArgument);
}

TEST(Spectrum, ReconstructionMatchesEq1) {
  // Sum of all single-sided waves must reproduce the original signal.
  const double fs = 4.0;
  std::vector<double> x = cosine(0.5, fs, 8.0, 5.0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] += 0.4 * std::cos(2.0 * std::numbers::pi * 1.0 *
                           (static_cast<double>(i) / fs));
  }
  const auto s = sig::compute_spectrum(x, fs);
  std::vector<sig::CosineWave> waves;
  for (std::size_t k = 1; k < s.frequencies.size(); ++k) {
    waves.push_back(sig::wave_for_bin(s, k));
  }
  const double dc = sig::wave_for_bin(s, 0).amplitude *
                    std::cos(sig::wave_for_bin(s, 0).phase);
  const auto rebuilt = sig::synthesize(waves, dc, fs, x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(rebuilt[i], x[i], 1e-6) << "sample " << i;
  }
}

TEST(Spectrum, EvenLengthNyquistRoundTripIsExact) {
  // Energy exactly at the Nyquist bin: x alternates sign each sample. For
  // even N the Nyquist bin, like DC, has no conjugate twin, so Eq. (1)
  // must not double it — the round trip is then exact to rounding.
  const double fs = 4.0;
  const std::size_t n = 32;
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / fs;
    x[i] = 5.0 + std::cos(2.0 * std::numbers::pi * 0.5 * t) +
           0.7 * std::cos(2.0 * std::numbers::pi * 2.0 * t);  // fs/2 tone
  }
  const auto s = sig::compute_spectrum(x, fs);
  ASSERT_EQ(s.frequencies.size(), n / 2 + 1);
  std::vector<sig::CosineWave> waves;
  for (std::size_t k = 1; k < s.frequencies.size(); ++k) {
    waves.push_back(sig::wave_for_bin(s, k));
  }
  // The Nyquist wave carries the bare |X_k|/N amplitude.
  EXPECT_NEAR(waves.back().amplitude, 0.7, 1e-9);
  const double dc = sig::wave_for_bin(s, 0).amplitude *
                    std::cos(sig::wave_for_bin(s, 0).phase);
  const auto rebuilt = sig::synthesize(waves, dc, fs, n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(rebuilt[i], x[i], 1e-12) << "sample " << i;
  }
}

// ---------------------------------------------------------------------------
// StepFunction
// ---------------------------------------------------------------------------

TEST(StepFunction, ValueLookup) {
  sig::StepFunction f({0.0, 1.0, 3.0}, {2.0, 5.0});
  EXPECT_DOUBLE_EQ(f.value_at(-0.1), 0.0);
  EXPECT_DOUBLE_EQ(f.value_at(0.0), 2.0);
  EXPECT_DOUBLE_EQ(f.value_at(0.999), 2.0);
  EXPECT_DOUBLE_EQ(f.value_at(1.0), 5.0);
  EXPECT_DOUBLE_EQ(f.value_at(2.5), 5.0);
  EXPECT_DOUBLE_EQ(f.value_at(3.0), 0.0);  // right-open support
}

TEST(StepFunction, IntegralExact) {
  sig::StepFunction f({0.0, 1.0, 3.0}, {2.0, 5.0});
  EXPECT_DOUBLE_EQ(f.total_integral(), 2.0 + 10.0);
  EXPECT_DOUBLE_EQ(f.integral(0.5, 2.0), 1.0 + 5.0);
  EXPECT_DOUBLE_EQ(f.integral(-5.0, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(f.integral(2.0, 99.0), 5.0);
  EXPECT_DOUBLE_EQ(f.integral(2.0, 2.0), 0.0);
}

TEST(StepFunction, ValidatesConstruction) {
  EXPECT_THROW(sig::StepFunction({0.0, 1.0}, {1.0, 2.0}),
               ftio::util::InvalidArgument);
  EXPECT_THROW(sig::StepFunction({1.0, 1.0}, {2.0}),
               ftio::util::InvalidArgument);
  EXPECT_THROW(sig::StepFunction({2.0, 1.0}, {2.0}),
               ftio::util::InvalidArgument);
}

TEST(StepFunction, EmptyBehaviour) {
  sig::StepFunction f;
  EXPECT_TRUE(f.empty());
  EXPECT_DOUBLE_EQ(f.value_at(1.0), 0.0);
  EXPECT_DOUBLE_EQ(f.total_integral(), 0.0);
  EXPECT_DOUBLE_EQ(f.max_value(), 0.0);
}

TEST(StepFunction, MaxValue) {
  sig::StepFunction f({0.0, 1.0, 2.0, 3.0}, {1.0, 9.0, 4.0});
  EXPECT_DOUBLE_EQ(f.max_value(), 9.0);
}

TEST(StepFunction, TrimFrontDropsPrefixBitExact) {
  sig::StepFunction f({0.0, 1.0, 2.0, 3.0, 4.0}, {1.5, 9.25, 4.125, 7.0});
  f.trim_front(2);
  ASSERT_EQ(f.segment_count(), 2u);
  EXPECT_DOUBLE_EQ(f.start_time(), 2.0);
  EXPECT_DOUBLE_EQ(f.end_time(), 4.0);
  // Retained entries are the exact same doubles, evicted times read as 0.
  EXPECT_EQ(f.times()[0], 2.0);
  EXPECT_EQ(f.values()[0], 4.125);
  EXPECT_EQ(f.values()[1], 7.0);
  EXPECT_DOUBLE_EQ(f.value_at(1.5), 0.0);
  EXPECT_DOUBLE_EQ(f.value_at(2.5), 4.125);
}

TEST(StepFunction, TrimFrontZeroIsNoop) {
  sig::StepFunction f({0.0, 1.0, 2.0}, {3.0, 4.0});
  f.trim_front(0);
  EXPECT_EQ(f.segment_count(), 2u);
  EXPECT_DOUBLE_EQ(f.start_time(), 0.0);
}

TEST(StepFunction, ShrinkToFitPreservesContents) {
  std::vector<double> times{0.0, 1.0, 2.0, 3.0, 4.0, 5.0};
  std::vector<double> values{1.0, 2.0, 3.0, 4.0, 5.0};
  times.reserve(1000);
  values.reserve(1000);
  sig::StepFunction f(std::move(times), std::move(values));
  const std::size_t before = f.memory_bytes();
  f.trim_front(3);
  f.shrink_to_fit();
  EXPECT_LT(f.memory_bytes(), before);
  EXPECT_DOUBLE_EQ(f.value_at(3.5), 4.0);
  EXPECT_DOUBLE_EQ(f.value_at(4.5), 5.0);
}

// ---------------------------------------------------------------------------
// Discretisation
// ---------------------------------------------------------------------------

TEST(Discretize, PointSamplingMatchesDefinition) {
  sig::StepFunction f({0.0, 1.0, 2.0}, {4.0, 8.0});
  const auto d = sig::discretize(f, 2.0);
  // Samples at t = 0, 0.5, 1.0, 1.5.
  ASSERT_EQ(d.samples.size(), 4u);
  EXPECT_DOUBLE_EQ(d.samples[0], 4.0);
  EXPECT_DOUBLE_EQ(d.samples[1], 4.0);
  EXPECT_DOUBLE_EQ(d.samples[2], 8.0);
  EXPECT_DOUBLE_EQ(d.samples[3], 8.0);
  EXPECT_NEAR(d.abstraction_error, 0.0, 1e-12);
}

TEST(Discretize, BinAverageIntegratesBins) {
  sig::StepFunction f({0.0, 0.5, 1.0}, {2.0, 6.0});
  const auto d = sig::discretize(f, 1.0, sig::SamplingMode::kBinAverage);
  ASSERT_EQ(d.samples.size(), 1u);
  EXPECT_DOUBLE_EQ(d.samples[0], 4.0);
}

TEST(Discretize, UnderSamplingInflatesAbstractionError) {
  // A 1 ms burst of 1000 units: sampling at 1 Hz either misses it entirely
  // or wildly overestimates the volume -> abstraction error near 1 or huge.
  sig::StepFunction f({0.0, 0.001, 10.0}, {1000.0, 0.0});
  const auto coarse = sig::discretize(f, 1.0);
  EXPECT_GT(coarse.abstraction_error, 0.5);
  // Sampling well above the burst rate recovers the volume.
  const auto fine = sig::discretize(f, 10000.0);
  EXPECT_LT(fine.abstraction_error, 0.05);
}

TEST(Discretize, SampleCountIsCeilOfDurationTimesFs) {
  sig::StepFunction f({0.0, 2.5}, {1.0});
  EXPECT_EQ(sig::discretize(f, 2.0).samples.size(), 5u);
  EXPECT_EQ(sig::discretize(f, 1.0).samples.size(), 3u);  // ceil(2.5)
}

TEST(Discretize, NonZeroStartTimeHandled) {
  sig::StepFunction f({10.0, 11.0, 12.0}, {3.0, 7.0});
  const auto d = sig::discretize(f, 1.0);
  ASSERT_EQ(d.samples.size(), 2u);
  EXPECT_DOUBLE_EQ(d.start_time, 10.0);
  EXPECT_DOUBLE_EQ(d.samples[0], 3.0);
  EXPECT_DOUBLE_EQ(d.samples[1], 7.0);
}

TEST(Discretize, RejectsBadArguments) {
  sig::StepFunction f({0.0, 1.0}, {1.0});
  EXPECT_THROW(sig::discretize(f, 0.0), ftio::util::InvalidArgument);
  EXPECT_THROW(sig::discretize(sig::StepFunction{}, 1.0),
               ftio::util::InvalidArgument);
}

// ---------------------------------------------------------------------------
// Autocorrelation
// ---------------------------------------------------------------------------

TEST(Autocorrelation, LagZeroIsOne) {
  const auto x = cosine(0.5, 8.0, 16.0, 1.0);
  const auto acf = sig::autocorrelation(x);
  EXPECT_NEAR(acf[0], 1.0, 1e-12);
}

TEST(Autocorrelation, ValuesBoundedByOne) {
  const auto x = cosine(0.3, 4.0, 50.0, 2.0);
  for (double v : sig::autocorrelation(x)) {
    EXPECT_LE(std::abs(v), 1.0 + 1e-9);
  }
}

TEST(Autocorrelation, PeriodicSignalPeaksAtPeriod) {
  // 0.25 Hz tone at fs = 8 Hz -> period of 32 samples.
  const auto x = cosine(0.25, 8.0, 64.0);
  const auto acf = sig::autocorrelation(x);
  const auto peaks = sig::find_peaks(acf, {.min_height = 0.5});
  ASSERT_FALSE(peaks.empty());
  EXPECT_NEAR(static_cast<double>(peaks.front().index), 32.0, 1.0);
}

TEST(Autocorrelation, CenteredVariantRemovesDc) {
  std::vector<double> x(128, 5.0);  // constant signal
  const auto raw = sig::autocorrelation(x);
  // Raw ACF of a constant stays ~1 at every lag0-normalised shifted overlap.
  EXPECT_GT(raw[10], 0.8);
  const auto centered = sig::autocorrelation_centered(x);
  EXPECT_NEAR(centered[10], 0.0, 1e-9);
}

TEST(Autocorrelation, EmptyThrows) {
  EXPECT_THROW(sig::autocorrelation(std::vector<double>{}),
               ftio::util::InvalidArgument);
}

TEST(Autocorrelation, MatchesDirectComputation) {
  const auto x = cosine(0.4, 4.0, 10.0, 0.5);
  const auto fast = sig::autocorrelation(x);
  // Direct O(N^2) reference.
  const std::size_t n = x.size();
  std::vector<double> direct(n, 0.0);
  for (std::size_t lag = 0; lag < n; ++lag) {
    for (std::size_t i = 0; i + lag < n; ++i) direct[lag] += x[i] * x[i + lag];
  }
  for (std::size_t lag = 1; lag < n; ++lag) direct[lag] /= direct[0];
  direct[0] = 1.0;
  for (std::size_t lag = 0; lag < n; ++lag) {
    EXPECT_NEAR(fast[lag], direct[lag], 1e-9) << "lag " << lag;
  }
}

TEST(Autocorrelation, ManyMatchesLoopedBitForBit) {
  // autocorrelation_many batches same-convolution-size signals through
  // the plan's stage-major batched execution; every row must equal the
  // per-signal call exactly — including mixed lengths that share one
  // padded size, lengths in their own group, and a thread-fanned run.
  std::vector<std::vector<double>> signals;
  for (std::size_t i = 0; i < 9; ++i) {
    signals.push_back(cosine(0.1 + 0.07 * static_cast<double>(i), 4.0,
                             i < 6 ? 100.0 : 75.0,
                             0.1 * static_cast<double>(i)));
  }
  signals.push_back(std::vector<double>(5, 1.25));  // tiny, own group
  std::vector<std::span<const double>> views(signals.begin(), signals.end());

  for (const unsigned threads : {1u, 3u}) {
    const auto batch = sig::autocorrelation_many(views, threads);
    ASSERT_EQ(batch.size(), signals.size());
    for (std::size_t i = 0; i < signals.size(); ++i) {
      const auto want = sig::autocorrelation(signals[i]);
      ASSERT_EQ(batch[i].size(), want.size()) << "signal " << i;
      for (std::size_t lag = 0; lag < want.size(); ++lag) {
        ASSERT_EQ(batch[i][lag], want[lag])
            << "threads=" << threads << " signal " << i << " lag " << lag;
      }
    }
  }
}

TEST(Spectrum, ComputeSpectraMatchesLoopedBitForBit) {
  // The batched multi-window spectrum path: grouped same-length windows
  // (both a power-of-two and a non-power-of-two length) plus a singleton
  // group, against per-window compute_spectrum, at two thread counts.
  std::vector<std::vector<double>> windows;
  for (std::size_t i = 0; i < 7; ++i) {
    windows.push_back(cosine(0.2 + 0.05 * static_cast<double>(i), 8.0,
                             i < 5 ? 128.0 : 90.0,
                             0.3 * static_cast<double>(i)));
  }
  windows.push_back(cosine(0.4, 8.0, 33.5));  // singleton group
  std::vector<std::span<const double>> views(windows.begin(), windows.end());

  for (const unsigned threads : {1u, 3u}) {
    const auto batch = sig::compute_spectra(views, 8.0, threads);
    ASSERT_EQ(batch.size(), windows.size());
    for (std::size_t i = 0; i < windows.size(); ++i) {
      const auto want = sig::compute_spectrum(windows[i], 8.0);
      ASSERT_EQ(batch[i].total_samples, want.total_samples);
      ASSERT_EQ(batch[i].bin_re.size(), want.bin_re.size());
      for (std::size_t k = 0; k < want.bin_re.size(); ++k) {
        ASSERT_EQ(batch[i].bin_re[k], want.bin_re[k])
            << "threads=" << threads << " window " << i << " bin " << k;
        ASSERT_EQ(batch[i].bin_im[k], want.bin_im[k])
            << "threads=" << threads << " window " << i << " bin " << k;
        ASSERT_EQ(batch[i].power[k], want.power[k])
            << "threads=" << threads << " window " << i << " bin " << k;
        ASSERT_EQ(batch[i].normed_power[k], want.normed_power[k])
            << "threads=" << threads << " window " << i << " bin " << k;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// find_peaks
// ---------------------------------------------------------------------------

TEST(FindPeaks, DetectsSimpleMaxima) {
  const std::vector<double> v{0, 1, 0, 2, 0, 3, 0};
  const auto peaks = sig::find_peaks(v);
  ASSERT_EQ(peaks.size(), 3u);
  EXPECT_EQ(peaks[0].index, 1u);
  EXPECT_EQ(peaks[1].index, 3u);
  EXPECT_EQ(peaks[2].index, 5u);
}

TEST(FindPeaks, EndpointsAreNotPeaks) {
  const std::vector<double> v{5, 1, 0, 1, 9};
  const auto peaks = sig::find_peaks(v);
  EXPECT_TRUE(peaks.empty());
}

TEST(FindPeaks, PlateauReportsMiddle) {
  const std::vector<double> v{0, 1, 2, 2, 2, 1, 0};
  const auto peaks = sig::find_peaks(v);
  ASSERT_EQ(peaks.size(), 1u);
  EXPECT_EQ(peaks[0].index, 3u);
}

TEST(FindPeaks, HeightFilter) {
  const std::vector<double> v{0, 1, 0, 5, 0};
  const auto peaks = sig::find_peaks(v, {.min_height = 2.0});
  ASSERT_EQ(peaks.size(), 1u);
  EXPECT_EQ(peaks[0].index, 3u);
}

TEST(FindPeaks, ThresholdFilter) {
  // Peak at 3 rises only 0.5 above its neighbours.
  const std::vector<double> v{0, 2.0, 1.5, 2.0, 0, 5, 0};
  const auto peaks = sig::find_peaks(v, {.min_threshold = 1.0});
  ASSERT_EQ(peaks.size(), 1u);
  EXPECT_EQ(peaks[0].index, 5u);
}

TEST(FindPeaks, DistanceFilterKeepsHighest) {
  // Peaks at 1 (h=3), 3 (h=5), 5 (h=4); distance 3 removes both neighbours
  // of the tallest peak (gaps of 2 samples).
  const std::vector<double> v{0, 3, 0, 5, 0, 4, 0};
  const auto peaks = sig::find_peaks(v, {.min_distance = 3});
  ASSERT_EQ(peaks.size(), 1u);
  EXPECT_EQ(peaks[0].index, 3u);
}

TEST(FindPeaks, DistanceFilterKeepsFarApartPeaks) {
  const std::vector<double> v{0, 3, 0, 0, 0, 4, 0};
  const auto peaks = sig::find_peaks(v, {.min_distance = 3});
  ASSERT_EQ(peaks.size(), 2u);
  EXPECT_EQ(peaks[0].index, 1u);
  EXPECT_EQ(peaks[1].index, 5u);
}

TEST(FindPeaks, DistanceFilterMatchesAllPairsReference) {
  // The distance filter scans index-neighbours only; it must keep exactly
  // the peaks of SciPy's all-pairs formulation (all_pairs_distance), on
  // signals built from a few discrete levels so plateaus and equal-height
  // peaks are common, on long decaying signals, and with NaN samples.

  ftio::util::Rng rng(1234);
  for (int trial = 0; trial < 600; ++trial) {
    // Trials 0-399: short level signals; 400-599: up to 3000 samples, half
    // of them decaying like an ACF, some with NaNs.
    const bool long_signal = trial >= 400;
    const auto n = static_cast<std::size_t>(
        rng.uniform_int(3, long_signal ? 3000 : 400));
    const auto levels = rng.uniform_int(2, 6);
    const double plateau = rng.uniform(0.0, 0.6);
    const bool decaying = long_signal && trial % 2 == 0;
    const double nan_share = long_signal && trial % 3 == 0 ? 0.01 : 0.0;
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = i > 0 && rng.uniform(0.0, 1.0) < plateau
                 ? v[i - 1]
                 : static_cast<double>(rng.uniform_int(0, levels));
      if (decaying) {
        v[i] *= std::exp(-3.0 * static_cast<double>(i) /
                         static_cast<double>(n));
      }
      if (nan_share > 0.0 && rng.uniform(0.0, 1.0) < nan_share) {
        v[i] = std::numeric_limits<double>::quiet_NaN();
      }
    }
    const auto distance = static_cast<std::size_t>(rng.uniform_int(2, 50));

    const auto all = sig::find_peaks(v);
    const auto want = all_pairs_distance(all, distance);
    const auto got = sig::find_peaks(v, {.min_distance = distance});
    ASSERT_EQ(got.size(), want.size())
        << "trial " << trial << " n=" << n << " distance=" << distance;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].index, want[i].index) << "trial " << trial;
      EXPECT_EQ(got[i].height, want[i].height) << "trial " << trial;
    }
  }
}

TEST(FindPeaks, OnePassScanMatchesMaterialiseThenFilter) {
  // find_peaks applies the height and threshold filters inside its
  // plateau scan. It must return what reference_find_peaks returns by
  // storing every maximum and filtering afterwards: same indices and
  // bit-equal heights, for all 8 combinations of the three options, on
  // level signals with plateaus, NaN and +-inf samples (and NaN or +-inf
  // option values now and then).
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kSpecial[] = {kNaN, kInf, -kInf};
  ftio::util::Rng rng(4321);
  const auto option_value = [&](double lo, double hi) {
    const auto pick = rng.uniform_int(0, 15);
    return pick < 3 ? kSpecial[pick] : rng.uniform(lo, hi);
  };
  for (int trial = 0; trial < 3200; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 300));
    const auto levels = static_cast<double>(rng.uniform_int(1, 6));
    const double plateau = rng.uniform(0.0, 0.6);
    const double special = trial % 3 == 0 ? 0.0 : rng.uniform(0.0, 0.1);
    const double jitter = trial % 2 == 0 ? 0.0 : 0.5;
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (i > 0 && rng.uniform(0.0, 1.0) < plateau) {
        v[i] = v[i - 1];
      } else if (rng.uniform(0.0, 1.0) < special) {
        v[i] = kSpecial[rng.uniform_int(0, 2)];
      } else {
        v[i] = static_cast<double>(rng.uniform_int(0, 6)) * levels / 6.0 +
               rng.uniform(-jitter, jitter);
      }
    }
    const int mask = trial % 8;
    sig::PeakOptions options;
    if ((mask & 1) != 0) options.min_height = option_value(-1.0, levels + 1.0);
    if ((mask & 2) != 0) options.min_threshold = option_value(-1.0, 3.0);
    if ((mask & 4) != 0) {
      options.min_distance = static_cast<std::size_t>(rng.uniform_int(0, 20));
    }

    const auto want = reference_find_peaks(v, options);
    const auto got = sig::find_peaks(v, options);
    ASSERT_EQ(got.size(), want.size()) << "trial " << trial << " n=" << n;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].index, want[i].index) << "trial " << trial;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].height),
                std::bit_cast<std::uint64_t>(want[i].height))
          << "trial " << trial;
    }
  }
}

TEST(FindPeaks, ShortInputHasNoPeaks) {
  EXPECT_TRUE(sig::find_peaks(std::vector<double>{1.0, 2.0}).empty());
  EXPECT_TRUE(sig::find_peaks(std::vector<double>{}).empty());
}
