#include "signal/fft.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "signal/plan.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace sig = ftio::signal;
using sig::Complex;

namespace {

std::vector<Complex> random_signal(std::size_t n, std::uint64_t seed) {
  ftio::util::Rng rng(seed);
  std::vector<Complex> v(n);
  for (auto& c : v) c = Complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
  return v;
}

/// Packed single-sided spectrum of a real signal (bins 0..N/2) from the
/// planar real transform, as complex bins.
std::vector<Complex> half_spectrum(const std::vector<double>& x) {
  const std::size_t bins = x.size() / 2 + 1;
  std::vector<double> re(bins), im(bins);
  sig::rfft_half_planar_into(x, re, im);
  std::vector<Complex> out(bins);
  for (std::size_t k = 0; k < bins; ++k) out[k] = Complex(re[k], im[k]);
  return out;
}

std::vector<Complex> complexify(const std::vector<double>& x) {
  std::vector<Complex> c(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) c[i] = Complex(x[i], 0.0);
  return c;
}

double max_abs_diff(const std::vector<Complex>& a,
                    const std::vector<Complex>& b) {
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) d = std::max(d, std::abs(a[i] - b[i]));
  return d;
}

}  // namespace

TEST(Fft, PowerOfTwoHelpers) {
  EXPECT_TRUE(sig::is_power_of_two(1));
  EXPECT_TRUE(sig::is_power_of_two(2));
  EXPECT_TRUE(sig::is_power_of_two(1024));
  EXPECT_FALSE(sig::is_power_of_two(0));
  EXPECT_FALSE(sig::is_power_of_two(3));
  EXPECT_FALSE(sig::is_power_of_two(1000));
  EXPECT_EQ(sig::next_power_of_two(1), 1u);
  EXPECT_EQ(sig::next_power_of_two(5), 8u);
  EXPECT_EQ(sig::next_power_of_two(1024), 1024u);
  EXPECT_EQ(sig::next_power_of_two(1025), 2048u);
}

TEST(Fft, SizeOneIsIdentity) {
  const std::vector<Complex> x{Complex(3.0, -2.0)};
  const auto y = sig::fft(x);
  ASSERT_EQ(y.size(), 1u);
  EXPECT_NEAR(std::abs(y[0] - x[0]), 0.0, 1e-15);
}

TEST(Fft, EmptyInputThrows) {
  EXPECT_THROW(sig::fft(std::vector<Complex>{}), ftio::util::InvalidArgument);
  EXPECT_THROW(sig::ifft(std::vector<Complex>{}), ftio::util::InvalidArgument);
}

TEST(Fft, ImpulseHasFlatSpectrum) {
  std::vector<Complex> x(16, Complex(0.0, 0.0));
  x[0] = Complex(1.0, 0.0);
  const auto y = sig::fft(x);
  for (const auto& v : y) EXPECT_NEAR(std::abs(v - Complex(1.0, 0.0)), 0.0, 1e-12);
}

TEST(Fft, ConstantSignalIsDcOnly) {
  std::vector<Complex> x(32, Complex(2.0, 0.0));
  const auto y = sig::fft(x);
  EXPECT_NEAR(std::abs(y[0] - Complex(64.0, 0.0)), 0.0, 1e-10);
  for (std::size_t k = 1; k < y.size(); ++k) EXPECT_NEAR(std::abs(y[k]), 0.0, 1e-10);
}

TEST(Fft, SingleToneLandsInCorrectBin) {
  // cos(2*pi*5*n/64): bin 5 gets N/2 (and its mirror bin 59, which the
  // packed single-sided spectrum does not store).
  const std::size_t n = 64;
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::cos(2.0 * std::numbers::pi * 5.0 * static_cast<double>(i) /
                    static_cast<double>(n));
  }
  const auto y = half_spectrum(x);
  ASSERT_EQ(y.size(), n / 2 + 1);
  EXPECT_NEAR(std::abs(y[5]), static_cast<double>(n) / 2.0, 1e-9);
  for (std::size_t k = 0; k < y.size(); ++k) {
    if (k != 5) {
      EXPECT_NEAR(std::abs(y[k]), 0.0, 1e-9);
    }
  }
}

TEST(Fft, RealInputSpectrumIsConjugateSymmetric) {
  ftio::util::Rng rng(3);
  std::vector<double> x(100);  // non power of two -> Bluestein path
  for (auto& v : x) v = rng.uniform(0.0, 10.0);
  // The full complex spectrum's upper half mirrors the packed real bins.
  const auto y = sig::fft(complexify(x));
  const auto half = half_spectrum(x);
  for (std::size_t k = 1; k < half.size(); ++k) {
    EXPECT_NEAR(std::abs(y[k] - std::conj(y[x.size() - k])), 0.0, 1e-8);
    EXPECT_NEAR(std::abs(half[k] - std::conj(y[x.size() - k])), 0.0, 1e-8);
  }
}

TEST(Fft, LinearityHolds) {
  const auto a = random_signal(128, 10);
  const auto b = random_signal(128, 11);
  std::vector<Complex> sum(128);
  for (std::size_t i = 0; i < 128; ++i) sum[i] = 2.0 * a[i] + 3.0 * b[i];
  const auto fa = sig::fft(a);
  const auto fb = sig::fft(b);
  const auto fsum = sig::fft(sum);
  for (std::size_t i = 0; i < 128; ++i) {
    EXPECT_NEAR(std::abs(fsum[i] - (2.0 * fa[i] + 3.0 * fb[i])), 0.0, 1e-9);
  }
}

TEST(Fft, ParsevalTheoremHolds) {
  const auto x = random_signal(256, 21);
  const auto y = sig::fft(x);
  double time_energy = 0.0;
  for (const auto& v : x) time_energy += std::norm(v);
  double freq_energy = 0.0;
  for (const auto& v : y) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / static_cast<double>(x.size()), time_energy, 1e-8);
}

class FftMatchesDirectDft : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftMatchesDirectDft, ForwardAgreesWithinTolerance) {
  const std::size_t n = GetParam();
  const auto x = random_signal(n, 1000 + n);
  const auto fast = sig::fft(x);
  const auto direct = sig::dft_direct(x);
  EXPECT_LT(max_abs_diff(fast, direct), 1e-7 * static_cast<double>(n));
}

TEST_P(FftMatchesDirectDft, RoundTripRecoversSignal) {
  const std::size_t n = GetParam();
  const auto x = random_signal(n, 2000 + n);
  const auto back = sig::ifft(sig::fft(x));
  ASSERT_EQ(back.size(), n);
  EXPECT_LT(max_abs_diff(back, x), 1e-9 * static_cast<double>(n) + 1e-10);
}

// Mix of power-of-two (radix-2 path), primes and composites (Bluestein).
INSTANTIATE_TEST_SUITE_P(Sizes, FftMatchesDirectDft,
                         ::testing::Values(2, 3, 4, 5, 7, 8, 12, 16, 17, 31,
                                           32, 45, 64, 97, 100, 128, 210, 256,
                                           257, 500));

TEST(Fft, LargeNonPowerOfTwoRoundTrip) {
  const std::size_t n = 7817;  // the IOR example's sample count (Sec. II-C)
  const auto x = random_signal(n, 7817);
  const auto back = sig::ifft(sig::fft(x));
  EXPECT_LT(max_abs_diff(back, x), 1e-6);
}

TEST(Fft, BluesteinMatchesRadix2OnCommonSize) {
  // Compare a power-of-two FFT against Bluestein evaluated via a padded
  // odd-size neighbour: embed the same tone and compare bin magnitudes.
  const std::size_t n = 64;
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::sin(2.0 * std::numbers::pi * 3.0 * static_cast<double>(i) /
                    static_cast<double>(n));
  }
  auto direct = sig::dft_direct(complexify(x));
  direct.resize(n / 2 + 1);
  const auto fast = half_spectrum(x);
  EXPECT_LT(max_abs_diff(fast, direct), 1e-8);
}
