#include "signal/plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <numbers>
#include <thread>
#include <vector>

#include "signal/autocorrelation.hpp"
#include "signal/fft.hpp"
#include "util/parallel.hpp"
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

std::vector<double> random_real(std::size_t n, std::uint64_t seed) {
  ftio::util::Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

/// Gathers planar lanes into complex values for comparison against the
/// interleaved oracles (dft_direct, radix2_scalar).
std::vector<Complex> from_lanes(const std::vector<double>& re,
                                const std::vector<double>& im) {
  std::vector<Complex> c(re.size());
  for (std::size_t i = 0; i < re.size(); ++i) c[i] = Complex(re[i], im[i]);
  return c;
}

/// Packed single-sided spectrum of a real signal as complex bins.
std::vector<Complex> half_spectrum(const std::vector<double>& x) {
  const std::size_t bins = x.size() / 2 + 1;
  std::vector<double> re(bins), im(bins);
  sig::rfft_half_planar_into(x, re, im);
  return from_lanes(re, im);
}

double max_abs_diff(const std::vector<Complex>& a,
                    const std::vector<Complex>& b) {
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    d = std::max(d, std::abs(a[i] - b[i]));
  }
  return d;
}

double max_abs(const std::vector<Complex>& a) {
  double m = 0.0;
  for (const auto& v : a) m = std::max(m, std::abs(v));
  return m;
}

/// The accuracy contract of FftPlan: every transform agrees with the
/// direct DFT to within 1e-12 of the largest output magnitude.
constexpr double kContract = 1e-12;

/// max |got - want| relative to max |want|.
double rel_err(const std::vector<Complex>& got,
               const std::vector<Complex>& want) {
  return max_abs_diff(got, want) / max_abs(want);
}

/// Real-lane form of rel_err.
double real_rel_err(const std::vector<double>& got,
                    const std::vector<double>& want) {
  double err = 0.0;
  double scale = 0.0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    err = std::max(err, std::abs(got[i] - want[i]));
    scale = std::max(scale, std::abs(want[i]));
  }
  return err / scale;
}

// Power-of-two, prime, and highly-composite sizes (the paper's 7817-sample
// IOR trace is prime).
const std::size_t kSizes[] = {1,  2,   4,   8,  16,  64,  256, 1024,
                              3,  5,   7,   31, 97,  101, 769,
                              6,  12,  60,  120, 360, 1000, 1260};

/// The sizes the accuracy contract is checked on: every N up to 512 (odd
/// and even, every residue of the direct, half-size and chirp-z paths),
/// N at the edges of the chirp-z length rule M = convolution_size(N +
/// bins - 1) — full output: 1279 needs 2557 <= 2560 = 5*2^9, 1281 needs
/// 2561 and gets 3072, 1537 needs 3073 and gets 4096; half output (odd
/// N, M >= N + N/2): 683 lands on 1024, 685 on 1280, 1365 on 2048, 1367
/// on 2560, 2047 on 3072, 2049 and 2731 on 4096 — larger sizes of each
/// kind from kSizes plus 4096, and the paper's prime 7817.
std::vector<std::size_t> contract_sizes() {
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 512; ++n) sizes.push_back(n);
  for (std::size_t n : {683u, 685u, 769u, 1000u, 1024u, 1260u, 1279u, 1281u,
                        1365u, 1367u, 1537u, 2047u, 2049u, 2731u, 4096u,
                        7817u}) {
    sizes.push_back(n);
  }
  return sizes;
}

/// The direct sizes r * 2^k (r = 3, 5) up to 5 * 2^12, ascending.
std::vector<std::size_t> radix_sizes() {
  std::vector<std::size_t> sizes;
  for (std::size_t r : {3u, 5u}) {
    for (std::size_t n = r; n <= 5u << 12; n <<= 1) sizes.push_back(n);
  }
  std::sort(sizes.begin(), sizes.end());
  return sizes;
}

/// Sizes for the batch bit-identity tests: every power of two up to 2^16
/// and every r * 2^k (r = 3, 5) up to 5 * 2^13.
std::vector<std::size_t> batch_sizes() {
  std::vector<std::size_t> sizes;
  for (std::size_t n = 2; n <= (std::size_t{1} << 16); n <<= 1) {
    sizes.push_back(n);
  }
  for (std::size_t r : {3u, 5u}) {
    for (std::size_t n = r; n <= 5u << 13; n <<= 1) sizes.push_back(n);
  }
  return sizes;
}

/// Autocorrelation by the O(N^2) direct sum, lag-0 normalised like
/// sig::autocorrelation.
std::vector<double> direct_acf(const std::vector<double>& x) {
  const std::size_t n = x.size();
  std::vector<double> acf(n, 0.0);
  for (std::size_t lag = 0; lag < n; ++lag) {
    double sum = 0.0;
    for (std::size_t i = 0; i + lag < n; ++i) sum += x[i] * x[i + lag];
    acf[lag] = sum;
  }
  const double lag0 = acf[0];
  for (auto& v : acf) v /= lag0;
  return acf;
}

/// One DFT bin by the direct sum, phase index reduced mod N exactly: the
/// oracle for sizes where the full O(N^2) dft_direct is too slow.
Complex direct_bin(const std::vector<Complex>& x, std::size_t k) {
  const std::size_t n = x.size();
  Complex acc(0.0, 0.0);
  std::size_t r = 0;  // k*j mod n
  for (std::size_t j = 0; j < n; ++j) {
    const double angle = -2.0 * std::numbers::pi * static_cast<double>(r) /
                         static_cast<double>(n);
    acc += x[j] * Complex(std::cos(angle), std::sin(angle));
    r = (r + k) % n;
  }
  return acc;
}

}  // namespace

TEST(FftPlan, PlanarMatchesDirectDft) {
  // The planar complex entry points and the vector fft/ifft against the
  // O(N^2) oracle, forward and inverse, plus the documented full-aliasing
  // in-place form, which must reproduce the out-of-place bits.
  for (std::size_t n : contract_sizes()) {
    const auto x = random_signal(n, 8100 + n);
    std::vector<double> in_re(n), in_im(n);
    for (std::size_t i = 0; i < n; ++i) {
      in_re[i] = x[i].real();
      in_im[i] = x[i].imag();
    }

    const auto want = sig::dft_direct(x);
    std::vector<double> out_re(n), out_im(n);
    sig::fft_planar_into(in_re, in_im, out_re, out_im);
    EXPECT_LE(rel_err(from_lanes(out_re, out_im), want), kContract)
        << "forward n = " << n;
    EXPECT_LE(rel_err(sig::fft(x), want), kContract) << "vector n = " << n;

    std::vector<double> io_re(in_re), io_im(in_im);
    sig::fft_planar_into(io_re, io_im, io_re, io_im);
    EXPECT_EQ(io_re, out_re) << "in-place re n = " << n;
    EXPECT_EQ(io_im, out_im) << "in-place im n = " << n;

    // Inverse oracle: ifft(x) = conj(dft(conj(x))) / N.
    std::vector<Complex> cx(n);
    for (std::size_t i = 0; i < n; ++i) cx[i] = std::conj(x[i]);
    auto want_inv = sig::dft_direct(cx);
    for (auto& v : want_inv) v = std::conj(v) / static_cast<double>(n);
    sig::ifft_planar_into(in_re, in_im, out_re, out_im);
    EXPECT_LE(rel_err(from_lanes(out_re, out_im), want_inv), kContract)
        << "inverse n = " << n;
    EXPECT_LE(rel_err(sig::ifft(x), want_inv), kContract)
        << "vector inverse n = " << n;
  }
}

TEST(FftPlan, RfftMatchesDirectDft) {
  // Every N up to 512 covers both parities, powers of two, even N with a
  // power-of-two and a chirp-z half, and the odd half-output tables.
  for (std::size_t n : contract_sizes()) {
    const auto x = random_real(n, 2000 + n);
    std::vector<Complex> cx(n);
    for (std::size_t i = 0; i < n; ++i) cx[i] = Complex(x[i], 0.0);
    auto want = sig::dft_direct(cx);
    want.resize(n / 2 + 1);
    const auto got = half_spectrum(x);  // half-size fast path for even n
    ASSERT_EQ(got.size(), n / 2 + 1);
    EXPECT_LE(rel_err(got, want), kContract) << "n = " << n;
  }
}

TEST(FftPlan, RadixSizesMeetContract) {
  // Every direct r * 2^k size against one dft_direct each: the complex
  // forward against it, the complex inverse of the exact spectrum back to
  // the input, and the packed real pair on the real part, whose spectrum
  // R_k = (X_k + conj(X_{N-k})) / 2 follows from the same oracle.
  for (std::size_t n : radix_sizes()) {
    const auto x = random_signal(n, 15000 + n);
    const auto want = sig::dft_direct(x);
    std::vector<double> in_re(n), in_im(n), out_re(n), out_im(n);
    for (std::size_t i = 0; i < n; ++i) {
      in_re[i] = x[i].real();
      in_im[i] = x[i].imag();
    }
    sig::fft_planar_into(in_re, in_im, out_re, out_im);
    EXPECT_LE(rel_err(from_lanes(out_re, out_im), want), kContract)
        << "forward n = " << n;

    std::vector<double> spec_re(n), spec_im(n);
    for (std::size_t k = 0; k < n; ++k) {
      spec_re[k] = want[k].real();
      spec_im[k] = want[k].imag();
    }
    sig::ifft_planar_into(spec_re, spec_im, out_re, out_im);
    EXPECT_LE(rel_err(from_lanes(out_re, out_im), x), kContract)
        << "inverse n = " << n;

    const std::size_t bins = n / 2 + 1;
    std::vector<Complex> want_half(bins);
    for (std::size_t k = 0; k < bins; ++k) {
      want_half[k] = 0.5 * (want[k] + std::conj(want[(n - k) % n]));
    }
    EXPECT_LE(rel_err(half_spectrum(in_re), want_half), kContract)
        << "real forward n = " << n;
    std::vector<double> hre(bins), him(bins), back(n);
    for (std::size_t k = 0; k < bins; ++k) {
      hre[k] = want_half[k].real();
      him[k] = want_half[k].imag();
    }
    sig::irfft_half_planar_into(hre, him, back);
    EXPECT_LE(real_rel_err(back, in_re), kContract)
        << "real inverse n = " << n;
  }
}

TEST(FftPlan, AutocorrelationMatchesDirectSum) {
  // The FFT autocorrelation against the direct O(N^2) linear correlation:
  // every N up to 600, and both sides of each point where the padded
  // length acf_transform_size(N) steps up, to N = 8193.
  std::vector<std::size_t> sizes;
  for (std::size_t n = 1; n <= 600; ++n) sizes.push_back(n);
  for (std::size_t n = 601; n <= 8193; ++n) {
    if (sig::acf_transform_size(n) != sig::acf_transform_size(n - 1)) {
      sizes.push_back(n - 1);
      sizes.push_back(n);
    }
  }
  for (std::size_t n : sizes) {
    const auto x = random_real(n, 16000 + n);
    const auto got = sig::autocorrelation(x);
    const auto want = direct_acf(x);
    ASSERT_EQ(got.size(), n);
    EXPECT_LE(real_rel_err(got, want), kContract) << "n = " << n;
  }
}

TEST(FftPlan, ConvolutionSizeRule) {
  // The smallest of 2^k, 3*2^k, 5*2^k that is >= n; even for even n.
  for (std::size_t n = 1; n <= 5000; ++n) {
    const std::size_t m = sig::convolution_size(n);
    ASSERT_GE(m, n);
    ASSERT_TRUE(sig::is_direct_size(m)) << "n = " << n;
    for (std::size_t smaller = n; smaller < m; ++smaller) {
      ASSERT_FALSE(sig::is_direct_size(smaller)) << "n = " << n;
    }
    if (n % 2 == 0) {
      EXPECT_EQ(m % 2, 0u) << "n = " << n;
    }
  }
  EXPECT_EQ(sig::convolution_size(2561), 3072u);
  EXPECT_EQ(sig::convolution_size(2560), 2560u);
  EXPECT_EQ(sig::convolution_size(3073), 4096u);
  EXPECT_FALSE(sig::is_direct_size(0));
  EXPECT_FALSE(sig::is_direct_size(7));
  EXPECT_TRUE(sig::is_direct_size(5 << 12));
}

TEST(FftPlan, LargePrimeMeetsContractOnSampledBins) {
  // 65537 is prime: its half-output chirp-z length 2^17 and full length
  // 2^18 both reach the cache-blocked bit reversal. The direct sum runs on
  // 64 sampled bins (both ends included); the scale is the transform's own
  // largest bin.
  const std::size_t n = 65537;
  const auto xr = random_real(n, 6500);
  std::vector<Complex> xc(n);
  for (std::size_t i = 0; i < n; ++i) xc[i] = Complex(xr[i], 0.0);
  const auto half = half_spectrum(xr);
  const auto xz = random_signal(n, 6501);
  const auto full = sig::fft(xz);

  double half_err = 0.0;
  double full_err = 0.0;
  for (std::size_t s = 0; s < 64; ++s) {
    const std::size_t kh = s * (n / 2) / 63;
    half_err = std::max(half_err, std::abs(half[kh] - direct_bin(xc, kh)));
    const std::size_t kf = s * (n - 1) / 63;
    full_err = std::max(full_err, std::abs(full[kf] - direct_bin(xz, kf)));
  }
  EXPECT_LE(half_err / max_abs(half), kContract);
  EXPECT_LE(full_err / max_abs(full), kContract);
}

TEST(FftPlan, IfftInvertsFft) {
  for (std::size_t n : kSizes) {
    const auto x = random_signal(n, 3000 + n);
    const auto roundtrip = sig::ifft(sig::fft(x));
    EXPECT_LE(rel_err(roundtrip, x), kContract) << "n = " << n;
  }
}

TEST(FftPlan, RepeatedCallsAreBitForBitIdentical) {
  // The cached plan must make repeated transforms exactly reproducible —
  // no scratch-state leakage between calls.
  for (std::size_t n : {256u, 97u, 360u}) {
    const auto x = random_signal(n, 4000 + n);
    const auto a = sig::fft(x);
    const auto b = sig::fft(x);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(Complex)), 0)
        << "n = " << n;
  }
}

TEST(FftPlan, SplitRadixCoreMatchesRadix2ReferenceOnEveryPow2) {
  // Property: the split-radix planar core and the scalar interleaved
  // radix-2 reference kernel are the same transform, on every
  // power-of-two size up to 2^18 (both parities of log2 N, so both leaf
  // patterns of the (2,4) base pass are covered; 2^18 also crosses the
  // cache-blocked bit-reversal threshold and the depth-first recursion
  // cutover at detail::kSplitRadixLeafLen).
  for (std::size_t n = 2; n <= (std::size_t{1} << 18); n <<= 1) {
    const auto x = random_signal(n, 4200 + n);

    const sig::detail::Radix2Tables tables(n);
    std::vector<Complex> want(x);
    sig::detail::radix2_scalar(want, tables, /*invert=*/false);

    std::vector<double> in_re(n), in_im(n);
    for (std::size_t i = 0; i < n; ++i) {
      in_re[i] = x[i].real();
      in_im[i] = x[i].imag();
    }

    sig::FftPlan plan(n);
    std::vector<double> out_re(n), out_im(n);
    plan.forward_planar(in_re, in_im, out_re, out_im);
    EXPECT_LE(rel_err(from_lanes(out_re, out_im), want), kContract)
        << "forward n = " << n;

    // Inverse agreement (reference kernel omits the 1/N scaling).
    std::vector<Complex> want_inv(x);
    sig::detail::radix2_scalar(want_inv, tables, /*invert=*/true);
    for (auto& v : want_inv) v /= static_cast<double>(n);
    plan.inverse_planar(in_re, in_im, out_re, out_im);
    EXPECT_LE(rel_err(from_lanes(out_re, out_im), want_inv), kContract)
        << "inverse n = " << n;
  }
}

TEST(FftPlan, BlockedBitrevLargeTransformsMatchReference) {
  // 2^17 complex / 2^18 real cross detail::kBlockedBitrevMinN, so the
  // COBRA-tiled permutation (and, for the real inverse, the
  // linearise-then-permute fold) runs on every path checked here.
  ASSERT_GE(std::size_t{1} << 17, sig::detail::kBlockedBitrevMinN);

  const std::size_t n = std::size_t{1} << 17;
  const auto x = random_signal(n, 9000);
  const sig::detail::Radix2Tables tables(n);
  std::vector<Complex> want(x);
  sig::detail::radix2_scalar(want, tables, /*invert=*/false);
  const auto got = sig::fft(x);
  EXPECT_LE(rel_err(got, want), kContract);

  // Planar lanes across the blocked gather match the interleaved bits.
  std::vector<double> in_re(n), in_im(n), out_re(n), out_im(n);
  for (std::size_t i = 0; i < n; ++i) {
    in_re[i] = x[i].real();
    in_im[i] = x[i].imag();
  }
  sig::fft_planar_into(in_re, in_im, out_re, out_im);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(out_re[i], got[i].real()) << "i = " << i;
    ASSERT_EQ(out_im[i], got[i].imag()) << "i = " << i;
  }

  // Packed real round trip at 2N: the half transform is exactly n.
  const auto xr = random_real(2 * n, 9001);
  std::vector<double> hre(n + 1), him(n + 1), back(2 * n);
  sig::rfft_half_planar_into(xr, hre, him);
  sig::irfft_half_planar_into(hre, him, back);
  EXPECT_LE(real_rel_err(back, xr), kContract);
}

TEST(FftPlan, RfftHalfNyquistBinIsReal) {
  // Even N: bin N/2 of a real signal satisfies X_{N/2} = conj(X_{N/2}).
  for (std::size_t n : {2u, 4u, 6u, 16u, 360u}) {
    const auto x = random_real(n, 6200 + n);
    const auto half = half_spectrum(x);
    const double bound = kContract * max_abs(half);
    EXPECT_LE(std::abs(half[n / 2].imag()), bound) << "n = " << n;
    EXPECT_LE(std::abs(half[0].imag()), bound) << "n = " << n;
  }
}

TEST(FftPlan, InverseRealHalfRoundTrips) {
  // The packed real inverse undoes the forward for every parity class
  // of N: pow2, even with pow2 half, even with non-pow2 half, odd, prime.
  const std::size_t sizes[] = {1,  2,  4,  6,   8,   12,   31,
                               60, 97, 128, 360, 1024, 4096};
  for (std::size_t n : sizes) {
    const auto x = random_real(n, 7200 + n);
    std::vector<double> hre(n / 2 + 1), him(n / 2 + 1);
    sig::rfft_half_planar_into(x, hre, him);
    std::vector<double> back(n);
    sig::irfft_half_planar_into(hre, him, back);
    EXPECT_LE(real_rel_err(back, x), kContract) << "n = " << n;
  }
}

TEST(FftPlanBatch, MatchesLoopedSingleSignalBitForBit) {
  // The contract of the batch entry points: row b of a batch call is
  // bit-identical to the corresponding single-signal call on row b, for
  // every batch size (covering grouped rows, the per-row tail, and the
  // per-row fallback) on every power-of-two N and every direct r * 2^k
  // size — including sizes where the batch working set crosses the tile
  // budget back to per-row execution. Strides are deliberately padded
  // past the row length.
  for (const std::size_t n : batch_sizes()) {
    for (const std::size_t batch : {1u, 2u, 3u, 7u, 32u}) {
      const auto plan = sig::get_plan(n);
      const std::size_t stride = n + 3;
      const auto seed = 11000 + 31 * batch + n;
      const auto lane = random_real(2 * batch * stride, seed);
      std::span<const double> in_re(lane.data(), batch * stride);
      std::span<const double> in_im(lane.data() + batch * stride,
                                    batch * stride);
      std::vector<double> got_re(batch * stride, -1.0);
      std::vector<double> got_im(batch * stride, -1.0);
      std::vector<double> want_re(batch * stride, -1.0);
      std::vector<double> want_im(batch * stride, -1.0);

      plan->forward_planar_batch(batch, stride, in_re, in_im, got_re,
                                 got_im);
      for (std::size_t b = 0; b < batch; ++b) {
        plan->forward_planar(in_re.subspan(b * stride, n),
                             in_im.subspan(b * stride, n),
                             std::span<double>(want_re).subspan(b * stride, n),
                             std::span<double>(want_im).subspan(b * stride, n));
      }
      ASSERT_EQ(std::memcmp(got_re.data(), want_re.data(),
                            got_re.size() * sizeof(double)), 0)
          << "fwd re n=" << n << " B=" << batch;
      ASSERT_EQ(std::memcmp(got_im.data(), want_im.data(),
                            got_im.size() * sizeof(double)), 0)
          << "fwd im n=" << n << " B=" << batch;

      plan->inverse_planar_batch(batch, stride, in_re, in_im, got_re,
                                 got_im);
      for (std::size_t b = 0; b < batch; ++b) {
        plan->inverse_planar(in_re.subspan(b * stride, n),
                             in_im.subspan(b * stride, n),
                             std::span<double>(want_re).subspan(b * stride, n),
                             std::span<double>(want_im).subspan(b * stride, n));
      }
      ASSERT_EQ(std::memcmp(got_re.data(), want_re.data(),
                            got_re.size() * sizeof(double)), 0)
          << "inv re n=" << n << " B=" << batch;
      ASSERT_EQ(std::memcmp(got_im.data(), want_im.data(),
                            got_im.size() * sizeof(double)), 0)
          << "inv im n=" << n << " B=" << batch;

      // Packed real forward + inverse, output rows padded independently.
      const std::size_t bins = n / 2 + 1;
      const std::size_t hstride = bins + 2;
      std::vector<double> hre(batch * hstride, -1.0);
      std::vector<double> him(batch * hstride, -1.0);
      std::vector<double> whre(batch * hstride, -1.0);
      std::vector<double> whim(batch * hstride, -1.0);
      plan->rfft_half_planar_batch_into(batch, stride, in_re, hstride, hre,
                                        him);
      for (std::size_t b = 0; b < batch; ++b) {
        plan->forward_real_half_planar(
            in_re.subspan(b * stride, n),
            std::span<double>(whre).subspan(b * hstride, bins),
            std::span<double>(whim).subspan(b * hstride, bins));
      }
      ASSERT_EQ(std::memcmp(hre.data(), whre.data(),
                            hre.size() * sizeof(double)), 0)
          << "rfft re n=" << n << " B=" << batch;
      ASSERT_EQ(std::memcmp(him.data(), whim.data(),
                            him.size() * sizeof(double)), 0)
          << "rfft im n=" << n << " B=" << batch;

      std::vector<double> back(batch * stride, -1.0);
      std::vector<double> wback(batch * stride, -1.0);
      plan->irfft_half_planar_batch_into(batch, hstride, hre, him, stride,
                                         back);
      for (std::size_t b = 0; b < batch; ++b) {
        plan->inverse_real_half_planar(
            std::span<const double>(hre).subspan(b * hstride, bins),
            std::span<const double>(him).subspan(b * hstride, bins),
            std::span<double>(wback).subspan(b * stride, n));
      }
      ASSERT_EQ(std::memcmp(back.data(), wback.data(),
                            back.size() * sizeof(double)), 0)
          << "irfft n=" << n << " B=" << batch;
    }
  }
}

TEST(FftPlanBatch, InPlaceAliasingMatchesOutOfPlace) {
  // The documented full-aliasing form: out lanes == in lanes, same
  // stride. Covers both the grouped rows and the per-row tail.
  for (const std::size_t n : {8u, 64u, 1024u, 4096u, 12u, 96u, 1536u,
                             5120u}) {
    for (const std::size_t batch : {2u, 7u, 32u}) {
      const auto plan = sig::get_plan(n);
      const std::size_t stride = n + 1;
      const auto re0 = random_real(batch * stride, 12000 + n + batch);
      const auto im0 = random_real(batch * stride, 12500 + n + batch);

      // Compare the row regions only: the inter-row padding is untouched
      // by the in-place call but zero-initialised in the fresh buffers.
      const auto rows_equal = [&](const std::vector<double>& a,
                                  const std::vector<double>& b) {
        for (std::size_t b2 = 0; b2 < batch; ++b2) {
          if (std::memcmp(a.data() + b2 * stride, b.data() + b2 * stride,
                          n * sizeof(double)) != 0) {
            return false;
          }
        }
        return true;
      };
      std::vector<double> out_re(batch * stride), out_im(batch * stride);
      plan->forward_planar_batch(batch, stride, re0, im0, out_re, out_im);
      std::vector<double> io_re(re0), io_im(im0);
      plan->forward_planar_batch(batch, stride, io_re, io_im, io_re, io_im);
      EXPECT_TRUE(rows_equal(io_re, out_re))
          << "fwd in-place re n=" << n << " B=" << batch;
      EXPECT_TRUE(rows_equal(io_im, out_im))
          << "fwd in-place im n=" << n << " B=" << batch;

      plan->inverse_planar_batch(batch, stride, re0, im0, out_re, out_im);
      io_re = re0;
      io_im = im0;
      plan->inverse_planar_batch(batch, stride, io_re, io_im, io_re, io_im);
      EXPECT_TRUE(rows_equal(io_re, out_re))
          << "inv in-place re n=" << n << " B=" << batch;
      EXPECT_TRUE(rows_equal(io_im, out_im))
          << "inv in-place im n=" << n << " B=" << batch;
    }
  }
}

TEST(FftPlanBatch, ParsevalHoldsPerRow) {
  // sum |x|^2 == sum |X|^2 / N for every row of a batched forward
  // transform (each row is an independent DFT of its own signal).
  const std::size_t n = 2048;
  const std::size_t batch = 11;
  const auto plan = sig::get_plan(n);
  const auto re = random_real(batch * n, 13000);
  const auto im = random_real(batch * n, 13001);
  std::vector<double> out_re(batch * n), out_im(batch * n);
  plan->forward_planar_batch(batch, n, re, im, out_re, out_im);
  for (std::size_t b = 0; b < batch; ++b) {
    double time_energy = 0.0;
    double freq_energy = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t j = b * n + i;
      time_energy += re[j] * re[j] + im[j] * im[j];
      freq_energy += out_re[j] * out_re[j] + out_im[j] * out_im[j];
    }
    freq_energy /= static_cast<double>(n);
    EXPECT_NEAR(freq_energy, time_energy, 1e-6 * time_energy)
        << "row " << b;
  }
}

TEST(FftPlanBatch, TileRowsIsUsableChunkSize) {
  // batch_tile_rows must always be a positive row count, and small plans
  // must advertise multi-row tiles (otherwise no caller ever batches).
  EXPECT_GE(sig::get_plan(4096)->batch_tile_rows(false), 2u);
  EXPECT_GE(sig::get_plan(4096)->batch_tile_rows(true), 2u);
  EXPECT_GE(sig::get_plan(1 << 16)->batch_tile_rows(false), 1u);
  EXPECT_GE(sig::get_plan(97)->batch_tile_rows(false), 1u);
}

TEST(PlanCache, HitsAndMisses) {
  auto& cache = sig::plan_cache();
  cache.clear();

  const auto p1 = sig::get_plan(777);  // non-pow2: also builds sub-plans
  const auto after_first = cache.stats();
  EXPECT_GE(after_first.misses, 1u);

  const auto p2 = sig::get_plan(777);
  const auto after_second = cache.stats();
  EXPECT_EQ(p1.get(), p2.get()) << "second lookup must reuse the plan";
  EXPECT_EQ(after_second.misses, after_first.misses);
  EXPECT_EQ(after_second.hits, after_first.hits + 1);
}

TEST(PlanCache, LruEviction) {
  sig::PlanCache cache(2);
  const auto p8 = cache.get(8);
  const auto p16 = cache.get(16);
  (void)cache.get(8);     // touch 8 so 16 is the LRU entry
  (void)cache.get(32);    // evicts 16
  const auto s = cache.stats();
  EXPECT_EQ(s.size, 2u);
  EXPECT_EQ(s.evictions, 1u);
  // 8 must still be resident; 16 must rebuild.
  EXPECT_EQ(cache.get(8).get(), p8.get());
  EXPECT_NE(cache.get(16).get(), p16.get());
  // Evicted handles stay usable (shared ownership).
  const auto x = random_real(16, 9);
  std::vector<double> out_re(16), out_im(16);
  p16->forward_planar(x, x, out_re, out_im);
}

TEST(PlanCache, SetCapacityShrinks) {
  sig::PlanCache cache(8);
  for (std::size_t n : {2u, 4u, 8u, 16u, 32u}) (void)cache.get(n);
  EXPECT_EQ(cache.stats().size, 5u);
  cache.set_capacity(2);
  EXPECT_EQ(cache.stats().size, 2u);
  EXPECT_EQ(cache.capacity(), 2u);
}

TEST(PlanCache, ThreadSafetyUnderParallelFor) {
  // Hammer the global cache from many workers with a mix of sizes that
  // alias (forcing concurrent construction races) and verify every result
  // against the direct DFT computed up front.
  const std::size_t sizes[] = {64, 97, 128, 360, 509, 1024};
  struct Case {
    std::vector<Complex> input;
    std::vector<Complex> want;
  };
  std::vector<Case> cases;
  for (std::size_t n : sizes) {
    Case c;
    c.input = random_signal(n, 7000 + n);
    c.want = sig::dft_direct(c.input);
    cases.push_back(std::move(c));
  }

  sig::plan_cache().clear();
  const std::size_t kIterations = 96;
  std::vector<double> errors(kIterations, 0.0);
  ftio::util::parallel_for(kIterations, [&](std::size_t i) {
    const auto& c = cases[i % cases.size()];
    errors[i] = rel_err(sig::fft(c.input), c.want);
  }, /*threads=*/8);

  for (std::size_t i = 0; i < kIterations; ++i) {
    EXPECT_LE(errors[i], kContract) << "iteration " << i;
  }
}

TEST(PlanCache, ConcurrentSameSizeLookupsBuildExactlyOnce) {
  // All workers race get() on one absent size. In-flight deduplication
  // must make exactly one thread construct the plan; every other lookup
  // either blocks on that build (miss_wait) or arrives after publication
  // (hit) — never a second construction, and everyone shares one plan.
  sig::PlanCache cache(8);
  constexpr std::size_t kThreads = 8;
  const std::size_t n = 1 << 14;

  std::vector<std::shared_ptr<const sig::FftPlan>> plans(kThreads);
  std::vector<std::thread> workers;
  std::atomic<std::size_t> arrived{0};
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      // Rendezvous so the lookups overlap as much as the scheduler allows.
      arrived.fetch_add(1);
      while (arrived.load() < kThreads) std::this_thread::yield();
      plans[t] = cache.get(n);
    });
  }
  for (auto& w : workers) w.join();

  const auto s = cache.stats();
  EXPECT_EQ(s.misses, 1u) << "losers must block on the in-flight build, "
                             "not construct a duplicate plan";
  EXPECT_EQ(s.hits + s.miss_waits, kThreads - 1);
  EXPECT_EQ(s.size, 1u);
  for (std::size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(plans[t].get(), plans[0].get()) << "thread " << t;
  }
  ASSERT_NE(plans[0], nullptr);
  EXPECT_EQ(plans[0]->size(), n);
}
