#include "signal/autocorrelation.hpp"

#include <algorithm>
#include <cmath>

#include "signal/batch_util.hpp"
#include "signal/fft.hpp"
#include "signal/plan.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"

namespace ftio::signal {

namespace {

/// |X_k|^2 into the re lane, im zeroed — the power spectrum of a real
/// signal is real and even, so its inverse transform is again real:
/// exactly the packed-inverse contract. Shared by the per-signal and
/// batched paths so both run the same instruction sequence (identical
/// doubles bit for bit).
void power_bins(double* __restrict re, double* __restrict im,
                std::size_t bins) {
  for (std::size_t k = 0; k < bins; ++k) {
    re[k] = re[k] * re[k] + im[k] * im[k];
    im[k] = 0.0;
  }
}

/// Lag-0 normalisation of a raw FFT autocorrelation (first n lags of the
/// padded buffer). Shared by the per-signal and batched paths.
std::vector<double> normalize_acf(const double* raw, std::size_t n) {
  std::vector<double> acf(n);
  const double lag0 = raw[0];
  if (lag0 == 0.0) {
    // All-zero (or mean-constant) signal: define ACF as 1 at lag 0.
    acf.assign(n, 0.0);
    acf[0] = 1.0;
    return acf;
  }
  for (std::size_t lag = 0; lag < n; ++lag) {
    acf[lag] = raw[lag] / lag0;
  }
  return acf;
}

std::vector<double> acf_impl(std::span<const double> samples, bool center) {
  ftio::util::expect(!samples.empty(), "autocorrelation: empty signal");
  const std::size_t n = samples.size();

  // Zero-pad to >= 2N to turn circular correlation into linear correlation.
  // The signal is real, so the whole pipeline stays on the packed
  // single-sided planar layout: planar rfft -> |X_k|^2 over the M/2+1
  // bins -> planar real inverse. Both transforms are half-size, the
  // mirrored spectrum half is never materialised, and no interleaved
  // std::complex buffer exists anywhere on the path — the power loop is
  // two stride-1 double lanes the compiler vectorises. Buffers are
  // per-thread scratch and the M-point plan comes from the cache, so
  // repeated ACF calls (the Sec. III-A sweeps run thousands) neither
  // reallocate nor recompute twiddles.
  const std::size_t m = acf_transform_size(n);
  thread_local std::vector<double> padded;
  thread_local std::vector<double> spec_re;
  thread_local std::vector<double> spec_im;
  padded.assign(m, 0.0);
  const double mean = center ? ftio::util::mean(samples) : 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    padded[i] = samples[i] - mean;
  }

  const auto plan = get_plan(m);
  spec_re.resize(m / 2 + 1);
  spec_im.resize(m / 2 + 1);
  plan->forward_real_half_planar(padded, spec_re, spec_im);
  power_bins(spec_re.data(), spec_im.data(), spec_re.size());
  plan->inverse_real_half_planar(spec_re, spec_im,
                                 padded);  // padded now holds the ACF
  return normalize_acf(padded.data(), n);
}

}  // namespace

std::size_t acf_transform_size(std::size_t n) {
  return next_power_of_two(2 * n);
}

std::vector<double> autocorrelation(std::span<const double> samples) {
  return acf_impl(samples, /*center=*/false);
}

std::vector<double> autocorrelation_centered(std::span<const double> samples) {
  return acf_impl(samples, /*center=*/true);
}

std::vector<std::vector<double>> autocorrelation_many(
    std::span<const std::span<const double>> signals, unsigned threads) {
  std::vector<std::vector<double>> out(signals.size());
  if (signals.empty()) return out;
  for (const auto& s : signals) {
    ftio::util::expect(!s.empty(), "autocorrelation_many: empty signal");
  }

  // Group the signals by their convolution size (different lengths can
  // share one m = acf_transform_size(n)): every group's forward and
  // inverse transforms run through the plan's stage-major batched
  // execution over cache-resident tiles, with the same zero-padding,
  // power, and normalisation steps as the per-signal path — out[i] is
  // bit-identical to autocorrelation(signals[i]).
  detail::grouped_batch_tiles(
      signals.size(), threads,
      [&](std::size_t i) { return acf_transform_size(signals[i].size()); },
      [&](std::size_t i) { out[i] = autocorrelation(signals[i]); },
      [&](const FftPlan& plan, std::span<const std::size_t> tile) {
        const std::size_t m = plan.size();
        const std::size_t bins = m / 2 + 1;
        const std::size_t rows = tile.size();
        thread_local std::vector<double> padded_rows;
        thread_local std::vector<double> spec_re;
        thread_local std::vector<double> spec_im;
        padded_rows.assign(rows * m, 0.0);
        spec_re.resize(rows * bins);
        spec_im.resize(rows * bins);
        for (std::size_t r = 0; r < rows; ++r) {
          const auto& sig = signals[tile[r]];
          std::copy(sig.begin(), sig.end(),
                    padded_rows.begin() + static_cast<std::ptrdiff_t>(r * m));
        }
        plan.rfft_half_planar_batch_into(rows, m, padded_rows, bins,
                                         spec_re, spec_im);
        for (std::size_t r = 0; r < rows; ++r) {
          power_bins(spec_re.data() + r * bins, spec_im.data() + r * bins,
                     bins);
        }
        plan.irfft_half_planar_batch_into(rows, bins, spec_re, spec_im, m,
                                          padded_rows);
        for (std::size_t r = 0; r < rows; ++r) {
          out[tile[r]] =
              normalize_acf(padded_rows.data() + r * m,
                            signals[tile[r]].size());
        }
      });
  return out;
}

}  // namespace ftio::signal
