#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace ftio::signal {

/// Zero-padded transform length of the FFT autocorrelation of n samples:
/// the smallest power of two >= 2n, so the circular correlation equals the
/// linear one; even, as the packed real path needs. Any length >= 2n - 1
/// gives the same correlation up to rounding, but the ACF peak picker
/// breaks exact ties between neighbouring lags (common on the
/// piecewise-constant bandwidth signals) by that rounding, so this length
/// stays fixed until the peak picker is tie-robust.
std::size_t acf_transform_size(std::size_t n);

/// Autocorrelation function of `samples` for lags 0..N-1, matching the
/// non-normalised NumPy `correlate(x, x, mode='full')[N-1:]` the paper
/// uses (Sec. II-C), then normalised by the lag-0 value so ACF(0) = 1 and
/// values lie in [-1, 1]. Computed with an FFT-based convolution in
/// O(N log N). The mean is NOT subtracted, mirroring the reference
/// implementation's use of raw `numpy.correlate`.
std::vector<double> autocorrelation(std::span<const double> samples);

/// Mean-removed (statistical) ACF variant, provided for callers that want
/// the textbook definition; also lag-0 normalised.
std::vector<double> autocorrelation_centered(std::span<const double> samples);

/// Batched autocorrelation of many signals (the engine's multi-window
/// path): signals sharing an acf_transform_size run their
/// forward and inverse transforms through the plan's stage-major batched
/// execution, with cache-resident batch tiles fanned across up to
/// `threads` workers (0 = hardware concurrency; 1 = serial). out[i] is
/// bit-identical to autocorrelation(signals[i]) for every grouping and
/// thread count. Throws InvalidArgument if any signal is empty.
std::vector<std::vector<double>> autocorrelation_many(
    std::span<const std::span<const double>> signals, unsigned threads = 1);

}  // namespace ftio::signal
