#pragma once

#include <complex>
#include <span>
#include <vector>

namespace ftio::signal {

using Complex = std::complex<double>;

/// Discrete Fourier transform X_k = sum_n x_n * exp(-2*pi*i*k*n/N), the
/// definition in Sec. II-B1 of the paper. Runs the split-radix planar FFT
/// core when N is a power of two, one radix-3/5 pass over it when N is
/// 3*2^k or 5*2^k, and Bluestein's chirp-z algorithm on that core
/// otherwise, so every N costs O(N log N). Backed by the
/// process-wide plan cache (signal/plan.hpp): twiddle factors,
/// bit-reversal permutations, and chirp-z tables are computed once per
/// size and reused across calls and threads. This vector form is the one
/// interleaved convenience: it deinterleaves into the planar entry
/// points, which the library's own paths (and any caller that holds split
/// re[]/im[] lanes or a real signal) call directly — fft_planar_into,
/// rfft_half_planar_into and friends.
std::vector<Complex> fft(std::span<const Complex> input);

/// Inverse transform: x_n = (1/N) sum_k X_k * exp(+2*pi*i*k*n/N).
std::vector<Complex> ifft(std::span<const Complex> input);

/// Reference O(N^2) DFT used for validating the FFT in tests. The phase
/// of every term is reduced mod N exactly, so the reference stays
/// accurate at any size.
std::vector<Complex> dft_direct(std::span<const Complex> input);

/// True when n is a power of two (n >= 1).
bool is_power_of_two(std::size_t n);

/// Smallest power of two >= n.
std::size_t next_power_of_two(std::size_t n);

/// True when n is 2^k, 3*2^k or 5*2^k: the sizes FftPlan transforms
/// directly, without chirp-z.
bool is_direct_size(std::size_t n);

/// The convolution length rule: the smallest of 2^k, 3*2^k and 5*2^k that
/// is >= n, so a convolution padded to it runs on the direct core. Only
/// the chirp-z kernel pads to it today; the FFT autocorrelation keeps
/// acf_transform_size() (a power of two) until its peak picker handles
/// exact ties between lags. For even n >= 2 the result is even.
std::size_t convolution_size(std::size_t n);

}  // namespace ftio::signal
