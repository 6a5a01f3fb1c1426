#include "signal/fft.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numbers>

#include "signal/plan.hpp"
#include "util/error.hpp"

namespace ftio::signal {

namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;

/// The interleaved edge of the planar API: deinterleave, transform in
/// place on the planar lanes, reinterleave.
std::vector<Complex> transform_interleaved(std::span<const Complex> input,
                                           bool inverse) {
  const std::size_t n = input.size();
  std::vector<double> re(n), im(n);
  for (std::size_t i = 0; i < n; ++i) {
    re[i] = input[i].real();
    im[i] = input[i].imag();
  }
  const auto plan = get_plan(n);
  if (inverse) {
    plan->inverse_planar(re, im, re, im);
  } else {
    plan->forward_planar(re, im, re, im);
  }
  std::vector<Complex> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = Complex(re[i], im[i]);
  return out;
}

}  // namespace

bool is_power_of_two(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

std::size_t next_power_of_two(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

bool is_direct_size(std::size_t n) {
  if (n == 0) return false;
  const std::size_t odd = n >> std::countr_zero(n);
  return odd == 1 || odd == 3 || odd == 5;
}

std::size_t convolution_size(std::size_t n) {
  std::size_t best = next_power_of_two(n);
  for (const std::size_t r : {std::size_t{3}, std::size_t{5}}) {
    std::size_t p = r;
    while (p < n) p <<= 1;
    best = std::min(best, p);
  }
  return best;
}

std::vector<Complex> fft(std::span<const Complex> input) {
  ftio::util::expect(!input.empty(), "fft: empty input");
  return transform_interleaved(input, /*inverse=*/false);
}

std::vector<Complex> ifft(std::span<const Complex> input) {
  ftio::util::expect(!input.empty(), "ifft: empty input");
  return transform_interleaved(input, /*inverse=*/true);
}

std::vector<Complex> dft_direct(std::span<const Complex> input) {
  // The phase index k*j is reduced mod N in exact integer arithmetic
  // before it becomes an angle, so every term's twiddle is accurate to a
  // few ulps whatever the size (a floating-point k*j/N loses phase bits
  // as k*j grows).
  const std::size_t n = input.size();
  std::vector<Complex> twiddle(n);
  for (std::size_t r = 0; r < n; ++r) {
    const double angle =
        -kTwoPi * static_cast<double>(r) / static_cast<double>(n);
    twiddle[r] = Complex(std::cos(angle), std::sin(angle));
  }
  std::vector<Complex> out(n, Complex(0.0, 0.0));
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t r = 0;  // k*j mod n
    for (std::size_t j = 0; j < n; ++j) {
      out[k] += input[j] * twiddle[r];
      r += k;
      if (r >= n) r -= n;
    }
  }
  return out;
}

}  // namespace ftio::signal
