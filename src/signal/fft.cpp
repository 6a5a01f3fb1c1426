#include "signal/fft.hpp"

#include <cmath>
#include <numbers>

#include "signal/plan.hpp"
#include "util/error.hpp"

namespace ftio::signal {

namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;

}  // namespace

bool is_power_of_two(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

std::size_t next_power_of_two(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

std::vector<Complex> fft(std::span<const Complex> input) {
  ftio::util::expect(!input.empty(), "fft: empty input");
  std::vector<Complex> out(input.size());
  get_plan(input.size())->forward(input, out);
  return out;
}

std::vector<Complex> ifft(std::span<const Complex> input) {
  ftio::util::expect(!input.empty(), "ifft: empty input");
  std::vector<Complex> out(input.size());
  get_plan(input.size())->inverse(input, out);
  return out;
}

std::vector<Complex> dft_direct(std::span<const Complex> input) {
  const std::size_t n = input.size();
  std::vector<Complex> out(n, Complex(0.0, 0.0));
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t j = 0; j < n; ++j) {
      const double angle = -kTwoPi * static_cast<double>(k) *
                           static_cast<double>(j) / static_cast<double>(n);
      out[k] += input[j] * Complex(std::cos(angle), std::sin(angle));
    }
  }
  return out;
}

}  // namespace ftio::signal
