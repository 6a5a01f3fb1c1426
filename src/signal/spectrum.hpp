#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "signal/fft.hpp"

namespace ftio::signal {

/// Single-sided spectrum of a real, evenly sampled signal, following the
/// conventions of Sec. II-B1:
///  - bins k in [0, N/2] with frequencies f_k = k * fs / N,
///  - the complex bins X_k themselves; amplitude |X_k| and phase arg(X_k)
///    are derived per bin by wave_for_bin (the DC bin X_0 is kept
///    unscaled; callers that reconstruct with Eq. (1) double the
///    amplitudes that have a conjugate twin, i.e. everything except DC and
///    the even-N Nyquist bin),
///  - power p_k = |X_k|^2 / N,
///  - normalised power = p_k / total power (the plotted y-axis in the
///    paper's spectra).
struct Spectrum {
  double sampling_frequency = 0.0;  ///< fs in Hz
  std::size_t total_samples = 0;    ///< N
  std::vector<double> frequencies;  ///< f_k, size N/2 + 1
  std::vector<double> bin_re;       ///< Re X_k
  std::vector<double> bin_im;       ///< Im X_k
  std::vector<double> power;        ///< p_k = (Re^2 + Im^2) / N
  std::vector<double> normed_power; ///< p_k / sum(p)

  /// Frequency-domain resolution 1/dt = fs/N between adjacent bins.
  double frequency_step() const;

  /// Number of inspectable (non-DC) bins, N/2 in the paper's wording.
  std::size_t inspected_bins() const { return frequencies.empty() ? 0 : frequencies.size() - 1; }
};

/// Computes the single-sided spectrum of `samples` taken at `fs` Hz.
/// Throws InvalidArgument for empty input or non-positive fs.
Spectrum compute_spectrum(std::span<const double> samples, double fs);

/// Batched compute_spectrum over many windows at once (the engine's
/// multi-window path): windows of equal length are grouped and their
/// forward transforms run through the plan's stage-major batched
/// execution, with cache-resident batch tiles fanned across up to
/// `threads` workers (0 = hardware concurrency; 1 = serial). Mixed
/// lengths are allowed — each group batches independently. out[i] is
/// bit-identical to compute_spectrum(signals[i], fs) for every grouping
/// and thread count. Throws InvalidArgument if any window is empty.
std::vector<Spectrum> compute_spectra(
    std::span<const std::span<const double>> signals, double fs,
    unsigned threads = 1);

/// One cosine component of the Eq. (1) reconstruction:
/// a * cos(2*pi*f*t + phase), where a already includes the factor 2 for
/// non-DC bins and 1/N normalisation.
struct CosineWave {
  double frequency = 0.0;
  double amplitude = 0.0;
  double phase = 0.0;
};

/// Extracts the reconstruction wave for bin k of a spectrum (Eq. (1)):
/// amplitude from |X_k|, phase arg(X_k).
CosineWave wave_for_bin(const Spectrum& spectrum, std::size_t k);

/// Evaluates the sum of `waves` (plus `dc_offset`) at sample times
/// t_n = n / fs for n in [0, n_samples). Used to redraw the paper's
/// Figs. 13-14 (top contributing waves, merged candidate waves).
std::vector<double> synthesize(std::span<const CosineWave> waves,
                               double dc_offset, double fs,
                               std::size_t n_samples);

}  // namespace ftio::signal
