#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

namespace ftio::signal {

/// Options mirroring the SciPy `find_peaks` parameters the paper relies on
/// (it calls find_peaks with a threshold of 0.15 on the ACF, Sec. II-C).
struct PeakOptions {
  /// Minimum absolute height of a peak (SciPy `height`).
  std::optional<double> min_height{};
  /// Minimum vertical distance to the neighbouring samples
  /// (SciPy `threshold`).
  std::optional<double> min_threshold{};
  /// Minimum number of samples between neighbouring peaks
  /// (SciPy `distance`); smaller peaks are removed first.
  std::optional<std::size_t> min_distance{};
};

/// A detected local maximum.
struct Peak {
  std::size_t index = 0;     ///< sample index of the peak
  double height = 0.0;       ///< value at the peak
};

/// Finds local maxima of `values`. A flat-topped maximum reports the
/// middle sample of its plateau, matching SciPy. Filters are applied in
/// SciPy's order: height, threshold, distance.
std::vector<Peak> find_peaks(std::span<const double> values,
                             const PeakOptions& options = {});

}  // namespace ftio::signal
