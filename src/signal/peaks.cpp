#include "signal/peaks.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace ftio::signal {

namespace {

/// Locates strict local maxima with SciPy's plateau handling: the peak is
/// the middle of any flat top whose neighbours on both sides are lower.
std::vector<std::size_t> local_maxima(std::span<const double> v) {
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
  return maxima;
}

double prominence_of(std::span<const double> v, std::size_t peak) {
  // Walk left/right until a sample higher than the peak (or the border),
  // tracking the lowest valley on each side; prominence = peak - max(valley).
  const double h = v[peak];
  double left_min = h;
  for (std::size_t i = peak; i-- > 0;) {
    if (v[i] > h) break;
    left_min = std::min(left_min, v[i]);
  }
  double right_min = h;
  for (std::size_t i = peak + 1; i < v.size(); ++i) {
    if (v[i] > h) break;
    right_min = std::min(right_min, v[i]);
  }
  return h - std::max(left_min, right_min);
}

}  // namespace

std::vector<Peak> find_peaks(std::span<const double> values,
                             const PeakOptions& options) {
  std::vector<Peak> peaks;
  if (values.size() < 3) return peaks;

  for (std::size_t idx : local_maxima(values)) {
    Peak p;
    p.index = idx;
    p.height = values[idx];
    peaks.push_back(p);
  }

  if (options.min_height) {
    std::erase_if(peaks,
                  [&](const Peak& p) { return p.height < *options.min_height; });
  }

  if (options.min_threshold) {
    std::erase_if(peaks, [&](const Peak& p) {
      const double left = p.height - values[p.index - 1];
      const double right = p.height - values[p.index + 1];
      return std::min(left, right) < *options.min_threshold;
    });
  }

  if (options.min_distance && *options.min_distance > 1) {
    // SciPy semantics: repeatedly keep the highest remaining peak and drop
    // all unkept peaks closer than `distance` samples. The peaks are sorted
    // by index, so those are the index-neighbours scanned outwards until
    // the gap reaches `distance`. None of them is higher than the kept
    // peak: a higher one (or an equal one earlier in the stable order) was
    // visited first and would have dropped it.
    const std::size_t distance = *options.min_distance;
    std::vector<std::size_t> order(peaks.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return peaks[a].height > peaks[b].height;
    });
    std::vector<bool> keep(peaks.size(), true);
    for (std::size_t rank : order) {
      if (!keep[rank]) continue;
      const std::size_t at = peaks[rank].index;
      for (std::size_t j = rank; j-- > 0 && at - peaks[j].index < distance;) {
        keep[j] = false;
      }
      for (std::size_t j = rank + 1;
           j < peaks.size() && peaks[j].index - at < distance; ++j) {
        keep[j] = false;
      }
    }
    std::vector<Peak> filtered;
    for (std::size_t i = 0; i < peaks.size(); ++i) {
      if (keep[i]) filtered.push_back(peaks[i]);
    }
    peaks = std::move(filtered);
  }

  for (auto& p : peaks) p.prominence = prominence_of(values, p.index);

  if (options.min_prominence) {
    std::erase_if(peaks, [&](const Peak& p) {
      return p.prominence < *options.min_prominence;
    });
  }

  return peaks;
}

}  // namespace ftio::signal
