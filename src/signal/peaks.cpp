#include "signal/peaks.hpp"

#include <algorithm>

namespace ftio::signal {

std::vector<Peak> find_peaks(std::span<const double> values,
                             const PeakOptions& options) {
  // Strict local maxima with SciPy's plateau handling: the peak is the
  // middle of any flat top whose neighbours on both sides are lower. The
  // height and threshold filters look at one peak each, so they run
  // inside the scan and rejected maxima are never stored.
  std::vector<Peak> peaks;
  const std::size_t n = values.size();
  for (std::size_t i = 1; i + 1 < n;) {
    if (values[i - 1] < values[i]) {
      std::size_t ahead = i + 1;
      while (ahead + 1 < n && values[ahead] == values[i]) ++ahead;
      if (values[ahead] < values[i]) {
        const std::size_t idx = (i + ahead - 1) / 2;
        const double height = values[idx];
        bool keep = !(options.min_height && height < *options.min_height);
        if (keep && options.min_threshold) {
          const double left = height - values[idx - 1];
          const double right = height - values[idx + 1];
          keep = !(std::min(left, right) < *options.min_threshold);
        }
        if (keep) peaks.push_back({.index = idx, .height = height});
        i = ahead;
        continue;
      }
    }
    ++i;
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

  return peaks;
}

}  // namespace ftio::signal
