#include "signal/peaks.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace ftio::signal {

namespace {

/// Samples per block of the prominence walks.
constexpr std::size_t kBlock = 64;

/// Per-block minimum and maximum of the non-NaN samples (+inf and -inf
/// for a block of NaNs): a walk passes a whole block in one step when no
/// sample in it is higher than the peak.
struct BlockExtrema {
  std::vector<double> lo;
  std::vector<double> hi;
};

BlockExtrema block_extrema(std::span<const double> v) {
  const std::size_t blocks = (v.size() + kBlock - 1) / kBlock;
  BlockExtrema out;
  out.lo.assign(blocks, std::numeric_limits<double>::infinity());
  out.hi.assign(blocks, -std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < v.size(); ++i) {
    const std::size_t b = i / kBlock;
    out.lo[b] = std::min(out.lo[b], v[i]);
    if (v[i] > out.hi[b]) out.hi[b] = v[i];
  }
  return out;
}

double prominence_of(std::span<const double> v, const BlockExtrema& blocks,
                     std::size_t peak) {
  // Walk left/right until a sample higher than the peak (or the border),
  // tracking the lowest valley on each side; prominence = peak - max(valley).
  // Min is exact and NaNs never stop a walk or lower a valley, so passing
  // whole blocks by their extrema gives the sample-by-sample result.
  const double h = v[peak];
  double left_min = h;
  std::size_t i = peak;  // samples [0, i) are still to walk
  for (; i > 0 && i % kBlock != 0 && !(v[i - 1] > h); --i) {
    left_min = std::min(left_min, v[i - 1]);
  }
  if (i % kBlock == 0) {
    for (; i > 0 && !(blocks.hi[i / kBlock - 1] > h); i -= kBlock) {
      left_min = std::min(left_min, blocks.lo[i / kBlock - 1]);
    }
    for (; i > 0 && !(v[i - 1] > h); --i) {
      left_min = std::min(left_min, v[i - 1]);
    }
  }
  double right_min = h;
  i = peak + 1;  // samples [i, n) are still to walk
  const std::size_t n = v.size();
  for (; i < n && i % kBlock != 0 && !(v[i] > h); ++i) {
    right_min = std::min(right_min, v[i]);
  }
  if (i % kBlock == 0) {
    for (; i < n && !(blocks.hi[i / kBlock] > h); i += kBlock) {
      right_min = std::min(right_min, blocks.lo[i / kBlock]);
    }
    for (; i < n && !(v[i] > h); ++i) right_min = std::min(right_min, v[i]);
  }
  return h - std::max(left_min, right_min);
}

}  // namespace

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

  if (!peaks.empty()) {
    const BlockExtrema blocks = block_extrema(values);
    for (auto& p : peaks) {
      p.prominence = prominence_of(values, blocks, p.index);
    }
  }

  if (options.min_prominence) {
    std::erase_if(peaks, [&](const Peak& p) {
      return p.prominence < *options.min_prominence;
    });
  }

  return peaks;
}

}  // namespace ftio::signal
