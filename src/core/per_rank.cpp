#include "core/per_rank.hpp"

#include "trace/model.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace ftio::core {

std::vector<RankResult> detect_per_rank(const ftio::trace::Trace& trace,
                                        const FtioOptions& options) {
  ftio::util::expect(trace.rank_count >= 1,
                     "detect_per_rank: trace without ranks");
  std::vector<RankResult> results(static_cast<std::size_t>(trace.rank_count));
  // One pass buckets the requests by rank, so each rank sweeps only its
  // own: O(R) request visits in total instead of O(P * R).
  const auto buckets = ftio::trace::bucket_by_rank(trace);

  ftio::util::parallel_for(results.size(), [&](std::size_t i) {
    auto& slot = results[i];
    slot.rank = static_cast<int>(i);
    ftio::trace::BandwidthOptions bw;
    bw.kind = options.kind;
    const auto signal =
        ftio::trace::bandwidth_signal(buckets.of(slot.rank), bw);
    if (signal.empty()) return;  // rank never did I/O
    slot.has_io = true;
    slot.result = analyze_bandwidth(signal, options);
  });
  return results;
}

}  // namespace ftio::core
