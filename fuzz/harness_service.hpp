#pragma once

#include <cstddef>
#include <cstdint>

namespace ftio::fuzz {

/// Fuzz entry point over the ingest daemon's admission path.
///
/// The input bytes decode to a daemon configuration (shard count,
/// mailbox capacity, materialization threshold, budget, tenant cap —
/// all folded into small ranges) followed by a bounded operation
/// program: request submissions, framed JSONL/MessagePack submissions
/// fed raw fuzz bytes (the ParsePolicy::kSkipBad surface), pump cycles,
/// and stats scrapes, across a handful of tenants. The input header can
/// additionally arm the service failpoints with input-derived seeds, so
/// the quarantine, crash-restart, and overflow paths are in scope of the
/// same inputs.
///
/// The daemon runs in foreground mode — single-threaded and
/// deterministic — and the harness checks the admission-control
/// invariants after teardown: the queue depth never exceeded its bound,
/// and every accepted item was processed exactly once unless a crash
/// failpoint fired. InvalidArgument and admission rejections are
/// expected outcomes; any other escape or an invariant miss is a
/// finding.
///
/// Returns 0 (libFuzzer convention); aborts on a property violation.
int ftio_fuzz_service(const std::uint8_t* data, std::size_t size);

}  // namespace ftio::fuzz
