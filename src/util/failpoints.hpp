#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string_view>

/// Deterministic fault-injection framework (the chaos-testing layer the
/// ingest daemon's recovery paths are exercised with). A *failpoint* is a
/// named site in library code where a test can inject a failure — an
/// allocation error, a garbage parse record, a slow or crashing shard —
/// without monkey-patching or timing games. Each site is spelled
///
///   if (FTIO_FAILPOINT("service.session_throw")) throw ...;
///
/// and fires only when a test armed that name with a probability and an
/// RNG seed: the per-failpoint generator makes every firing sequence a
/// pure function of (seed, evaluation order), so a chaos run that found a
/// bug replays exactly. The sites are live in every build: while nothing
/// is armed the macro costs one relaxed atomic load (the armed count) and
/// never touches the registry mutex.
///
/// Failpoint names currently wired into the library (see the call sites
/// for exact semantics):
///   service.alloc          admission buffering / session build throws
///                          std::bad_alloc
///   service.session_throw  a session predict() throws runtime_error
///   service.slow_shard     the shard worker stalls ~1 ms on one item
///   service.shard_crash    the shard drain cycle throws (crash-only
///                          restart path)
///   service.queue_overflow the mailbox reports full on a push
///   trace.parse_garbage    a kSkipBad parse treats one record as
///                          malformed
///   durability.journal_write     a journal append writes a partial
///                                (torn) frame, then throws IoError
///   durability.journal_fsync     the journal fsync throws IoError
///   durability.journal_rotate    segment rotation throws IoError
///   durability.checkpoint_write  a checkpoint write leaves a partial
///                                .tmp file behind, then throws
///   durability.checkpoint_fsync  the checkpoint fsync throws IoError
///   durability.checkpoint_rename the checkpoint rename throws IoError
namespace ftio::util::failpoints {

/// Arms `name`: every evaluation fires with `probability` (clamped to
/// [0, 1]), drawn from a generator seeded with `seed`. Re-arming resets
/// the generator and the counters.
void arm(std::string_view name, double probability, std::uint64_t seed);

/// Disarms one failpoint / all failpoints (counters reset).
void disarm(std::string_view name);
void disarm_all();

/// Number of times `name` fired / was evaluated since armed.
std::size_t fire_count(std::string_view name);
std::size_t evaluation_count(std::string_view name);

/// The macro's backend: true when `name` is armed and its draw fires.
/// Thread-safe; unarmed names return false without counting.
bool should_fire(std::string_view name);

/// Number of armed failpoints. Written by arm/disarm under the registry
/// mutex; read with a relaxed load by check() so an unarmed site skips
/// the registry. A test that arms before handing work to another thread
/// publishes the count through that hand-off.
inline std::atomic<std::size_t> armed_count{0};

/// The macro's body: false after one relaxed load while nothing is
/// armed, otherwise should_fire(name).
inline bool check(std::string_view name) {
  return armed_count.load(std::memory_order_relaxed) != 0 &&
         should_fire(name);
}

}  // namespace ftio::util::failpoints

#define FTIO_FAILPOINT(name) (::ftio::util::failpoints::check(name))
