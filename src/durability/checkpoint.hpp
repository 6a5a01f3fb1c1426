#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "durability/durability.hpp"
#include "trace/model.hpp"

namespace ftio::durability {

/// Everything a shard checkpoints about one tenant. The session state
/// blob is opaque here (engine::StreamingSession::serialize_state
/// defines it); pending holds admitted-but-not-yet-materialized
/// requests of tenants below the service's materialize threshold.
struct TenantSnapshot {
  std::string name;
  bool poisoned = false;
  /// Highest journal sequence whose flush is reflected in this
  /// snapshot. Replay applies only records beyond it.
  std::uint64_t last_applied_seq = 0;
  std::vector<ftio::trace::IoRequest> pending;
  bool has_session = false;
  std::vector<std::uint8_t> session_state;
};

struct CheckpointData {
  /// Journal truncation floor: every record with seq <= floor is
  /// reflected in some tenant snapshot of this checkpoint (the minimum
  /// of the tenants' last_applied_seq at serialization time).
  std::uint64_t floor_seq = 0;
  std::vector<TenantSnapshot> tenants;
};

/// Serializes a checkpoint: a CRC-protected header (magic, version,
/// floor, tenant count) followed by one CRC32C frame per tenant —
/// [u32 len][u32 crc][payload] — so a single flipped bit costs one
/// tenant, not the file.
std::vector<std::uint8_t> encode_checkpoint(const CheckpointData& data);

/// Decodes a checkpoint byte image. Throws util::ParseError when the
/// header is invalid (the file is worthless); a corrupt tenant frame is
/// skipped and counted in stats.tenant_frames_skipped, keeping every
/// other tenant. Arbitrary bytes recover-or-reject without crashing or
/// over-allocating (fuzzed by fuzz_durability).
CheckpointData parse_checkpoint(std::span<const std::uint8_t> bytes,
                                RecoveryStats& stats);

/// Writes `checkpoint-<seq>.ckpt` under `directory` via the atomic
/// temp + fsync + rename + directory-fsync path, then prunes all but
/// the newest `options.keep_checkpoints` files. Throws util::IoError on
/// failure (the previous checkpoint file stays valid). Failpoints:
/// durability.checkpoint_write / checkpoint_fsync / checkpoint_rename.
void write_checkpoint_file(const std::filesystem::path& directory,
                           std::uint64_t seq,
                           std::span<const std::uint8_t> bytes,
                           const DurabilityOptions& options);

struct LoadedCheckpoint {
  CheckpointData data;
  std::uint64_t seq = 0;  ///< from the file name
};

/// Loads the newest parseable checkpoint under `directory`. A file that
/// fails to parse is quarantined (renamed `<name>.corrupt`, counted)
/// and the next-older one is tried; returns nullopt when none survive.
std::optional<LoadedCheckpoint> load_newest_checkpoint(
    const std::filesystem::path& directory, const DurabilityOptions& options,
    RecoveryStats& stats);

}  // namespace ftio::durability
