#pragma once

#include <cstddef>
#include <cstdint>

namespace ftio::fuzz {

/// Fuzz entry point over the discretise → detect pipeline and the
/// streaming session.
///
/// The input bytes are decoded as a bounded event program: a small
/// option header (sampling mode, detector set, triage/compaction
/// switches) followed by up to a few hundred I/O requests whose gaps,
/// durations, byte counts, and ranks are folded into sane finite
/// ranges. The harness first checks that trace::bandwidth_signal and a
/// trace::IncrementalBandwidth fed the same requests build bit-identical
/// curves, then runs the offline core::detect pipeline and a chunked
/// StreamingSession ingest/predict loop over the same requests.
/// InvalidArgument (e.g. a window shorter than one sample) is the
/// documented rejection path and counts as success; anything else —
/// crashes, sanitizer reports, FTIO_ASSERT/FTIO_CONTRACT violations in
/// the signal/core/engine layers — is a finding.
///
/// Returns 0 (libFuzzer convention); aborts on a property violation.
int ftio_fuzz_pipeline(const std::uint8_t* data, std::size_t size);

}  // namespace ftio::fuzz
