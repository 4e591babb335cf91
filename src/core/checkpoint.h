// Checksummed checkpoint/resume for the phase-2 refinement loop.
//
// After each phase-2 iteration the pipeline can persist its working state
// (trained phase-1 model, current pair predictions/scores, iteration
// counter) so a long attack run survives crashes: resume re-derives the
// deterministic parts (spatial division, JOCs) and continues from the last
// completed iteration.
//
// File format: a sealed envelope (util/durable.h; DESIGN.md "Error
// handling & fault injection") tagged "FSCP", whose CRC32 region holds
//
//   u64               config/dataset fingerprint
//   i64               completed iteration
//   i32_vector        predictions over the candidate-pair universe
//   f64_vector        decision scores over the universe
//   PresenceModel     trained phase-1 model (its own tagged records)
//
// Any mismatch — magic, version, fingerprint, truncation, checksum —
// throws fs::CorruptCheckpoint; the caller restarts cleanly instead of
// resuming from garbage.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/presence.h"

namespace fs::core {

inline constexpr std::uint64_t kCheckpointVersion = 1;

struct PipelineCheckpoint {
  /// Hash of the run configuration + dataset shape; a resume against a
  /// different run is rejected as corrupt rather than silently mixed in.
  std::uint64_t fingerprint = 0;
  int iteration = 0;  // last completed phase-2 iteration
  std::vector<int> predictions;
  std::vector<double> scores;
  std::optional<PresenceModel> presence;
};

/// The state a save reads, by reference: a running pipeline checkpoints
/// its live model and vectors without copying them.
struct CheckpointView {
  std::uint64_t fingerprint = 0;
  int iteration = 0;
  const std::vector<int>& predictions;
  const std::vector<double>& scores;
  const PresenceModel& presence;
};

/// Publishes atomically through util::atomic_publish. Throws fs::IoError on
/// failure, std::invalid_argument if the presence model is untrained.
void save_pipeline_checkpoint(const std::string& path,
                              const CheckpointView& checkpoint);

/// The same record from an owned checkpoint; its presence model must be
/// set.
void save_pipeline_checkpoint(const std::string& path,
                              const PipelineCheckpoint& checkpoint);

/// Throws fs::CorruptCheckpoint on any structural problem, fs::IoError if
/// the file cannot be opened.
PipelineCheckpoint load_pipeline_checkpoint(const std::string& path);

}  // namespace fs::core
