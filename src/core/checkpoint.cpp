#include "core/checkpoint.h"

#include <stdexcept>

#include "util/durable.h"
#include "util/failpoint.h"

namespace fs::core {

void save_pipeline_checkpoint(const std::string& path,
                              const CheckpointView& checkpoint) {
  if (!checkpoint.presence.trained())
    throw std::invalid_argument(
        "save_pipeline_checkpoint: presence model untrained");
  // A failed save never leaves a stray tmp file behind (the chaos harness
  // asserts exactly this invariant), and a power loss leaves either the
  // previous checkpoint or the complete new one.
  util::atomic_publish(
      path,
      [&](std::ostream& out) {
        util::write_sealed(out, "FSCP", kCheckpointVersion,
                           [&](util::BinaryWriter& writer) {
                             writer.u64(checkpoint.fingerprint);
                             writer.i64(checkpoint.iteration);
                             writer.i32_vector(checkpoint.predictions);
                             writer.f64_vector(checkpoint.scores);
                             checkpoint.presence.save(writer);
                           });
      },
      {.write = "checkpoint.save.io", .rename = "checkpoint.save.rename"});
}

void save_pipeline_checkpoint(const std::string& path,
                              const PipelineCheckpoint& checkpoint) {
  if (!checkpoint.presence.has_value())
    throw std::invalid_argument(
        "save_pipeline_checkpoint: presence model missing");
  const CheckpointView view{checkpoint.fingerprint, checkpoint.iteration,
                            checkpoint.predictions, checkpoint.scores,
                            *checkpoint.presence};
  save_pipeline_checkpoint(path, view);
}

PipelineCheckpoint load_pipeline_checkpoint(const std::string& path) {
  std::string bytes = util::read_file(path);
  // Fault injection: a torn write / short read drops the file's tail.
  bytes.resize(util::failpoint::truncate("checkpoint.load.truncate",
                                         bytes.size()));
  PipelineCheckpoint checkpoint;
  util::read_sealed(std::move(bytes), "FSCP", kCheckpointVersion,
                    [&](util::BinaryReader& reader) {
                      checkpoint.fingerprint = reader.u64();
                      checkpoint.iteration = static_cast<int>(reader.i64());
                      checkpoint.predictions = reader.i32_vector();
                      checkpoint.scores = reader.f64_vector();
                      checkpoint.presence.emplace(PresenceModel::load(reader));
                    });
  return checkpoint;
}

}  // namespace fs::core
