#include "core/checkpoint.h"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/binary_io.h"
#include "util/error.h"
#include "util/failpoint.h"

namespace fs::core {

void save_pipeline_checkpoint(const std::string& path,
                              const PipelineCheckpoint& checkpoint) {
  if (!checkpoint.presence.has_value() ||
      !checkpoint.presence->trained())
    throw std::invalid_argument(
        "save_pipeline_checkpoint: presence model missing or untrained");
  if (util::failpoint::fail("checkpoint.save.io"))
    throw IoError("save_pipeline_checkpoint: injected write failure for " +
                  path);

  // Serialize into memory first: a crash mid-write must never leave a
  // half-formed file at the final path.
  std::ostringstream buffer(std::ios::binary);
  {
    util::BinaryWriter writer(buffer);
    writer.tag("FSCP");
    writer.u64(kCheckpointVersion);
    writer.crc_begin();
    writer.u64(checkpoint.fingerprint);
    writer.i64(checkpoint.iteration);
    writer.i32_vector(checkpoint.predictions);
    writer.f64_vector(checkpoint.scores);
    checkpoint.presence->save(writer);
    writer.crc_end();
  }

  // Write to a sibling temp file and rename into place; any failure after
  // the temp file exists removes it again, so a failed save never leaves a
  // stray .tmp behind (the chaos harness asserts exactly this invariant).
  // The tmp's bytes are synced before the rename publishes them, and the
  // parent directory after it, so a power loss leaves either the previous
  // checkpoint or the complete new one — never a torn file under the name.
  const std::string tmp_path = path + ".tmp";
  try {
    {
      std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
      if (!out)
        throw IoError("save_pipeline_checkpoint: cannot open " + tmp_path);
      const std::string bytes = buffer.str();
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      if (!out.flush())
        throw IoError("save_pipeline_checkpoint: write failed for " +
                      tmp_path);
    }
    if (!util::fsync_path(tmp_path))
      throw IoError("save_pipeline_checkpoint: fsync failed for " +
                    tmp_path);
    if (util::failpoint::fail("checkpoint.save.rename"))
      throw IoError("save_pipeline_checkpoint: injected rename failure for " +
                    path);
    std::error_code ec;
    std::filesystem::rename(tmp_path, path, ec);
    if (ec)
      throw IoError("save_pipeline_checkpoint: rename to " + path +
                    " failed: " + ec.message());
    if (!util::fsync_parent_dir(path))
      throw IoError("save_pipeline_checkpoint: directory fsync failed for " +
                    path);
  } catch (...) {
    std::error_code ignored;
    std::filesystem::remove(tmp_path, ignored);
    throw;
  }
}

PipelineCheckpoint load_pipeline_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("load_pipeline_checkpoint: cannot open " + path);
  std::ostringstream raw;
  raw << in.rdbuf();
  std::string bytes = raw.str();
  // Fault injection: a torn write / short read drops the file's tail.
  bytes.resize(util::failpoint::truncate("checkpoint.load.truncate",
                                         bytes.size()));

  std::istringstream stream(bytes, std::ios::binary);
  util::BinaryReader reader(stream);
  PipelineCheckpoint checkpoint;
  try {
    reader.expect_tag("FSCP");
    const std::uint64_t version = reader.u64();
    if (version != kCheckpointVersion)
      throw CorruptCheckpoint(
          "load_pipeline_checkpoint: unsupported version " +
          std::to_string(version));
    reader.crc_begin();
    checkpoint.fingerprint = reader.u64();
    checkpoint.iteration = static_cast<int>(reader.i64());
    checkpoint.predictions = reader.i32_vector();
    checkpoint.scores = reader.f64_vector();
    checkpoint.presence.emplace(PresenceModel::load(reader));
    reader.crc_end();
  } catch (const CorruptCheckpoint&) {
    throw;
  } catch (const std::exception& e) {
    // Truncation, tag mismatches, implausible sizes — every structural
    // defect surfaces as the one code callers branch on.
    throw CorruptCheckpoint(std::string("load_pipeline_checkpoint: ") +
                            e.what());
  }
  return checkpoint;
}

}  // namespace fs::core
