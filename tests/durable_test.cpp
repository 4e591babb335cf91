// The durable-file layer (util/durable.h): atomic_publish's commit and
// cleanup semantics, typed failures for every publisher, and the bytes of
// every format it writes pinned to digests taken before the layer existed.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "durable_fixtures.h"
#include "eval/digest.h"
#include "util/durable.h"
#include "util/error.h"
#include "util/failpoint.h"

namespace fs {
namespace {

namespace fx = durable_fixtures;

std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/fs_durable_test/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string file_digest(const std::string& path) {
  return eval::text_digest(util::read_file(path));
}

// The digests were taken from the per-format writers this layer replaced;
// a mismatch means an on-disk format changed.
TEST(DurableFormats, PinnedBytesAreUnchanged) {
  const std::string dir = fresh_dir("pinned");
  core::save_pipeline_checkpoint(dir + "/checkpoint.fsck",
                                 fx::fixed_checkpoint());
  stream::save_snapshot(dir + "/snapshot.fss", fx::fixed_snapshot());
  fx::write_fixed_journal(dir + "/journal.fsj");

  EXPECT_EQ(std::filesystem::file_size(dir + "/checkpoint.fsck"), 956u);
  EXPECT_EQ(file_digest(dir + "/checkpoint.fsck"), "54b46bd9d605e7ea");
  EXPECT_EQ(std::filesystem::file_size(dir + "/snapshot.fss"), 350u);
  EXPECT_EQ(file_digest(dir + "/snapshot.fss"), "8f9d993effe5d4f4");
  EXPECT_EQ(std::filesystem::file_size(dir + "/journal.fsj"), 314u);
  EXPECT_EQ(file_digest(dir + "/journal.fsj"), "60732a03eb31977d");
}

TEST(AtomicPublish, ReplacesTheFileAndLeavesNoTmp) {
  const std::string dir = fresh_dir("replace");
  const std::string path = dir + "/artifact";
  util::atomic_publish(path, [](std::ostream& out) { out << "first"; });
  util::atomic_publish(path, [](std::ostream& out) { out << "second"; });
  EXPECT_EQ(util::read_file(path), "second");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(AtomicPublish, WriterExceptionKeepsTheOldFileAndRemovesTmp) {
  const std::string dir = fresh_dir("writer_throws");
  const std::string path = dir + "/artifact";
  util::atomic_publish(path, [](std::ostream& out) { out << "old"; });
  EXPECT_THROW(util::atomic_publish(path,
                                    [](std::ostream& out) {
                                      out << "half";
                                      throw std::logic_error("writer bug");
                                    }),
               std::logic_error);
  EXPECT_EQ(util::read_file(path), "old");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(AtomicPublish, FailpointsMapToIoError) {
  const std::string dir = fresh_dir("failpoints");
  const std::string path = dir + "/artifact";
  const util::PublishFaults faults{.write = "checkpoint.save.io",
                                   .rename = "checkpoint.save.rename"};
  const auto publish = [&] {
    util::atomic_publish(path, [](std::ostream& out) { out << "x"; }, faults);
  };
  for (const char* name : {"checkpoint.save.io", "checkpoint.save.rename"}) {
    util::failpoint::clear();
    util::failpoint::activate(name, util::failpoint::Action::kError, 1);
    EXPECT_THROW(publish(), IoError) << name;
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp")) << name;
    EXPECT_FALSE(std::filesystem::exists(path)) << name;
  }
  util::failpoint::clear();
}

// A process that died between writing the tmp and renaming it leaves the
// tmp behind; the restart's publish writes over it.
TEST(AtomicPublish, RestartPublishesOverADeadProcessTmp) {
  const std::string dir = fresh_dir("stale_tmp");
  const std::string path = dir + "/artifact";
  std::ofstream(path + ".tmp", std::ios::binary) << "torn bytes of a dead run";
  util::atomic_publish(path, [](std::ostream& out) { out << "x"; });
  EXPECT_EQ(util::read_file(path), "x");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

// Every publisher reports a failed rename as IoError and cleans up: here
// the final path is held by a non-empty directory.
TEST(AtomicPublish, EveryPublisherFailsTypedOntoADirectory) {
  const std::string dir = fresh_dir("onto_directory");
  const auto blocked = [&](const std::string& name) {
    const std::string path = dir + "/" + name;
    std::filesystem::create_directories(path);
    std::ofstream(path + "/occupant") << "x";
    return path;
  };

  const std::string checkpoint = blocked("checkpoint.fsck");
  EXPECT_THROW(
      core::save_pipeline_checkpoint(checkpoint, fx::fixed_checkpoint()),
      IoError);
  EXPECT_FALSE(std::filesystem::exists(checkpoint + ".tmp"));

  const std::string snapshot = blocked("snapshot.fss");
  EXPECT_THROW(stream::save_snapshot(snapshot, fx::fixed_snapshot()),
               IoError);
  EXPECT_FALSE(std::filesystem::exists(snapshot + ".tmp"));
}

}  // namespace
}  // namespace fs
