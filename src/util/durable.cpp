#include "util/durable.h"

#include <errno.h>
#include <fcntl.h>
#include <libgen.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/error.h"
#include "util/failpoint.h"

namespace fs::util {
namespace {

constexpr std::size_t kSealHeaderBytes = 4 + sizeof(std::uint64_t);
constexpr std::size_t kSealTrailerBytes = sizeof(std::uint64_t);

/// Opens `path` with `flags`, fsyncs it and closes it.
bool fsync_opened(const char* path, int flags) {
  const int fd = ::open(path, flags);
  if (fd < 0) return false;
  const bool ok = fsync_eintr(fd);
  ::close(fd);
  return ok;
}

}  // namespace

void atomic_publish(const std::string& path,
                    const std::function<void(std::ostream&)>& write,
                    const PublishFaults& faults) {
  const std::string tmp = path + ".tmp";
  try {
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      if (!out) throw IoError("cannot open " + tmp);
      if (faults.write != nullptr && failpoint::fail(faults.write))
        throw IoError(std::string(faults.write) + ": injected failure for " +
                      tmp);
      write(out);
      out.close();
      if (!out) throw IoError("write failed for " + tmp);
    }
    if (!fsync_opened(tmp.c_str(), O_RDONLY))
      throw IoError("fsync failed for " + tmp);
    if (faults.rename != nullptr && failpoint::fail(faults.rename))
      throw IoError(std::string(faults.rename) + ": injected failure for " +
                    path);
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
      throw IoError("rename to " + path + " failed: " + std::strerror(errno));
  } catch (...) {
    std::remove(tmp.c_str());
    throw;
  }
  // The rename is durable once the parent directory's entry is. dirname
  // may modify its argument, so it gets a scratch copy.
  std::string dir = path;
  if (!fsync_opened(::dirname(dir.data()), O_RDONLY | O_DIRECTORY))
    throw IoError("directory fsync failed for " + path);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open " + path);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return std::move(bytes).str();
}

void write_sealed(std::ostream& out, const char (&tag)[5],
                  std::uint64_t version,
                  const std::function<void(BinaryWriter&)>& body) {
  BinaryWriter writer(out);
  writer.tag(tag);
  writer.u64(version);
  writer.crc_begin();
  body(writer);
  writer.crc_end();
}

void read_sealed(std::string bytes, const char (&tag)[5],
                 std::uint64_t version,
                 const std::function<void(BinaryReader&)>& body) {
  const std::string name = std::string(tag) + ": ";
  if (bytes.size() < kSealHeaderBytes + kSealTrailerBytes)
    throw CorruptCheckpoint(name + "truncated at " +
                            std::to_string(bytes.size()) + " bytes");
  if (bytes.compare(0, 4, tag) != 0)
    throw CorruptCheckpoint(name + "wrong tag '" + bytes.substr(0, 4) + "'");
  std::uint64_t found_version = 0;
  std::memcpy(&found_version, bytes.data() + 4, sizeof found_version);
  if (found_version != version)
    throw CorruptCheckpoint(name + "unsupported version " +
                            std::to_string(found_version));
  const std::size_t region =
      bytes.size() - kSealHeaderBytes - kSealTrailerBytes;
  std::uint64_t stored = 0;
  std::memcpy(&stored, bytes.data() + kSealHeaderBytes + region,
              sizeof stored);
  if (stored != crc32(bytes.data() + kSealHeaderBytes, region))
    throw CorruptCheckpoint(name + "CRC mismatch");

  std::istringstream in(std::move(bytes), std::ios::binary);
  in.seekg(kSealHeaderBytes);
  BinaryReader reader(in, region);
  body(reader);
  if (reader.remaining() != 0)
    throw CorruptCheckpoint(name + std::to_string(reader.remaining()) +
                            " unread bytes in the sealed region");
}

}  // namespace fs::util
