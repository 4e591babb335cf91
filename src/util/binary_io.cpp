#include "util/binary_io.h"

#include <errno.h>
#include <unistd.h>

#include <array>
#include <bit>
#include <cstring>

#include "util/error.h"

namespace fs::util {

ssize_t read_eintr(int fd, void* buf, std::size_t bytes) {
  while (true) {
    const ssize_t n = ::read(fd, buf, bytes);
    if (n >= 0 || errno != EINTR) return n;
  }
}

ssize_t write_eintr(int fd, const void* buf, std::size_t bytes) {
  while (true) {
    const ssize_t n = ::write(fd, buf, bytes);
    if (n >= 0 || errno != EINTR) return n;
  }
}

bool write_all_eintr(int fd, const void* buf, std::size_t bytes) {
  const char* cursor = static_cast<const char*>(buf);
  std::size_t remaining = bytes;
  while (remaining > 0) {
    const ssize_t n = write_eintr(fd, cursor, remaining);
    if (n < 0) return false;
    cursor += n;
    remaining -= static_cast<std::size_t>(n);
  }
  return true;
}

int accept_eintr(int fd, struct sockaddr* addr, socklen_t* addr_len) {
  while (true) {
    const int conn = ::accept(fd, addr, addr_len);
    if (conn >= 0 || errno != EINTR) return conn;
  }
}

bool fsync_eintr(int fd) {
  while (true) {
    if (::fsync(fd) == 0) return true;
    if (errno != EINTR) return false;
  }
}

namespace {

/// Slicing-by-8 tables: kCrcTables[0] is the bytewise table of the
/// reflected polynomial 0xEDB88320; kCrcTables[k][i] is the CRC of byte i
/// followed by k zero bytes, so eight table lookups advance the CRC by
/// eight bytes at once.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k)
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  return tables;
}

constexpr CrcTables kCrcTables = make_crc_tables();

}  // namespace

std::uint32_t crc32(const void* data, std::size_t bytes, std::uint32_t seed) {
  const CrcTables& t = kCrcTables;
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  if constexpr (std::endian::native == std::endian::little) {
    for (; bytes >= 8; bytes -= 8, p += 8) {
      std::uint32_t lo = 0, hi = 0;
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + 4, 4);
      lo ^= c;
      c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
  }
  for (; bytes > 0; --bytes, ++p) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

void BinaryWriter::raw(const void* data, std::size_t bytes) {
  out_.write(static_cast<const char*>(data),
             static_cast<std::streamsize>(bytes));
  if (!out_) throw IoError("BinaryWriter: write failed");
  if (crc_active_) crc_.update(data, bytes);
}

void BinaryWriter::crc_begin() {
  crc_.reset();
  crc_active_ = true;
}

std::uint32_t BinaryWriter::crc_end() {
  crc_active_ = false;
  const std::uint32_t value = crc_.value();
  u64(value);
  return value;
}

void BinaryWriter::tag(const char (&name)[5]) { raw(name, 4); }

void BinaryWriter::u64(std::uint64_t value) { raw(&value, sizeof value); }
void BinaryWriter::i64(std::int64_t value) { raw(&value, sizeof value); }
void BinaryWriter::f64(double value) { raw(&value, sizeof value); }

void BinaryWriter::str(std::string_view value) {
  u64(value.size());
  if (!value.empty()) raw(value.data(), value.size());
}

void BinaryWriter::f64_vector(const std::vector<double>& values) {
  f64_span(values);
}

void BinaryWriter::f64_span(std::span<const double> values) {
  u64(values.size());
  f64_values(values);
}

void BinaryWriter::f64_values(std::span<const double> values) {
  if (!values.empty()) raw(values.data(), values.size_bytes());
}

void BinaryWriter::i32_vector(const std::vector<int>& values) {
  u64(values.size());
  if (!values.empty()) raw(values.data(), values.size() * sizeof(int));
}

void BinaryReader::raw(void* data, std::size_t bytes) {
  if (bytes > remaining_)
    throw CorruptCheckpoint("BinaryReader: read of " + std::to_string(bytes) +
                            " bytes past the end of the record");
  in_.read(static_cast<char*>(data), static_cast<std::streamsize>(bytes));
  if (static_cast<std::size_t>(in_.gcount()) != bytes)
    throw CorruptCheckpoint("BinaryReader: truncated stream");
  remaining_ -= bytes;
}

std::uint64_t BinaryReader::count(std::size_t min_item_bytes) {
  const std::uint64_t n = u64();
  if (n > (1ull << 32) || n > remaining_ / min_item_bytes)
    throw CorruptCheckpoint("BinaryReader: implausible count " +
                            std::to_string(n));
  return n;
}

void BinaryReader::expect_tag(const char (&name)[5]) {
  char found[4];
  raw(found, 4);
  if (std::memcmp(found, name, 4) != 0)
    throw CorruptCheckpoint(std::string("BinaryReader: expected tag '") +
                            name + "', found '" + std::string(found, 4) +
                            "'");
}

std::string BinaryReader::str() {
  const std::uint64_t size = count(1);
  std::string value(size, '\0');
  if (size) raw(value.data(), size);
  return value;
}

std::vector<double> BinaryReader::f64_vector() {
  const std::uint64_t size = count(sizeof(double));
  std::vector<double> values(size);
  if (size) raw(values.data(), size * sizeof(double));
  return values;
}

std::vector<int> BinaryReader::i32_vector() {
  const std::uint64_t size = count(sizeof(int));
  std::vector<int> values(size);
  if (size) raw(values.data(), size * sizeof(int));
  return values;
}

}  // namespace fs::util
