// Tagged little-endian binary serialization for trained models.
//
// The format is deliberately simple: every record starts with a 4-byte tag
// so version/type mismatches fail loudly at the exact field, not as
// corrupted numbers downstream. Host endianness is assumed (the project
// targets a single machine; files are a cache, not an interchange format).
//
// Durable artifacts wrap these records in the sealed envelope of
// util/durable.h, whose writer checksums its region through crc_begin() /
// crc_end() and whose reader verifies that CRC before decoding. Every
// defect the reader meets — a wrong tag, a short stream, a length or count
// past the bytes left — throws fs::CorruptCheckpoint.
#pragma once

#include <sys/socket.h>
#include <sys/types.h>

#include <cstdint>
#include <istream>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace fs::util {

// ---- EINTR-safe POSIX I/O ----------------------------------------------
// Raw read/write/accept return EINTR whenever a signal lands mid-call —
// which, in a process that installs SIGINT/SIGTERM handlers (the CLI does),
// means every unwrapped syscall is a latent truncated read or lost accept.
// All fd-based I/O in this repo (stream journal, tail source, fs::net
// sockets) goes through these helpers.

/// read(2), retried on EINTR. Returns bytes read (0 = EOF) or -1 with errno
/// set to the first non-EINTR error.
ssize_t read_eintr(int fd, void* buf, std::size_t bytes);

/// write(2), retried on EINTR. May still write short (not an error);
/// callers that need the full buffer use write_all_eintr.
ssize_t write_eintr(int fd, const void* buf, std::size_t bytes);

/// Writes the whole buffer, looping over short writes and EINTR. Returns
/// false (errno set) on the first hard error.
bool write_all_eintr(int fd, const void* buf, std::size_t bytes);

/// accept(2), retried on EINTR. Returns the new fd or -1 with errno set to
/// the first non-EINTR error (EAGAIN/EWOULDBLOCK included — callers on
/// non-blocking listeners check for it).
int accept_eintr(int fd, struct sockaddr* addr, socklen_t* addr_len);

/// fsync(2), retried on EINTR. Returns false (errno set) on hard error.
bool fsync_eintr(int fd);

/// CRC-32 (IEEE 802.3, the zlib polynomial), one-shot over a buffer.
std::uint32_t crc32(const void* data, std::size_t bytes,
                    std::uint32_t seed = 0);

/// Incremental CRC-32 accumulator.
class Crc32 {
 public:
  void update(const void* data, std::size_t bytes) {
    value_ = crc32(data, bytes, value_);
  }
  std::uint32_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::uint32_t value_ = 0;
};

/// True when a decoded flat buffer of `size` values is exactly a
/// rows x cols matrix. Never forms rows * cols, which a hostile record can
/// make wrap to the buffer's size.
inline bool flat_matches_shape(std::size_t size, std::uint64_t rows,
                               std::uint64_t cols) {
  return cols == 0 ? size == 0 : size % cols == 0 && size / cols == rows;
}

class BinaryWriter {
 public:
  explicit BinaryWriter(std::ostream& out) : out_(out) {}

  void tag(const char (&name)[5]);  // 4 chars + NUL
  void u64(std::uint64_t value);
  void i64(std::int64_t value);
  void f64(double value);
  void str(std::string_view value);
  void f64_vector(const std::vector<double>& values);
  void i32_vector(const std::vector<int>& values);
  /// The f64_vector record of any contiguous run of doubles: a u64 count,
  /// then the values.
  void f64_span(std::span<const double> values);
  /// The values alone, no count: a caller streams one f64_vector record in
  /// pieces after writing its u64 count itself.
  void f64_values(std::span<const double> values);

  /// Starts checksumming subsequent writes.
  void crc_begin();
  /// Stops checksumming, writes the CRC32 as a u64 record, returns it.
  std::uint32_t crc_end();

 private:
  void raw(const void* data, std::size_t bytes);
  std::ostream& out_;
  Crc32 crc_;
  bool crc_active_ = false;
};

class BinaryReader {
 public:
  /// Reads from `in`. A caller that knows how many bytes are left passes
  /// them as `limit`, and no read may then go past it.
  explicit BinaryReader(std::istream& in, std::uint64_t limit = kUnbounded)
      : in_(in), remaining_(limit) {}

  static constexpr std::uint64_t kUnbounded = ~std::uint64_t{0};

  /// Reads 4 bytes and throws on mismatch.
  void expect_tag(const char (&name)[5]);

  std::uint64_t u64() { return scalar<std::uint64_t>(); }
  std::int64_t i64() { return scalar<std::int64_t>(); }
  double f64() { return scalar<double>(); }
  std::string str();
  std::vector<double> f64_vector();
  std::vector<int> i32_vector();

  /// Reads a u64 count of items that take at least `min_item_bytes` each,
  /// and throws if it exceeds 2^32 or what the bytes left could hold. Call
  /// before sizing a container by it.
  std::uint64_t count(std::size_t min_item_bytes);

  std::uint64_t remaining() const { return remaining_; }

 private:
  template <typename T>
  T scalar() {
    T value;
    raw(&value, sizeof value);
    return value;
  }
  void raw(void* data, std::size_t bytes);
  std::istream& in_;
  std::uint64_t remaining_;
};

}  // namespace fs::util
