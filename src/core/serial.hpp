// Binary serialization primitives shared by the checkpoint/journal layer
// (src/persist/) and the state-snapshot hooks on Dispatcher, BinState, and
// the policies.
//
// The encoding is deliberately dumb: little-endian fixed-width integers and
// raw IEEE-754 bit patterns for doubles. Raw bits matter: recovery must
// reproduce bin loads and timestamps *bit-exactly* (a 1-ulp difference in a
// load component can flip a future fits() decision and fork the packing),
// so floating-point values are never round-tripped through text.
//
// Reader errors are typed (SerialError) and every read is bounds-checked --
// this code parses bytes that may come from a torn or corrupted file, so an
// overrun must surface as an exception, never as UB.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace dvbp::serial {

// The wire format (journal segments, checkpoints, and the network frames of
// src/net/) is little-endian with raw IEEE-754 float bits. Writer/Reader
// assemble integers byte-by-byte, so they would work on any host, but the
// persisted artifacts and the RPC protocol are *defined* as little-endian
// IEEE-754 -- assert the assumptions a port would have to revisit instead
// of silently shipping frames a big-endian or non-IEC-559 host cannot
// exchange with the rest of the fleet. (Round-trip coverage lives in
// tests/test_net_frame.cpp.)
static_assert(std::endian::native == std::endian::little,
              "dvbp wire format is little-endian; big-endian hosts need "
              "byte-order conversion audited before this assert is relaxed");
static_assert(std::numeric_limits<double>::is_iec559 &&
                  sizeof(double) == 8,
              "dvbp wire format stores raw IEEE-754 binary64 bit patterns");
static_assert(std::numeric_limits<float>::is_iec559 &&
                  sizeof(float) == 4,
              "dvbp wire format assumes IEEE-754 binary32 floats");

/// Thrown by Reader on malformed input (overrun, oversized string, ...).
class SerialError : public std::runtime_error {
 public:
  explicit SerialError(const std::string& what) : std::runtime_error(what) {}
};

/// Appends fixed-width little-endian values to a growable byte buffer.
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }

  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  /// Raw IEEE-754 bit pattern (see file comment: never through text).
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  /// Length-prefixed nested blob (e.g. a policy's opaque state).
  void blob(const std::vector<std::uint8_t>& b) {
    u32(static_cast<std::uint32_t>(b.size()));
    buf_.insert(buf_.end(), b.begin(), b.end());
  }

  const std::vector<std::uint8_t>& bytes() const noexcept { return buf_; }
  std::vector<std::uint8_t> take() noexcept { return std::move(buf_); }
  std::size_t size() const noexcept { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked reader over a borrowed byte range.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t len)
      : data_(data), len_(len) {}
  explicit Reader(const std::vector<std::uint8_t>& buf)
      : Reader(buf.data(), buf.size()) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  double f64() { return std::bit_cast<double>(u64()); }

  std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

  std::vector<std::uint8_t> blob() {
    const std::uint32_t n = u32();
    need(n);
    std::vector<std::uint8_t> b(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
    return b;
  }

  std::size_t remaining() const noexcept { return len_ - pos_; }
  bool done() const noexcept { return pos_ == len_; }

 private:
  void need(std::size_t n) const {
    if (len_ - pos_ < n) {
      throw SerialError("serial::Reader: truncated input (need " +
                        std::to_string(n) + " bytes, have " +
                        std::to_string(len_ - pos_) + ")");
    }
  }

  const std::uint8_t* data_;
  std::size_t len_;
  std::size_t pos_ = 0;
};

/// CRC-32 (IEEE 802.3, reflected, init/xorout 0xFFFFFFFF) -- the checksum
/// framing every journal frame, checkpoint file, trace file and wire
/// message. Detects all single-byte corruptions and all burst errors up to
/// 32 bits, which is what the torn-tail fuzz test
/// (tests/test_persist_recovery.cpp) leans on. `seed` chains:
/// crc32(b, crc32(a)) == crc32(a || b).
///
/// Sliced by eight: each step folds one unaligned 8-byte little-endian load
/// through eight tables, and the last len % 8 bytes go one at a time. It
/// returns exactly the values of the one-table byte-at-a-time loop, which
/// tests/test_persist.cpp keeps as its reference and compares at every
/// length 0..256 from every start offset 0..7.
inline std::uint32_t crc32(const std::uint8_t* data, std::size_t len,
                           std::uint32_t seed = 0) noexcept {
  // Row 0 is the classic one-byte table; row k carries a byte's remainder
  // through k further zero bytes, so one lookup per row folds eight input
  // bytes into the CRC at once.
  static constexpr auto t = [] {
    std::array<std::array<std::uint32_t, 256>, 8> rows{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      rows[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
      for (std::size_t i = 0; i < 256; ++i) {
        rows[k][i] = (rows[k - 1][i] >> 8) ^ rows[0][rows[k - 1][i] & 0xFFu];
      }
    }
    return rows;
  }();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; len >= 8; data += 8, len -= 8) {
    std::uint64_t v;
    std::memcpy(&v, data, 8);
    v ^= c;
    c = t[7][v & 0xFFu] ^ t[6][(v >> 8) & 0xFFu] ^ t[5][(v >> 16) & 0xFFu] ^
        t[4][(v >> 24) & 0xFFu] ^ t[3][(v >> 32) & 0xFFu] ^
        t[2][(v >> 40) & 0xFFu] ^ t[1][(v >> 48) & 0xFFu] ^ t[0][v >> 56];
  }
  for (; len > 0; ++data, --len) {
    c = t[0][(c ^ *data) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

inline std::uint32_t crc32(const std::vector<std::uint8_t>& buf) noexcept {
  return crc32(buf.data(), buf.size());
}

}  // namespace dvbp::serial
