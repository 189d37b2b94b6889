// Little-endian binary codec underpinning the wire format (runtime/
// serialize.*) and the framed pipe protocol (util/pipe_io.*).
//
// Writer appends fixed-width little-endian scalars and length-prefixed
// strings to a byte buffer; Reader consumes them and throws DecodeError on
// any truncation or overrun, so a short or corrupted frame can never be
// silently misread as valid data. Floating-point values travel as their
// IEEE-754 bit patterns (std::bit_cast), which round-trips NaN payloads and
// infinities exactly.
#pragma once

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace loki::codec {

/// Malformed wire data: truncation, bad magic, unsupported version,
/// out-of-range enum values. Deliberately distinct from ParseError (user
/// spec files) and ConfigError (experiment configuration).
class DecodeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Writer {
 public:
  /// Owning mode: appends into an internal buffer, retrieved via take().
  Writer() = default;
  /// External-storage mode: appends to `out`, which the caller owns and
  /// which must outlive the Writer. This is the zero-copy framing path —
  /// a frame is encoded straight into a reusable buffer instead of being
  /// built in a temporary vector and copied over. take() is meaningless
  /// here; the caller already holds the bytes.
  explicit Writer(std::vector<std::uint8_t>& out) : ext_(&out) {}

  void u8(std::uint8_t v) { buf().push_back(v); }
  void u16(std::uint16_t v) { unsigned_le(v, 2); }
  void u32(std::uint32_t v) { unsigned_le(v, 4); }
  void u64(std::uint64_t v) { unsigned_le(v, 8); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(std::string_view s) {
    u64(s.size());
    buf().insert(buf().end(), s.begin(), s.end());
  }
  void bytes(const std::uint8_t* data, std::size_t n) {
    buf().insert(buf().end(), data, data + n);
  }

  /// Current append position — pair with patch_u64 for length prefixes
  /// whose value is only known after the payload is written.
  std::size_t size() const { return buf().size(); }
  /// Overwrite 8 bytes at `pos` (a slot previously written with u64).
  void patch_u64(std::size_t pos, std::uint64_t v) {
    std::vector<std::uint8_t>& b = buf();
    for (int i = 0; i < 8; ++i)
      b[pos + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(v >> (8 * i));
  }

  const std::vector<std::uint8_t>& data() const { return buf(); }
  std::vector<std::uint8_t> take() { return std::move(buf()); }

 private:
  std::vector<std::uint8_t>& buf() { return ext_ != nullptr ? *ext_ : own_; }
  const std::vector<std::uint8_t>& buf() const {
    return ext_ != nullptr ? *ext_ : own_;
  }
  void unsigned_le(std::uint64_t v, int width) {
    // Grow once, then store the bytes in place: one capacity check per
    // scalar and no range insert (measurable on the result-plane hot path,
    // BM_ResultBatchRoundTrip). Every caller passes a constant width, so the
    // loop folds to a single store on little-endian hosts.
    std::vector<std::uint8_t>& b = buf();
    const std::size_t at = b.size();
    b.resize(at + static_cast<std::size_t>(width));
    std::uint8_t* p = b.data() + at;
    for (int i = 0; i < width; ++i)
      p[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }

  std::vector<std::uint8_t> own_;
  std::vector<std::uint8_t>* ext_{nullptr};
};

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}
  explicit Reader(const std::vector<std::uint8_t>& buf)
      : Reader(buf.data(), buf.size()) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(unsigned_le(1)); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(unsigned_le(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(unsigned_le(4)); }
  std::uint64_t u64() { return unsigned_le(8); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  bool boolean() {
    const std::uint8_t v = u8();
    if (v > 1) throw DecodeError("codec: boolean byte out of range");
    return v == 1;
  }
  std::string str() {
    const std::uint64_t n = u64();
    require(n);
    std::string s(reinterpret_cast<const char*>(data_ + pos_),
                  static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }

  /// Advance past `n` bytes without interpreting them — for length-prefixed
  /// blobs handed to a nested decoder. Throws DecodeError on truncation.
  void skip(std::uint64_t n) {
    require(n);
    pos_ += static_cast<std::size_t>(n);
  }
  /// Bytes consumed so far — the offset of the next unread byte.
  std::size_t position() const { return pos_; }
  /// The underlying buffer (offset 0, not the cursor) — lets a caller key
  /// a memo table on the raw byte span between two positions (the decode
  /// interner in runtime/serialize.*).
  const std::uint8_t* data() const { return data_; }

  std::size_t remaining() const { return size_ - pos_; }
  bool done() const { return pos_ == size_; }
  /// Every decoder's final check: trailing garbage is as suspect as
  /// truncation.
  void expect_done() const {
    if (!done())
      throw DecodeError("codec: " + std::to_string(remaining()) +
                        " unconsumed trailing bytes");
  }

 private:
  void require(std::uint64_t n) const {
    if (n > size_ - pos_) throw_truncated(n, size_ - pos_);
  }
  /// Out of line and cold, so the checks above stay a compare and a branch
  /// inside every inlined scalar read.
  [[noreturn]] [[gnu::cold]] [[gnu::noinline]] static void throw_truncated(
      std::uint64_t need, std::size_t have) {
    throw DecodeError("codec: truncated input (need " + std::to_string(need) +
                      " bytes, have " + std::to_string(have) + ")");
  }
  std::uint64_t unsigned_le(int width) {
    require(static_cast<std::uint64_t>(width));
    const std::uint8_t* p = data_ + pos_;
    std::uint64_t v = 0;
    for (int i = 0; i < width; ++i)
      v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    pos_ += static_cast<std::size_t>(width);
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_{0};
};

}  // namespace loki::codec
