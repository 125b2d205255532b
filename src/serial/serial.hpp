// Portable binary serialization: the jacepp "wire format".
//
// Every protocol message body and every Task checkpoint (Backup) is encoded
// through Writer/Reader, in both the simulator and the threaded runtime, so the
// exact code path a socket deployment would use is always exercised.
//
// Encoding rules:
//   * fixed-width integers little-endian;
//   * unsigned varint (LEB128) for lengths and u64 varints;
//   * doubles as IEEE-754 bit patterns;
//   * containers as varint length + elements;
//   * a wire type declares its fields ONCE, in wire order, in a field list
//     that serves both directions:
//
//       template <typename S, typename F>
//       static void fields(S& s, F&& f) { f(s.app_id, s.task_id, s.state); }
//
//     and write()/read() below derive each field's encoding from its C++
//     type: bool -> boolean, u8 and one-byte enums -> u8, u32/u64/double ->
//     u32/u64/f64, std::string -> str, Bytes -> bytes, std::vector<u32> ->
//     u32_vector, a vector of wire types -> varint count + elements, a nested
//     wire type -> its own field list;
//   * a type whose layout is not a fixed field list (application configs
//     and matrices, which the Task API leaves to the application) instead
//     provides `void serialize(Writer&) const` and
//     `static T deserialize(Reader&)`; write()/read() fall back to that pair.
//
// Reader never reads out of bounds: all failures surface via ok()/error() and
// reads after failure return zero values (monadic poisoning), so decoding
// malformed input is always safe.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <string>
#include <type_traits>
#include <vector>

#include "support/assert.hpp"

namespace jacepp::serial {

using Bytes = std::vector<std::uint8_t>;

/// Encoded byte length of varint(v) — for computing field offsets inside an
/// encoding without writing it (delta-checkpoint dirty-range layout math).
inline std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

class Writer {
 public:
  Writer() = default;

  /// Adopt a recycled buffer (serial/buffer_pool.hpp): content is discarded,
  /// capacity is kept, so encoding into it usually allocates nothing.
  explicit Writer(Bytes seed) : buffer_(std::move(seed)) { buffer_.clear(); }

  void u8(std::uint8_t v) { buffer_.push_back(v); }

  void u16(std::uint16_t v) {
    buffer_.push_back(static_cast<std::uint8_t>(v));
    buffer_.push_back(static_cast<std::uint8_t>(v >> 8));
  }

  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buffer_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buffer_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

  void boolean(bool v) { u8(v ? 1 : 0); }

  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }

  /// Unsigned LEB128 varint.
  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      buffer_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    buffer_.push_back(static_cast<std::uint8_t>(v));
  }

  void str(const std::string& s) {
    varint(s.size());
    buffer_.insert(buffer_.end(), s.begin(), s.end());
  }

  void bytes(const Bytes& b) { bytes(b.data(), b.size()); }

  /// Same encoding as bytes(Bytes) for a span of a larger buffer, so callers
  /// can write a slice without copying it into a temporary first.
  void bytes(const std::uint8_t* data, std::size_t size) {
    varint(size);
    buffer_.insert(buffer_.end(), data, data + size);
  }

  /// Vector of doubles: varint length + raw IEEE-754 payload. Templated over
  /// the allocator so over-aligned kernel vectors (linalg::Vector,
  /// support/aligned.hpp) encode through the same bulk path — the wire format
  /// does not change with the storage alignment.
  template <typename Alloc>
  void f64_vector(const std::vector<double, Alloc>& v) {
    varint(v.size());
    append_le(v.data(), v.size());
  }

  /// Braced-list convenience: `{1.0, 2.0}` cannot deduce the allocator above.
  void f64_vector(std::initializer_list<double> v) {
    varint(v.size());
    append_le(v.begin(), v.size());
  }

  /// Same encoding for a span of a larger vector, so a slice is written
  /// without copying it into a temporary first.
  void f64_vector(const double* data, std::size_t count) {
    varint(count);
    append_le(data, count);
  }

  void u32_vector(const std::vector<std::uint32_t>& v) {
    varint(v.size());
    append_le(v.data(), v.size());
  }

  void u64_vector(const std::vector<std::uint64_t>& v) {
    varint(v.size());
    append_le(v.data(), v.size());
  }

  /// Pre-size the buffer for an encoding whose length is known up front.
  void reserve(std::size_t n) { buffer_.reserve(n); }

  [[nodiscard]] const Bytes& data() const { return buffer_; }
  [[nodiscard]] Bytes take() { return std::move(buffer_); }
  [[nodiscard]] std::size_t size() const { return buffer_.size(); }

 private:
  /// Bulk little-endian append: one memcpy on little-endian hosts (the wire
  /// format IS little-endian), element-wise byte shuffling otherwise.
  template <typename T>
  void append_le(const T* values, std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (count == 0) return;  // memcpy must not see an empty vector's null
    if constexpr (std::endian::native == std::endian::little) {
      const std::size_t old = buffer_.size();
      buffer_.resize(old + count * sizeof(T));
      std::memcpy(buffer_.data() + old, values, count * sizeof(T));
    } else {
      for (std::size_t i = 0; i < count; ++i) {
        std::uint64_t bits;
        if constexpr (std::is_same_v<T, double>) {
          bits = std::bit_cast<std::uint64_t>(values[i]);
        } else {
          bits = static_cast<std::uint64_t>(values[i]);
        }
        for (std::size_t b = 0; b < sizeof(T); ++b) {
          buffer_.push_back(static_cast<std::uint8_t>(bits >> (8 * b)));
        }
      }
    }
  }

  Bytes buffer_;
};

class Reader {
 public:
  explicit Reader(const Bytes& data) : data_(data.data()), size_(data.size()) {}
  Reader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }
  [[nodiscard]] bool exhausted() const { return pos_ == size_; }
  /// Why the reader was poisoned ("" while ok()). A static string, so a
  /// failing decode allocates nothing.
  [[nodiscard]] const char* error() const { return error_; }

  std::uint8_t u8() {
    if (!require(1)) return 0;
    return data_[pos_++];
  }

  std::uint16_t u16() {
    if (!require(2)) return 0;
    std::uint16_t v = static_cast<std::uint16_t>(data_[pos_]) |
                      static_cast<std::uint16_t>(data_[pos_ + 1]) << 8;
    pos_ += 2;
    return v;
  }

  std::uint32_t u32() {
    if (!require(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 4;
    return v;
  }

  std::uint64_t u64() {
    if (!require(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 8;
    return v;
  }

  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  bool boolean() {
    std::uint8_t v = u8();
    if (ok_ && v > 1) poison("invalid boolean byte");
    return v == 1;
  }

  double f64() {
    std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  std::uint64_t varint() {
    std::uint64_t v = 0;
    int shift = 0;
    while (true) {
      if (!require(1)) return 0;
      std::uint8_t byte = data_[pos_++];
      if (shift == 63 && (byte & 0x7e) != 0) {
        poison("varint overflow");
        return 0;
      }
      v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) break;
      shift += 7;
      if (shift > 63) {
        poison("varint too long");
        return 0;
      }
    }
    return v;
  }

  std::string str() {
    std::uint64_t len = varint();
    if (!ok_ || !require(len)) return {};
    std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return s;
  }

  Bytes bytes() {
    const std::uint64_t len = varint();
    if (!ok_) return {};
    // Clamp against the remaining payload BEFORE allocating: an adversarial
    // length must poison the reader, not attempt a multi-gigabyte allocation.
    if (len > remaining()) {
      poison("bytes length exceeds payload");
      return {};
    }
    Bytes b(data_ + pos_, data_ + pos_ + len);
    pos_ += len;
    return b;
  }

  /// Decode a double vector. The vector type is a template parameter so call
  /// sites can decode straight into an over-aligned container
  /// (`r.f64_vector<linalg::Vector>()`); the default keeps the historical
  /// std::vector<double> return.
  template <typename Vec = std::vector<double>>
  Vec f64_vector() {
    static_assert(std::is_same_v<typename Vec::value_type, double>);
    return vector_le<Vec>();
  }

  /// Decode a double vector into `out`, reusing its storage: nothing is
  /// allocated when out.capacity() covers the count. The count is capped
  /// like f64_vector()'s before `out` is resized, so an inflated count
  /// poisons the reader and leaves `out` empty without allocating.
  template <typename Vec>
  void f64_vector_into(Vec& out) {
    static_assert(std::is_same_v<typename Vec::value_type, double>);
    vector_le_into(out);
  }

  std::vector<std::uint32_t> u32_vector() {
    return vector_le<std::vector<std::uint32_t>>();
  }

  std::vector<std::uint64_t> u64_vector() {
    return vector_le<std::vector<std::uint64_t>>();
  }

  /// Mark the input malformed from a hand-written codec's own validation
  /// (a structure the bytes alone cannot rule out); poisons like any other
  /// decoding failure.
  void fail(const char* why) {
    if (ok_) poison(why);
  }

  /// Element count of a container whose elements each take at least
  /// `min_element_bytes`: a varint capped against the remaining payload, so
  /// an adversarial count poisons the reader instead of driving a huge
  /// allocation. 0 once poisoned.
  std::uint64_t count(std::size_t min_element_bytes = 1) {
    const std::uint64_t len = varint();
    if (!ok_) return 0;
    if (len > remaining() / min_element_bytes) {
      poison("vector length exceeds payload");
      return 0;
    }
    return len;
  }

 private:
  /// Bulk little-endian vector read shared by f64/u32/u64_vector: count()
  /// clamps the claimed element count against the remaining payload
  /// (dividing, so the byte count `len * sizeof(T)` can never wrap for
  /// adversarial lengths), then a single memcpy decodes on little-endian
  /// hosts.
  template <typename Vec>
  Vec vector_le() {
    Vec v;
    vector_le_into(v);
    return v;
  }

  template <typename Vec, typename T = typename Vec::value_type>
  void vector_le_into(Vec& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    v.resize(static_cast<std::size_t>(count(sizeof(T))));
    if (v.empty()) return;  // memcpy must not see an empty vector's null
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(v.data(), data_ + pos_, v.size() * sizeof(T));
      pos_ += v.size() * sizeof(T);
    } else {
      for (auto& e : v) {
        if constexpr (std::is_same_v<T, double>) {
          e = f64();
        } else if constexpr (sizeof(T) == 4) {
          e = u32();
        } else {
          e = u64();
        }
      }
    }
  }

  bool require(std::uint64_t n) {
    if (!ok_) return false;
    if (remaining() < n) {
      poison("read past end of buffer");
      return false;
    }
    return true;
  }

  void poison(const char* why) {
    ok_ = false;
    error_ = why;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
  const char* error_ = "";
};

/// Visitor type used only to detect a field list (see `WireType`).
struct FieldProbe {
  template <typename... Fs>
  void operator()(Fs&...) const {}
};

/// A type that declares its fields once: `template <typename S, typename F>
/// static void fields(S& s, F&& f)` calls `f` with every field in wire order.
template <typename T>
concept WireType = requires(T& t) { T::fields(t, FieldProbe{}); };

template <typename T>
struct IsVector : std::false_type {};
template <typename T>
struct IsVector<std::vector<T>> : std::true_type {};

/// Encode `value` by the rules in the header comment.
template <typename T>
void write(Writer& w, const T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    w.boolean(value);
  } else if constexpr (std::is_enum_v<T>) {
    static_assert(sizeof(T) == 1, "enums travel as one byte");
    w.u8(static_cast<std::uint8_t>(value));
  } else if constexpr (std::is_same_v<T, std::uint8_t>) {
    w.u8(value);
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    w.u32(value);
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    w.u64(value);
  } else if constexpr (std::is_same_v<T, double>) {
    w.f64(value);
  } else if constexpr (std::is_same_v<T, std::string>) {
    w.str(value);
  } else if constexpr (std::is_same_v<T, Bytes>) {
    w.bytes(value);
  } else if constexpr (std::is_same_v<T, std::vector<std::uint32_t>>) {
    w.u32_vector(value);
  } else if constexpr (IsVector<T>::value) {
    w.varint(value.size());
    for (const auto& element : value) write(w, element);
  } else if constexpr (WireType<T>) {
    T::fields(value, [&w](const auto&... field) { (write(w, field), ...); });
  } else {  // hand-written member codec
    value.serialize(w);
  }
}

/// Decode into `value`; the inverse of write(). Malformed input poisons `r`.
template <typename T>
void read(Reader& r, T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    value = r.boolean();
  } else if constexpr (std::is_enum_v<T>) {
    static_assert(sizeof(T) == 1, "enums travel as one byte");
    value = static_cast<T>(r.u8());
  } else if constexpr (std::is_same_v<T, std::uint8_t>) {
    value = r.u8();
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    value = r.u32();
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    value = r.u64();
  } else if constexpr (std::is_same_v<T, double>) {
    value = r.f64();
  } else if constexpr (std::is_same_v<T, std::string>) {
    value = r.str();
  } else if constexpr (std::is_same_v<T, Bytes>) {
    value = r.bytes();
  } else if constexpr (std::is_same_v<T, std::vector<std::uint32_t>>) {
    value = r.u32_vector();
  } else if constexpr (IsVector<T>::value) {
    // Every element takes at least one byte, so count() caps the claimed
    // length against the remaining payload before anything is allocated.
    const std::uint64_t n = r.count();
    value.clear();
    value.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
      read(r, value.emplace_back());
    }
  } else if constexpr (WireType<T>) {
    T::fields(value, [&r](auto&... field) { (read(r, field), ...); });
  } else {  // hand-written member codec
    value = T::deserialize(r);
  }
}

/// Encode a wire value into a fresh byte buffer.
template <typename T>
Bytes encode(const T& value) {
  Writer writer;
  write(writer, value);
  return writer.take();
}

/// Decode a wire value; aborts on malformed input (internal use: payloads
/// produced by encode()). For untrusted input use read() and check the Reader.
template <typename T>
T decode(const Bytes& data) {
  Reader reader(data);
  T value{};
  read(reader, value);
  JACEPP_CHECK(reader.ok(), "decode: malformed payload");
  return value;
}

}  // namespace jacepp::serial
