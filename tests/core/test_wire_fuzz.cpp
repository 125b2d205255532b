// Seeded mutation fuzzing over every decoder reachable from the wire: each
// protocol message and nested wire type through serial::read, the
// application configs that travel inside AppDescriptor::config (PoissonConfig,
// GenericConfig, CsrMatrix) through their hand-written codecs, checkpoint
// frames through checkpoint::decode_frame, Batch envelopes through
// net::unpack_batch, and the serial::Reader primitives themselves. gcc ships
// no libFuzzer, so the mutator lives here: truncation at every prefix,
// single-bit flips, splices of two encodings and varint length inflation.
// Seeds and iteration counts are fixed, so every run checks the same inputs
// in well under a second; built with ASan (the `fuzz` ctest label in CI) any
// out-of-bounds read fails the run, and an unchecked length would abort on a
// huge allocation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <cstdint>
#include <iterator>
#include <limits>
#include <optional>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/generic_task.hpp"
#include "linalg/csr.hpp"
#include "net/link.hpp"
#include "poisson/block_task.hpp"
#include "serial/checksum.hpp"
#include "serial/serial.hpp"
#include "support/rng.hpp"
#include "wire_samples.hpp"

namespace jacepp::core::wire {
namespace {

using serial::Bytes;

// ---------------------------------------------------------------------------
// Mutators
// ---------------------------------------------------------------------------

Bytes prefix(const Bytes& b, std::size_t len) {
  return Bytes(b.begin(), b.begin() + static_cast<std::ptrdiff_t>(len));
}

Bytes flip_bit(Bytes b, std::size_t bit) {
  b[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  return b;
}

/// The first `cut_a` bytes of `a` followed by `b` from `cut_b` on.
Bytes splice(const Bytes& a, std::size_t cut_a, const Bytes& b,
             std::size_t cut_b) {
  Bytes out = prefix(a, cut_a);
  out.insert(out.end(), b.begin() + static_cast<std::ptrdiff_t>(cut_b),
             b.end());
  return out;
}

/// Replace the byte at `at` (a one-byte length in the catalogue's samples,
/// when it is one at all) by the varint encoding of `value`.
Bytes inflate(const Bytes& b, std::size_t at, std::uint64_t value) {
  serial::Writer w;
  w.varint(value);
  Bytes out = prefix(b, at);
  out.insert(out.end(), w.data().begin(), w.data().end());
  out.insert(out.end(), b.begin() + static_cast<std::ptrdiff_t>(at) + 1,
             b.end());
  return out;
}

constexpr std::uint64_t kInflated[] = {
    1ULL << 20, 1ULL << 40, std::numeric_limits<std::uint64_t>::max()};

// ---------------------------------------------------------------------------
// Protocol messages and nested wire types, through serial::read
// ---------------------------------------------------------------------------

template <typename T>
std::optional<T> read_all(const Bytes& bytes) {
  serial::Reader r(bytes);
  T value{};
  serial::read(r, value);
  if (!r.ok() || !r.exhausted()) return std::nullopt;
  return value;
}

/// Oracle for a mutated input: decoding either fails, or what it yields
/// re-encodes to a canonical form that decodes back to itself.
template <typename T>
void expect_safe_decode(const Bytes& bytes) {
  const std::optional<T> decoded = read_all<T>(bytes);
  if (!decoded.has_value()) return;
  const Bytes canonical = serial::encode(*decoded);
  const std::optional<T> again = read_all<T>(canonical);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(serial::encode(*again), canonical);
}

template <typename... Ts>
std::vector<Bytes> catalogue_encodings(::testing::Types<Ts...>) {
  return {serial::encode(Sample<Ts>::make())...};
}

// The application config codecs: not protocol wire types, but decoded by
// every daemon from the AppDescriptor a spawner sends.

}  // namespace

// Samples of the config codecs, beside the catalogue's (wire_samples.hpp).
inline linalg::CsrMatrix sample_matrix() {
  linalg::CsrBuilder builder(3, 3);
  for (std::size_t i = 0; i < 3; ++i) {
    builder.add(i, i, 4.0);
    if (i > 0) builder.add(i, i - 1, -1.0);
    if (i + 1 < 3) builder.add(i, i + 1, -1.0);
  }
  return builder.build();
}

template <>
struct Sample<poisson::PoissonConfig> {
  static constexpr const char* kName = "PoissonConfig";
  static poisson::PoissonConfig make() {
    poisson::PoissonConfig c;
    c.n = 96;
    c.overlap_lines = 1;
    c.inner_tolerance = 1e-6;
    c.inner_max_iterations = 400;
    c.rhs_kind = 1;
    c.rhs_seed = 0x5eed;
    c.work_scale = 2.5;
    return c;
  }
};

template <>
struct Sample<GenericConfig> {
  static constexpr const char* kName = "GenericConfig";
  static GenericConfig make() {
    GenericConfig c;
    c.a = sample_matrix();
    c.b = {1.0, -2.0, 0.5};
    c.inner_tolerance = 1e-9;
    c.inner_max_iterations = 50;
    c.work_scale = 3.0;
    return c;
  }
};

template <>
struct Sample<linalg::CsrMatrix> {
  static constexpr const char* kName = "CsrMatrix";
  static linalg::CsrMatrix make() { return sample_matrix(); }
};

namespace {

using AppConfigTypes =
    ::testing::Types<poisson::PoissonConfig, GenericConfig, linalg::CsrMatrix>;

template <typename A, typename B>
struct ConcatTypes;
template <typename... As, typename... Bs>
struct ConcatTypes<::testing::Types<As...>, ::testing::Types<Bs...>> {
  using type = ::testing::Types<As..., Bs...>;
};

template <typename T>
class WireDecoderFuzz : public ::testing::Test {
 protected:
  const Bytes encoding_ = serial::encode(Sample<T>::make());
};
using FuzzedTypes = ConcatTypes<WireTypes, AppConfigTypes>::type;
TYPED_TEST_SUITE(WireDecoderFuzz, FuzzedTypes, TypeNames);

TYPED_TEST(WireDecoderFuzz, EveryStrictPrefixPoisons) {
  ASSERT_TRUE(read_all<TypeParam>(this->encoding_).has_value());
  for (std::size_t len = 0; len < this->encoding_.size(); ++len) {
    const Bytes cut = prefix(this->encoding_, len);
    serial::Reader r(cut);
    TypeParam value{};
    serial::read(r, value);
    EXPECT_FALSE(r.ok()) << "prefix of " << len << " bytes decoded";
  }
}

TYPED_TEST(WireDecoderFuzz, SingleBitFlipsDecodeSafely) {
  for (std::size_t bit = 0; bit < this->encoding_.size() * 8; ++bit) {
    expect_safe_decode<TypeParam>(flip_bit(this->encoding_, bit));
  }
}

TYPED_TEST(WireDecoderFuzz, SplicesDecodeSafely) {
  const std::vector<Bytes> corpus = catalogue_encodings(WireTypes{});
  Rng rng(0x5b1ce);
  for (int i = 0; i < 400; ++i) {
    const Bytes& other = corpus[rng.index(corpus.size())];
    const std::size_t cut_a = rng.index(this->encoding_.size() + 1);
    const std::size_t cut_b = rng.index(other.size() + 1);
    expect_safe_decode<TypeParam>(
        splice(this->encoding_, cut_a, other, cut_b));
  }
}

TYPED_TEST(WireDecoderFuzz, InflatedLengthsDecodeSafely) {
  for (std::size_t at = 0; at < this->encoding_.size(); ++at) {
    for (const std::uint64_t value : kInflated) {
      expect_safe_decode<TypeParam>(inflate(this->encoding_, at, value));
    }
  }
}

TEST(WireDecoderFuzzVectors, InflatedStubCountPoisons) {
  // LinkSuperPeers is a varint count followed by 13-byte stubs.
  const Bytes bytes = serial::encode(Sample<msg::LinkSuperPeers>::make());
  for (const std::uint64_t value : kInflated) {
    const Bytes inflated = inflate(bytes, 0, value);
    serial::Reader r(inflated);
    msg::LinkSuperPeers m;
    serial::read(r, m);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(m.peers.empty());
  }
}

TEST(WireDecoderFuzzVectors, MalformedCsrStructurePoisons) {
  // Well-formed vectors whose structure the matrix constructor would reject
  // (it aborts): the decoder must poison the reader instead.
  const auto encode_raw = [](std::uint64_t rows, std::uint64_t cols,
                             const std::vector<std::uint32_t>& row_ptr,
                             const std::vector<std::uint32_t>& col_idx,
                             std::initializer_list<double> values) {
    serial::Writer w;
    w.varint(rows);
    w.varint(cols);
    w.u32_vector(row_ptr);
    w.u32_vector(col_idx);
    w.f64_vector(values);
    return w.take();
  };
  const std::vector<Bytes> malformed = {
      encode_raw(2, 2, {0, 1}, {0}, {1.0}),              // too few row pointers
      encode_raw(1, 1, {0, 2}, {0}, {1.0}),              // last pointer != nnz
      encode_raw(1, 1, {1, 1}, {0}, {1.0}),              // first pointer != 0
      encode_raw(2, 2, {0, 2, 1}, {0}, {1.0}),           // pointers decrease
      encode_raw(1, 1, {0, 1}, {0, 0}, {1.0}),           // col_idx/values differ
      encode_raw(1, 1, {0, 1}, {5}, {1.0}),              // column out of range
      encode_raw(~0ULL, 1, {}, {}, {}),                  // rows + 1 wraps to 0
  };
  for (const Bytes& bytes : malformed) {
    serial::Reader r(bytes);
    linalg::CsrMatrix m;
    serial::read(r, m);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(m.rows(), 0u);
  }
  // The default matrix round-trips.
  const auto empty = read_all<linalg::CsrMatrix>(serial::encode(linalg::CsrMatrix{}));
  ASSERT_TRUE(empty.has_value());
  EXPECT_EQ(empty->rows(), 0u);
}

// ---------------------------------------------------------------------------
// Checkpoint frames
// ---------------------------------------------------------------------------

Bytes checkpoint_state() {
  Bytes state(40);
  for (std::size_t i = 0; i < state.size(); ++i) {
    state[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  return state;
}

std::vector<Bytes> checkpoint_frames() {
  const Bytes state = checkpoint_state();
  return {checkpoint::encode_full_frame(3, 8, state),
          checkpoint::encode_delta_frame(3, 2, 8, state, {0, 2, 4})};
}

Bytes body_of(const Bytes& frame) { return prefix(frame, frame.size() - 4); }

/// `body` followed by its CRC-32, so a body mutation reaches the parser.
Bytes sealed(Bytes body) {
  const std::uint32_t crc = serial::crc32(body);
  for (int i = 0; i < 4; ++i) {
    body.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
  }
  return body;
}

/// Oracle for a frame that passed its CRC: the decoder's own invariants.
void expect_consistent_frame(const Bytes& frame) {
  const auto f = checkpoint::decode_frame(frame);
  if (!f.has_value()) return;
  ASSERT_GT(f->chunk_size, 0u);
  if (f->kind == checkpoint::FrameKind::Full) {
    EXPECT_EQ(f->delta_seq, 0u);
    EXPECT_EQ(f->full_state.size(), f->total_size);
    EXPECT_EQ(serial::crc32(f->full_state), f->state_checksum);
    return;
  }
  EXPECT_GT(f->delta_seq, 0u);
  for (std::size_t i = 0; i < f->chunks.size(); ++i) {
    const auto& [index, payload] = f->chunks[i];
    if (i > 0) {
      EXPECT_GT(index, f->chunks[i - 1].first);
    }
    const std::uint64_t lo = std::uint64_t{index} * f->chunk_size;
    ASSERT_LT(lo, f->total_size);
    EXPECT_EQ(payload.size(),
              std::min<std::uint64_t>(f->total_size - lo, f->chunk_size));
  }
}

TEST(CheckpointFrameFuzz, EveryStrictPrefixIsRejected) {
  for (const Bytes& frame : checkpoint_frames()) {
    ASSERT_TRUE(checkpoint::decode_frame(frame).has_value());
    for (std::size_t len = 0; len < frame.size(); ++len) {
      EXPECT_FALSE(checkpoint::decode_frame(prefix(frame, len)).has_value())
          << "prefix of " << len << " bytes decoded";
    }
  }
}

TEST(CheckpointFrameFuzz, EverySingleBitFlipIsRejected) {
  // CRC-32 detects every single-bit error, in the trailing CRC included.
  for (const Bytes& frame : checkpoint_frames()) {
    for (std::size_t bit = 0; bit < frame.size() * 8; ++bit) {
      EXPECT_FALSE(checkpoint::decode_frame(flip_bit(frame, bit)).has_value())
          << "bit " << bit;
    }
  }
}

TEST(CheckpointFrameFuzz, ResealedMutationsDecodeSafely) {
  // Mutate the body and fix up the CRC, so the mutations reach the parser
  // rather than stopping at the checksum.
  const std::vector<Bytes> frames = checkpoint_frames();
  for (const Bytes& frame : frames) {
    const Bytes body = body_of(frame);
    for (std::size_t len = 0; len < body.size(); ++len) {
      EXPECT_FALSE(
          checkpoint::decode_frame(sealed(prefix(body, len))).has_value());
    }
    for (std::size_t bit = 0; bit < body.size() * 8; ++bit) {
      expect_consistent_frame(sealed(flip_bit(body, bit)));
    }
    for (std::size_t at = 0; at < body.size(); ++at) {
      for (const std::uint64_t value : kInflated) {
        expect_consistent_frame(sealed(inflate(body, at, value)));
      }
    }
  }
  Rng rng(0xf4a3e);
  for (int i = 0; i < 2000; ++i) {
    // Splice two bodies, then inflate up to three varints, back to front so
    // earlier offsets still point at the bytes they were drawn for.
    const Bytes& a = frames[rng.index(frames.size())];
    const Bytes& b = frames[rng.index(frames.size())];
    Bytes body = splice(body_of(a), rng.index(a.size() - 3), body_of(b),
                        rng.index(b.size() - 3));
    if (body.empty()) continue;
    std::vector<std::size_t> offsets(1 + rng.index(3));
    for (auto& at : offsets) at = rng.index(body.size());
    std::sort(offsets.rbegin(), offsets.rend());
    for (const std::size_t at : offsets) {
      body = inflate(body, at, kInflated[rng.index(std::size(kInflated))]);
    }
    expect_consistent_frame(sealed(body));
  }
}

TEST(CheckpointFrameFuzz, HugeChunkCountIsRejectedBeforeAllocating) {
  // A delta frame with a valid CRC whose total size admits 2^40 chunks and
  // whose count claims them all: the count must be checked against the
  // bytes left, not only against the claimed total size.
  serial::Writer w;
  w.u8(static_cast<std::uint8_t>(checkpoint::FrameKind::Delta));
  w.varint(1);           // baseline_id
  w.varint(1);           // delta_seq
  w.varint(1);           // chunk_size
  w.varint(1ULL << 60);  // total_size
  w.u32(0);              // state checksum
  w.varint(1ULL << 40);  // chunk count
  EXPECT_FALSE(checkpoint::decode_frame(sealed(w.data())).has_value());
}

// ---------------------------------------------------------------------------
// Batch envelopes
// ---------------------------------------------------------------------------

net::Message batch_envelope() {
  return net::pack_batch(
      {net::make_message(Sample<msg::TaskData>::make()),
       net::make_message(Sample<msg::Heartbeat>::make()),
       net::make_message(Sample<msg::LocalStateReport>::make())});
}

std::optional<std::vector<net::Message>> unpack(const Bytes& body) {
  net::Message envelope;
  envelope.type = net::kBatchMessageType;
  envelope.body = body;
  std::vector<net::Message> parts;
  if (!net::unpack_batch(envelope, parts)) {
    EXPECT_TRUE(parts.empty());
    return std::nullopt;
  }
  return parts;
}

/// Batch body with a correct CRC over `subframes`.
Bytes seal_batch(std::uint64_t count, const Bytes& subframes) {
  serial::Writer w;
  w.varint(count);
  w.u32(serial::crc32(subframes));
  w.bytes(subframes);
  return w.take();
}

Bytes subframes_of(const Bytes& body) {
  serial::Reader r(body);
  (void)r.varint();
  (void)r.u32();
  return r.bytes();
}

TEST(BatchFuzz, EveryStrictPrefixIsRejected) {
  const Bytes body = batch_envelope().body.bytes();
  ASSERT_TRUE(unpack(body).has_value());
  for (std::size_t len = 0; len < body.size(); ++len) {
    EXPECT_FALSE(unpack(prefix(body, len)).has_value());
  }
}

TEST(BatchFuzz, EverySingleBitFlipIsRejected) {
  const Bytes body = batch_envelope().body.bytes();
  for (std::size_t bit = 0; bit < body.size() * 8; ++bit) {
    EXPECT_FALSE(unpack(flip_bit(body, bit)).has_value()) << "bit " << bit;
  }
}

TEST(BatchFuzz, InflatedCountIsRejectedBeforeAllocating) {
  // The sub-message count sits outside the CRC.
  const Bytes body = batch_envelope().body.bytes();
  for (const std::uint64_t value : kInflated) {
    EXPECT_FALSE(unpack(inflate(body, 0, value)).has_value());
  }
}

TEST(BatchFuzz, ResealedMutationsUnpackSafely) {
  const Bytes subframes = subframes_of(batch_envelope().body.bytes());
  const auto check = [](std::uint64_t count, const Bytes& sub) {
    const auto parts = unpack(seal_batch(count, sub));
    if (!parts.has_value()) return;
    EXPECT_EQ(parts->size(), count);
    std::size_t total = 0;
    for (const net::Message& m : *parts) total += m.body.size();
    EXPECT_LE(total, sub.size());
  };
  for (std::size_t bit = 0; bit < subframes.size() * 8; ++bit) {
    check(3, flip_bit(subframes, bit));
  }
  for (std::size_t at = 0; at < subframes.size(); ++at) {
    for (const std::uint64_t value : kInflated) {
      check(3, inflate(subframes, at, value));
    }
  }
  for (std::size_t len = 0; len < subframes.size(); ++len) {
    check(3, prefix(subframes, len));
  }
  for (const std::uint64_t count : {0ULL, 2ULL, 4ULL, 1ULL << 40}) {
    check(count, subframes);
  }
}

// ---------------------------------------------------------------------------
// serial::Reader primitives
// ---------------------------------------------------------------------------

TEST(ReaderFuzz, EveryStrictPrefixOfAPrimitivePoisons) {
  const std::vector<void (*)(serial::Writer&)> writes = {
      [](serial::Writer& x) { x.u16(0xbeef); },
      [](serial::Writer& x) { x.u32(0xdeadbeef); },
      [](serial::Writer& x) { x.u64(1ULL << 50); },
      [](serial::Writer& x) { x.f64(2.5); },
      [](serial::Writer& x) { x.varint(1ULL << 50); },
      [](serial::Writer& x) { x.str("jacepp"); },
      [](serial::Writer& x) { x.bytes(Bytes{1, 2, 3}); },
      [](serial::Writer& x) { x.f64_vector({1.0, -2.0}); },
      [](serial::Writer& x) { x.u32_vector({7, 8}); },
      [](serial::Writer& x) { x.u64_vector({9, 10}); },
  };
  const std::vector<void (*)(serial::Reader&)> reads = {
      [](serial::Reader& x) { (void)x.u16(); },
      [](serial::Reader& x) { (void)x.u32(); },
      [](serial::Reader& x) { (void)x.u64(); },
      [](serial::Reader& x) { (void)x.f64(); },
      [](serial::Reader& x) { (void)x.varint(); },
      [](serial::Reader& x) { (void)x.str(); },
      [](serial::Reader& x) { (void)x.bytes(); },
      [](serial::Reader& x) { (void)x.f64_vector(); },
      [](serial::Reader& x) { (void)x.u32_vector(); },
      [](serial::Reader& x) { (void)x.u64_vector(); },
  };
  for (std::size_t k = 0; k < writes.size(); ++k) {
    serial::Writer one;
    writes[k](one);
    for (std::size_t len = 0; len <= one.size(); ++len) {
      const Bytes cut = prefix(one.data(), len);
      serial::Reader r(cut);
      reads[k](r);
      EXPECT_EQ(r.ok(), len == one.size()) << "primitive " << k;
    }
  }
}

TEST(ReaderFuzz, RandomReadSequencesStayInBoundsAndPoisonForGood) {
  const std::vector<Bytes> corpus = catalogue_encodings(WireTypes{});
  Rng rng(0x0eade2);
  for (int round = 0; round < 3000; ++round) {
    Bytes input;
    if (rng.index(2) == 0) {
      input.resize(rng.index(64));
      for (auto& b : input) b = static_cast<std::uint8_t>(rng.next_u64());
    } else {
      input = corpus[rng.index(corpus.size())];
      if (!input.empty()) {
        input = inflate(input, rng.index(input.size()),
                        kInflated[rng.index(std::size(kInflated))]);
      }
    }
    serial::Reader r(input);
    std::size_t remaining = r.remaining();
    bool poisoned = false;
    for (int op = 0; op < 12; ++op) {
      bool zero = false;
      switch (rng.index(12)) {
        case 0: zero = r.u8() == 0; break;
        case 1: zero = r.u16() == 0; break;
        case 2: zero = r.u32() == 0; break;
        case 3: zero = r.u64() == 0; break;
        case 4: zero = !r.boolean(); break;
        case 5: zero = r.f64() == 0.0; break;
        case 6: zero = r.varint() == 0; break;
        case 7: zero = r.str().empty(); break;
        case 8: zero = r.bytes().empty(); break;
        case 9: zero = r.f64_vector().empty(); break;
        case 10: zero = r.u32_vector().empty(); break;
        default: zero = r.count() == 0; break;
      }
      ASSERT_LE(r.remaining(), remaining);
      remaining = r.remaining();
      if (poisoned) {
        EXPECT_FALSE(r.ok());
        EXPECT_TRUE(zero) << "read after poisoning returned data";
      }
      poisoned = !r.ok();
    }
  }
}

TEST(ReaderFuzz, ReusedBufferDecodeOfInflatedCountPoisonsWithoutAllocating) {
  serial::Writer w;
  w.f64_vector({1.0, -2.0, 3.0});
  for (const std::uint64_t value : kInflated) {
    const Bytes inflated = inflate(w.data(), 0, value);
    // An empty buffer gets no storage...
    linalg::Vector fresh;
    serial::Reader r(inflated);
    r.f64_vector_into(fresh);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(fresh.empty());
    EXPECT_EQ(fresh.capacity(), 0u);
    // ...and a warm one keeps the storage it had.
    linalg::Vector warm(3, 7.0);
    const double* storage = warm.data();
    const std::size_t capacity = warm.capacity();
    serial::Reader r2(inflated);
    r2.f64_vector_into(warm);
    EXPECT_FALSE(r2.ok());
    EXPECT_TRUE(warm.empty());
    EXPECT_EQ(warm.data(), storage);
    EXPECT_EQ(warm.capacity(), capacity);
  }
}

TEST(ReaderFuzz, ReusedBufferDecodeMatchesTheFreshDecode) {
  // Every prefix, bit flip and inflation of a line: decoding into one reused
  // buffer gives the fresh decode's verdict and values, and never grows the
  // buffer past what the input can carry.
  serial::Writer w;
  w.f64_vector({0.5, -1.5, 2.0, 1e300, -0.0});
  const Bytes line = w.take();
  std::vector<Bytes> inputs;
  for (std::size_t len = 0; len <= line.size(); ++len) {
    inputs.push_back(prefix(line, len));
  }
  for (std::size_t bit = 0; bit < line.size() * 8; ++bit) {
    inputs.push_back(flip_bit(line, bit));
  }
  for (std::size_t at = 0; at < line.size(); ++at) {
    for (const std::uint64_t value : kInflated) {
      inputs.push_back(inflate(line, at, value));
    }
  }
  linalg::Vector reused;
  for (const Bytes& input : inputs) {
    const std::size_t before = reused.capacity();
    serial::Reader fresh_reader(input);
    const linalg::Vector fresh = fresh_reader.f64_vector<linalg::Vector>();
    serial::Reader r(input);
    r.f64_vector_into(reused);
    ASSERT_EQ(r.ok(), fresh_reader.ok());
    ASSERT_EQ(r.remaining(), fresh_reader.remaining());
    EXPECT_TRUE(std::equal(reused.begin(), reused.end(), fresh.begin(),
                           fresh.end(), [](double a, double b) {
                             return std::memcmp(&a, &b, sizeof a) == 0;
                           }));
    EXPECT_LE(reused.capacity(), std::max(before, input.size()));
  }
}

}  // namespace
}  // namespace jacepp::core::wire
