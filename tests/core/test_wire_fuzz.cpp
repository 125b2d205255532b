// Seeded mutation fuzzing over every decoder reachable from the wire: each
// protocol message and nested wire type through serial::read, checkpoint
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
#include <cstdint>
#include <iterator>
#include <limits>
#include <optional>
#include <vector>

#include "core/checkpoint.hpp"
#include "net/link.hpp"
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

template <typename T>
class WireDecoderFuzz : public ::testing::Test {
 protected:
  const Bytes encoding_ = serial::encode(Sample<T>::make());
};
TYPED_TEST_SUITE(WireDecoderFuzz, WireTypes, TypeNames);

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

}  // namespace
}  // namespace jacepp::core::wire
