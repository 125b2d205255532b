// Wire catalogue golden test: the exact encoding of every protocol message
// and of the nested wire types they carry, pinned as hex. A reordered,
// dropped or retyped field changes these bytes, which every other test would
// let through (they only round-trip).
#include "core/messages.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "net/link.hpp"
#include "serial/serial.hpp"
#include "wire_samples.hpp"

namespace jacepp::core::wire {
namespace {

std::string hex(const serial::Bytes& bytes) {
  std::string out;
  char digits[3];
  for (const std::uint8_t b : bytes) {
    std::snprintf(digits, sizeof(digits), "%02x", b);
    out += digits;
  }
  return out;
}

// Encodings of the Sample<T> instances (wire_samples.hpp). A mismatch means
// the wire format changed.
const std::map<std::string, std::string>& pinned() {
  static const std::map<std::string, std::string> kPinned = {
      {"Stub", "2a000605040302010100000002"},
      {"TaskEntry", "050000000c000605040302010600000001"},
      {"AppRegister",
       "0300000011000000000000000100060504030201020000000302020000000a00"
       "0605040302010400000001040000000b000605040302010500000001"},
      {"AppDescriptor",
       "0300000007706f6973736f6e03c0ffee50000000060000000400000000020000"
       "0700000040e20100000000000102000000300000007b14ae47e17a943f000000"
       "0084d78741fca9f1d24d62603f8dedb5a0f7c6b03e09000000"},
      {"RegisterDaemon", "14000605040302010700000001"},
      {"RegisterAck", "15000605040302010100000002"},
      {"LinkSuperPeers",
       "021600060504030201020000000217000605040302010300000002"},
      {"Heartbeat", ""},
      {"HeartbeatAck", ""},
      {"ReserveRequest",
       "0700000008000000010006050403020102000000030118000605040302010400"
       "000002"},
      {"ReserveReply",
       "0900000002190006050403020105000000011a00060504030201060000000101"},
      {"Reserved", "02000605040302010300000003"},
      {"TaskAssignment",
       "0300000007706f6973736f6e03c0ffee50000000060000000400000000020000"
       "0700000040e20100000000000102000000300000007b14ae47e17a943f000000"
       "0084d78741fca9f1d24d62603f8dedb5a0f7c6b03e0900000005000000030000"
       "0011000000000000000100060504030201020000000302020000000a00060504"
       "0302010400000001040000000b0006050403020105000000010101"},
      {"RegisterUpdate",
       "0300000011000000000000000100060504030201020000000302020000000a00"
       "0605040302010400000001040000000b000605040302010500000001"},
      {"TaskData",
       "0300000004000000050000000600000055443322110000000401020304"},
      {"SaveBackup", "0300000004000000665544332200000003050607"},
      {"BackupAck", "03000000040000000101"},
      {"QueryBackup", "0300000004000000"},
      {"BackupInfo", "0300000004000000013700000000000000"},
      {"FetchBackup", "0500000006000000"},
      {"BackupData", "03000000040000007766554433000000020809"},
      {"LocalStateReport", "0300000004000000014200000000000000"},
      {"GlobalHalt", "0c000000"},
      {"FinalState",
       "03000000040000004d000000000000004200000000000000030a0b0c"},
      {"AppRegisterReplica",
       "0300000011000000000000000100060504030201020000000302020000000a00"
       "0605040302010400000001040000000b000605040302010500000001"},
      {"FetchAppRegister", "0d000000"},
      {"AppRegisterSnapshot",
       "010300000011000000000000000100060504030201020000000302020000000a"
       "000605040302010400000001040000000b000605040302010500000001"},
      {"WaveToken", "0300000004000000050000000600000001"},
      {"ConvergedVerdict", "030000000400000005000000"},
      {"StateProbe", "0e000000"},
      {"AuditChallenge",
       "0300000007706f6973736f6e03c0ffee50000000060000000400000000020000"
       "0700000040e20100000000000102000000300000007b14ae47e17a943f000000"
       "0084d78741fca9f1d24d62603f8dedb5a0f7c6b03e0900000005000000060000"
       "00887766554400000007000000"},
      {"AuditReply",
       "0300000004000000050000009988776655000000aa99887766000000"},
      {"ReputationReport", "080706050403020102000000000000e83f"},
      {"BackupPlacement", "03000000580000000000000003040000000200000007000000"},
  };
  return kPinned;
}

template <typename T>
class WireCatalogue : public ::testing::Test {};
TYPED_TEST_SUITE(WireCatalogue, WireTypes, TypeNames);

TYPED_TEST(WireCatalogue, EncodingIsPinned) {
  const TypeParam sample = Sample<TypeParam>::make();
  const serial::Bytes bytes = serial::encode(sample);
  const auto pin = pinned().find(Sample<TypeParam>::kName);
  ASSERT_NE(pin, pinned().end()) << "no pin; encoding is " << hex(bytes);
  EXPECT_EQ(hex(bytes), pin->second);
  if constexpr (requires { TypeParam::kType; }) {
    const net::Message m = net::make_message(sample);
    EXPECT_EQ(m.type, TypeParam::kType);
    EXPECT_EQ(m.body.bytes(), bytes);
  }
}

TYPED_TEST(WireCatalogue, DecodeThenEncodeGivesTheSameBytes) {
  const serial::Bytes bytes = serial::encode(Sample<TypeParam>::make());
  EXPECT_EQ(serial::encode(serial::decode<TypeParam>(bytes)), bytes);
  if constexpr (requires { TypeParam::kType; }) {
    const net::Message m = net::make_message(Sample<TypeParam>::make());
    EXPECT_EQ(serial::encode(net::payload_of<TypeParam>(m)), bytes);
  }
}

template <typename... Ts>
std::vector<net::MessageType> message_types(::testing::Types<Ts...>) {
  std::vector<net::MessageType> tags;
  (
      [&] {
        if constexpr (requires { Ts::kType; }) tags.push_back(Ts::kType);
      }(),
      ...);
  return tags;
}

TEST(WireCatalogueTags, AreDistinct) {
  std::vector<net::MessageType> tags = message_types(WireTypes{});
  EXPECT_EQ(tags.size(), 30u);
  tags.push_back(net::kBatchMessageType);
  const std::set<net::MessageType> unique(tags.begin(), tags.end());
  EXPECT_EQ(unique.size(), tags.size());
}

}  // namespace
}  // namespace jacepp::core::wire
