// One instance of every protocol wire type, with every field set to a
// non-default value (non-empty strings, bytes and vectors included) and
// same-typed fields in one message set to distinct values, so a reordered,
// dropped or duplicated field changes the encoding. Shared by the wire
// catalogue golden test and the decoder fuzz test.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/app.hpp"
#include "core/messages.hpp"
#include "net/stub.hpp"

namespace jacepp::core::wire {

template <typename T>
struct Sample;

#define JACEPP_WIRE_SAMPLE(Type, Name, ...)     \
  template <>                                   \
  struct Sample<Type> {                         \
    static constexpr const char* kName = #Name; \
    static Type make() { return __VA_ARGS__; }  \
  }

inline net::Stub stub(std::uint64_t node, net::EntityKind kind) {
  return net::Stub{0x0102030405060000ULL + node,
                   static_cast<net::Incarnation>(node % 7 + 1), kind};
}

inline AppDescriptor app_descriptor() {
  AppDescriptor d;
  d.app_id = 3;
  d.program = "poisson";
  d.config = {0xc0, 0xff, 0xee};
  d.task_count = 80;
  d.checkpoint_every = 6;
  d.backup_peer_count = 4;
  d.ckpt.chunk_size = 512;
  d.ckpt.rebase_every = 7;
  d.ckpt.chain_byte_budget = 123456;
  d.ckpt.adaptive_interval = true;
  d.ckpt.min_interval = 2;
  d.ckpt.max_interval = 48;
  d.ckpt.target_overhead = 0.02;
  d.ckpt.net_bandwidth = 5e7;
  d.ckpt.net_latency = 2e-3;
  d.convergence_threshold = 1e-6;
  d.stable_iterations_required = 9;
  return d;
}

inline AppRegister app_register() {
  AppRegister reg;
  reg.app_id = 3;
  reg.version = 17;
  reg.spawner = stub(1, net::EntityKind::Spawner);
  reg.tasks = {{2, stub(10, net::EntityKind::Daemon)},
               {4, stub(11, net::EntityKind::Daemon)}};
  return reg;
}

JACEPP_WIRE_SAMPLE(net::Stub, Stub, stub(42, net::EntityKind::SuperPeer));
JACEPP_WIRE_SAMPLE(TaskEntry, TaskEntry,
                   {5, stub(12, net::EntityKind::Daemon)});
JACEPP_WIRE_SAMPLE(AppRegister, AppRegister, app_register());
JACEPP_WIRE_SAMPLE(AppDescriptor, AppDescriptor, app_descriptor());

JACEPP_WIRE_SAMPLE(msg::RegisterDaemon, RegisterDaemon,
                   {stub(20, net::EntityKind::Daemon)});
JACEPP_WIRE_SAMPLE(msg::RegisterAck, RegisterAck,
                   {stub(21, net::EntityKind::SuperPeer)});
JACEPP_WIRE_SAMPLE(msg::LinkSuperPeers, LinkSuperPeers,
                   {{stub(22, net::EntityKind::SuperPeer),
                     stub(23, net::EntityKind::SuperPeer)}});
JACEPP_WIRE_SAMPLE(msg::Heartbeat, Heartbeat, {});
JACEPP_WIRE_SAMPLE(msg::HeartbeatAck, HeartbeatAck, {});
JACEPP_WIRE_SAMPLE(msg::ReserveRequest, ReserveRequest,
                   {7, 8, stub(1, net::EntityKind::Spawner),
                    {stub(24, net::EntityKind::SuperPeer)}});
JACEPP_WIRE_SAMPLE(msg::ReserveReply, ReserveReply,
                   {9,
                    {stub(25, net::EntityKind::Daemon),
                     stub(26, net::EntityKind::Daemon)},
                    true});
JACEPP_WIRE_SAMPLE(msg::Reserved, Reserved,
                   {stub(2, net::EntityKind::Spawner)});
JACEPP_WIRE_SAMPLE(msg::TaskAssignment, TaskAssignment,
                   {app_descriptor(), 5, app_register(), true, true});
JACEPP_WIRE_SAMPLE(msg::RegisterUpdate, RegisterUpdate, {app_register()});
JACEPP_WIRE_SAMPLE(msg::TaskData, TaskData,
                   {3, 4, 5, 6, 0x1122334455ULL, {1, 2, 3, 4}});
JACEPP_WIRE_SAMPLE(msg::SaveBackup, SaveBackup,
                   {3, 4, 0x2233445566ULL, {5, 6, 7}});
JACEPP_WIRE_SAMPLE(msg::BackupAck, BackupAck, {3, 4, true, true});
JACEPP_WIRE_SAMPLE(msg::QueryBackup, QueryBackup, {3, 4});
JACEPP_WIRE_SAMPLE(msg::BackupInfo, BackupInfo, {3, 4, true, 55});
JACEPP_WIRE_SAMPLE(msg::FetchBackup, FetchBackup, {5, 6});
JACEPP_WIRE_SAMPLE(msg::BackupData, BackupData,
                   {3, 4, 0x3344556677ULL, {8, 9}});
JACEPP_WIRE_SAMPLE(msg::LocalStateReport, LocalStateReport,
                   {3, 4, true, 66});
JACEPP_WIRE_SAMPLE(msg::GlobalHalt, GlobalHalt, {12});
JACEPP_WIRE_SAMPLE(msg::FinalState, FinalState,
                   {3, 4, 77, 66, {10, 11, 12}});
JACEPP_WIRE_SAMPLE(msg::AppRegisterReplica, AppRegisterReplica,
                   {app_register()});
JACEPP_WIRE_SAMPLE(msg::FetchAppRegister, FetchAppRegister, {13});
JACEPP_WIRE_SAMPLE(msg::AppRegisterSnapshot, AppRegisterSnapshot,
                   {true, app_register()});
JACEPP_WIRE_SAMPLE(msg::WaveToken, WaveToken, {3, 4, 5, 6, true});
JACEPP_WIRE_SAMPLE(msg::ConvergedVerdict, ConvergedVerdict, {3, 4, 5});
JACEPP_WIRE_SAMPLE(msg::StateProbe, StateProbe, {14});
JACEPP_WIRE_SAMPLE(msg::AuditChallenge, AuditChallenge,
                   {app_descriptor(), 5, 6, 0x4455667788ULL, 7});
JACEPP_WIRE_SAMPLE(msg::AuditReply, AuditReply,
                   {3, 4, 5, 0x5566778899ULL, 0x66778899aaULL});
JACEPP_WIRE_SAMPLE(msg::ReputationReport, ReputationReport,
                   {0x0102030405060708ULL, msg::ReputationReport::Liar, 0.75});
JACEPP_WIRE_SAMPLE(msg::BackupPlacement, BackupPlacement,
                   {3, 88, {4, 2, 7}});

#undef JACEPP_WIRE_SAMPLE

/// The message catalogue (every type with a kType) plus the nested wire
/// types messages carry.
using WireTypes = ::testing::Types<
    net::Stub, TaskEntry, AppRegister, AppDescriptor,
    msg::RegisterDaemon, msg::RegisterAck, msg::LinkSuperPeers,
    msg::Heartbeat, msg::HeartbeatAck, msg::ReserveRequest, msg::ReserveReply,
    msg::Reserved, msg::TaskAssignment, msg::RegisterUpdate, msg::TaskData,
    msg::SaveBackup, msg::BackupAck, msg::QueryBackup, msg::BackupInfo,
    msg::FetchBackup, msg::BackupData, msg::LocalStateReport,
    msg::GlobalHalt, msg::FinalState, msg::AppRegisterReplica,
    msg::FetchAppRegister, msg::AppRegisterSnapshot, msg::WaveToken,
    msg::ConvergedVerdict, msg::StateProbe, msg::AuditChallenge,
    msg::AuditReply, msg::ReputationReport, msg::BackupPlacement>;

/// Names typed tests after the wire type rather than its list index.
struct TypeNames {
  template <typename T>
  static std::string GetName(int) {
    return Sample<T>::kName;
  }
};

}  // namespace jacepp::core::wire
