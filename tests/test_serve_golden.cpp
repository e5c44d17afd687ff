// serve/ — golden transcripts of both wires.
//
// Every verb's exact response bytes, on NDJSON and on PBIN, over the ok,
// error and reject paths: malformed requests, missing fields, session
// cap, unknown sessions, failing strand ops, telemetry verbs with and
// without a registry or recorder, an unknown PBIN opcode and truncated
// frames. Each transcript runs request by request through one
// ProtocolHandler, so session ids, shard placement and every double in
// a reply are deterministic. The expected strings were recorded from
// the per-wire dispatchers that preceded the shared verb table
// (serve/command.hpp), so the wire bytes clients depend on cannot drift
// with a refactor.
//
// Telemetry texts (Prometheus exposition, flight-recorder JSONL) carry
// timings, so for those the transcript pins every byte around the text
// and the text's framing, not the text itself.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <future>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "serve/binproto.hpp"
#include "serve/protocol.hpp"
#include "simcore/job.hpp"
#include "speedup/curve.hpp"

namespace parsched {
namespace {

std::string hex(const std::string& bytes) {
  static const char* const kDigits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

std::string replace_all(std::string s, const std::string& from,
                        const std::string& to) {
  for (std::size_t at = s.find(from); at != std::string::npos;
       at = s.find(from, at + to.size())) {
    s.replace(at, from.size(), to);
  }
  return s;
}

// One request, one reply: every request answers exactly once, so a
// promise per call keeps the transcript strictly sequential.
struct Reply {
  std::string bytes;
  bool alive = true;
};

Reply line_call(serve::ProtocolHandler& h, const std::string& line) {
  auto p = std::make_shared<std::promise<std::string>>();
  auto f = p->get_future();
  Reply r;
  r.alive = h.handle_line(line, [p](const std::string& s) { p->set_value(s); });
  r.bytes = f.get();
  return r;
}

Reply frame_call(serve::ProtocolHandler& h, const std::string& payload) {
  auto p = std::make_shared<std::promise<std::string>>();
  auto f = p->get_future();
  Reply r;
  r.alive =
      h.handle_frame(payload, [p](const std::string& s) { p->set_value(s); });
  r.bytes = f.get();
  return r;
}

std::string scratch_dir() {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "parsched_golden";
  std::filesystem::create_directories(dir);
  return dir.string();
}

// Two shards, one thread each, a cap of two sessions, no telemetry.
serve::Cluster::Config plain_config() {
  return serve::Cluster::Config{2, 1, 2, 8, nullptr, nullptr};
}

struct LineStep {
  std::string request;   // "@DIR@" expands to the scratch directory
  std::string expected;
};

TEST(ProtocolGolden, NdjsonTranscript) {
  const std::string dir = scratch_dir();
  std::filesystem::remove(dir + "/nd.psnp");
  serve::ProtocolHandler h(plain_config());
  const std::vector<LineStep> steps = {
      // Requests that never reach a verb.
      {R"j({oops)j",
       R"j({"ok":false,"error":"bad JSON: offset 1: expected object key string"})j"},
      {R"j([1,2])j", R"j({"ok":false,"error":"request must be a JSON object"})j"},
      {R"j({"id":1})j", R"j({"id":1,"ok":false,"error":"missing op"})j"},
      {R"j({"op":"warp","id":2})j",
       R"j({"id":2,"ok":false,"error":"missing session"})j"},
      {R"j({"op":"warp","id":3,"session":1})j",
       R"j({"id":3,"ok":false,"error":"unknown op: warp"})j"},
      // Inline verbs.
      {R"j({"op":"ping","id":4})j", R"j({"id":4,"ok":true})j"},
      {R"j({"op":"ping"})j", R"j({"ok":true})j"},
      {R"j({"op":"ping","id":4.5})j", R"j({"id":4.5,"ok":true})j"},
      {R"j({"op":"stats","id":5})j",
       R"j({"id":5,"ok":false,"error":"stats: server has no metrics registry"})j"},
      {R"j({"op":"dump","id":6})j",
       R"j({"id":6,"ok":false,"error":"dump: server has no flight recorder"})j"},
      {R"j({"op":"cluster","id":7})j",
       R"j({"id":7,"ok":true,"shards":2,"sessions":0,"shard_sessions":[0,0],"in_ring":[true,true]})j"},
      {R"j({"op":"open","id":8,"policy":"isrpt","machines":2})j",
       R"j({"id":8,"ok":true,"session":1,"shard":1})j"},
      {R"j({"op":"open","id":9,"policy":"no-such-policy"})j",
       R"j({"id":9,"ok":false,"error":"unknown scheduler: no-such-policy"})j"},
      {R"j({"op":"open","id":10,"policy":"equi","key":42})j",
       R"j({"id":10,"ok":true,"session":3,"shard":0})j"},
      {R"j({"op":"open","id":11,"policy":"equi"})j",
       R"j({"id":11,"ok":false,"error":"open rejected","reject":"session_cap"})j"},
      // Session verbs: missing fields, unknown sessions, strand ops.
      {R"j({"op":"query","id":12})j",
       R"j({"id":12,"ok":false,"error":"missing session"})j"},
      {R"j({"op":"query","id":13,"session":"1"})j",
       R"j({"id":13,"ok":false,"error":"missing session"})j"},
      {R"j({"op":"query","id":14,"session":42})j",
       R"j({"id":14,"ok":false,"error":"query rejected","reject":"unknown_session"})j"},
      {R"j({"op":"admit","id":15,"session":1})j",
       R"j({"id":15,"ok":false,"error":"admit requires job"})j"},
      {R"j({"op":"admit","id":16,"session":1,"job":{"release":0}})j",
       R"j({"id":16,"ok":false,"error":"job.id (number) is required"})j"},
      {R"j({"op":"admit","id":17,"session":1,"job":7})j",
       R"j({"id":17,"ok":false,"error":"job must be an object"})j"},
      {R"j({"op":"admit","id":18,"session":1,"job":{"id":5,"curve":"pow:2"}})j",
       R"j({"id":18,"ok":false,"error":"bad power-law curve spec: pow:2"})j"},
      {R"j({"op":"admit","id":19,"session":1,"job":{"id":5,"curve":"amdahl"}})j",
       R"j({"id":19,"ok":false,"error":"unknown curve spec: amdahl (expected par|seq|pow:<alpha>)"})j"},
      {R"j({"op":"admit","id":20,"session":1,"job":{"id":5,"phases":3}})j",
       R"j({"id":20,"ok":false,"error":"job.phases must be an array"})j"},
      {R"j({"op":"admit","id":21,"session":1,"job":{"id":5,"phases":[1]}})j",
       R"j({"id":21,"ok":false,"error":"job phase must be an object"})j"},
      {R"j({"op":"admit","id":22,"session":42,"job":{"id":0}})j",
       R"j({"id":22,"ok":false,"error":"admit rejected","reject":"unknown_session"})j"},
      {R"j({"op":"admit","id":23,"session":1,"job":{"id":0,"size":2,"curve":"pow:0.5"}})j",
       R"j({"id":23,"ok":true})j"},
      {R"j({"op":"admit","id":24,"session":1,"job":{"id":1,"release":0.5,"weight":2,"phases":[{"work":0.5,"curve":"seq"},{"work":1.5,"curve":"pow:0.25"}]}})j",
       R"j({"id":24,"ok":true})j"},
      {R"j({"op":"advance","id":25,"session":1})j",
       R"j({"id":25,"ok":false,"error":"advance requires to (number)"})j"},
      {R"j({"op":"advance","id":26,"session":1,"to":1})j",
       R"j({"id":26,"ok":true})j"},
      {R"j({"op":"admit","id":27,"session":1,"job":{"id":2,"release":0.25}})j",
       R"j({"id":27,"ok":false,"error":"admission in the past: release 0.25 < frontier 1"})j"},
      {R"j({"op":"query","id":28,"session":1})j",
       R"j({"id":28,"ok":true,"policy":"Intermediate-SRPT","time":1,"frontier":1,"alive":2,"pending":0,"finished":false,"jobs":0,"total_flow":0,"weighted_flow":0,"fractional_flow":1.1098349570550448,"makespan":0,"decisions":3,"events":2})j"},
      {R"j({"op":"snapshot","id":29,"session":1})j",
       R"j({"id":29,"ok":false,"error":"snapshot requires path"})j"},
      {R"j({"op":"snapshot","id":30,"session":1,"path":"@DIR@/nd.psnp"})j",
       R"j({"id":30,"ok":true})j"},
      {R"j({"op":"restore","id":31})j",
       R"j({"id":31,"ok":false,"error":"restore requires path"})j"},
      {R"j({"op":"restore","id":32,"path":"no-such-snapshot.psnp"})j",
       R"j({"id":32,"ok":false,"error":"cannot open session snapshot: no-such-snapshot.psnp"})j"},
      {R"j({"op":"restore","id":33,"path":"@DIR@/nd.psnp"})j",
       R"j({"id":33,"ok":false,"error":"restore rejected","reject":"session_cap"})j"},
      {R"j({"op":"close","id":34})j",
       R"j({"id":34,"ok":false,"error":"missing session"})j"},
      {R"j({"op":"close","id":35,"session":3})j", R"j({"id":35,"ok":true})j"},
      {R"j({"op":"close","id":36,"session":3})j",
       R"j({"id":36,"ok":false,"error":"close rejected","reject":"unknown_session"})j"},
      {R"j({"op":"restore","id":37,"path":"@DIR@/nd.psnp"})j",
       R"j({"id":37,"ok":true,"session":4,"shard":0})j"},
      // Cluster administration.
      {R"j({"op":"migrate","id":38,"session":4})j",
       R"j({"id":38,"ok":false,"error":"migrate requires shard (number)"})j"},
      {R"j({"op":"migrate","id":39,"session":4,"shard":9})j",
       R"j({"id":39,"ok":false,"error":"migrate: shard 9 out of range"})j"},
      {R"j({"op":"migrate","id":40,"session":42,"shard":1})j",
       R"j({"id":40,"ok":false,"error":"migrate rejected","reject":"unknown_session"})j"},
      {R"j({"op":"migrate","id":41,"session":4,"shard":0})j",
       R"j({"id":41,"ok":true})j"},
      {R"j({"op":"evacuate","id":42})j",
       R"j({"id":42,"ok":false,"error":"evacuate requires shard (number)"})j"},
      {R"j({"op":"evacuate","id":43,"shard":9})j",
       R"j({"id":43,"ok":false,"error":"evacuate: shard 9 out of range"})j"},
      {R"j({"op":"evacuate","id":44,"shard":0})j",
       R"j({"id":44,"ok":true,"shard":0,"migrated":1})j"},
      {R"j({"op":"evacuate","id":45,"shard":1})j",
       R"j({"id":45,"ok":false,"error":"evacuate: cannot remove the last in-ring shard"})j"},
      {R"j({"op":"cluster","id":46})j",
       R"j({"id":46,"ok":true,"shards":2,"sessions":2,"shard_sessions":[0,2],"in_ring":[false,true]})j"},
      {R"j({"op":"migrate","id":47,"session":4,"shard":0})j",
       R"j({"id":47,"ok":false,"error":"migrate: shard 0 is out of the ring"})j"},
      // Finish both sessions: the donor and its restored continuation.
      {R"j({"op":"finish","id":48,"session":1})j",
       R"j({"id":48,"ok":true,"jobs":2,"total_flow":3.6803899951282655,"weighted_flow":5.567886771443078,"fractional_flow":1.8096169230718486,"makespan":2.387496776314813,"decisions":4,"events":4,"records":[{"job":0,"release":0,"completion":1.7928932188134525},{"job":1,"release":0.5,"completion":2.387496776314813}]})j"},
      {R"j({"op":"finish","id":49,"session":4})j",
       R"j({"id":49,"ok":true,"jobs":2,"total_flow":3.6803899951282655,"weighted_flow":5.567886771443078,"fractional_flow":1.8096169230718486,"makespan":2.387496776314813,"decisions":4,"events":4,"records":[{"job":0,"release":0,"completion":1.7928932188134525},{"job":1,"release":0.5,"completion":2.387496776314813}]})j"},
      {R"j({"op":"snapshot","id":50,"session":1,"path":"@DIR@/nd2.psnp"})j",
       R"j({"id":50,"ok":false,"error":"cannot snapshot a finished session"})j"},
      {R"j({"op":"finish","id":51,"session":1})j",
       R"j({"id":51,"ok":true,"jobs":2,"total_flow":3.6803899951282655,"weighted_flow":5.567886771443078,"fractional_flow":1.8096169230718486,"makespan":2.387496776314813,"decisions":4,"events":4,"records":[{"job":0,"release":0,"completion":1.7928932188134525},{"job":1,"release":0.5,"completion":2.387496776314813}]})j"},
      {R"j({"op":"close","id":52,"session":1})j", R"j({"id":52,"ok":true})j"},
      {R"j({"op":"query","id":53,"session":1})j",
       R"j({"id":53,"ok":false,"error":"query rejected","reject":"unknown_session"})j"},
      {R"j({"op":"shutdown","id":54})j", R"j({"id":54,"ok":true})j"},
  };
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const Reply r = line_call(h, replace_all(steps[i].request, "@DIR@", dir));
    EXPECT_EQ(r.bytes, steps[i].expected) << "step " << i << ": "
                                          << steps[i].request;
    EXPECT_EQ(r.alive, i + 1 != steps.size()) << "step " << i;
  }
  std::filesystem::remove(dir + "/nd.psnp");
  std::filesystem::remove(dir + "/nd2.psnp");
}


struct FrameStep {
  std::string request;       // PBIN request payload (unframed)
  std::string expected_hex;  // the reply payload, hex
};

std::string bytes(std::initializer_list<unsigned char> b) {
  return std::string(b.begin(), b.end());
}

// A piecewise-linear job with two phases: every field of the PBIN job
// codec (and the shared curve codec) carries a distinct value.
Job phased_pwl_job() {
  Job j;
  j.id = 3;
  j.release = 0.5;
  j.size = 2.0;
  j.weight = 1.5;
  j.curve = SpeedupCurve::piecewise_linear({{1.0, 1.0}, {2.0, 1.5}});
  j.phases.push_back({0.75, SpeedupCurve::sequential()});
  j.phases.push_back(
      {1.25, SpeedupCurve::piecewise_linear({{1.0, 1.0}, {3.0, 2.0}})});
  return j;
}

TEST(ProtocolGolden, BinAdmitRequestBytes) {
  EXPECT_EQ(hex(serve::bin_admit(9, 4, phased_pwl_job())),
       "020900000000000000040000000000000003000000000000000000e0"
       "3f0000000000000040000000000000f83f03d17a3f4703b8e23f0200"
       "0000000000000000f03f000000000000f03f00000000000000400000"
       "00000000f83f02000000000000000000e83f01000000000000000000"
       "0000000000f43f033d3535989330e43f02000000000000000000f03f"
       "000000000000f03f00000000000008400000000000000040");
}

TEST(ProtocolGolden, PbinTranscript) {
  const std::string dir = scratch_dir();
  const std::string snap = dir + "/pb.psnp";
  std::filesystem::remove(snap);
  serve::ProtocolHandler h(plain_config());
  Job small;
  small.id = 0;
  small.size = 2.0;
  small.curve = SpeedupCurve::power_law(0.5);
  Job late;
  late.id = 2;
  late.release = 0.25;
  const std::string admit = serve::bin_admit(20, 1, small);
  const std::vector<FrameStep> steps = {
      // Frames that never reach a verb.
      {"",
       "0100000000000000000022000000636f7272757074206672616d6520"
       "6174206279746520303a207472756e6361746564"},
      {bytes({0}),
       "0100000000000000000022000000636f7272757074206672616d6520"
       "6174206279746520313a207472756e6361746564"},
      {bytes({0, 7, 0, 0}),
       "0100000000000000000022000000636f7272757074206672616d6520"
       "6174206279746520313a207472756e6361746564"},
      {bytes({99, 7, 0, 0, 0, 0, 0, 0, 0}), "010700000000000000000e000000756e6b6e6f776e206f703a203939"},
      {bytes({255, 1, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3}),
       "010100000000000000000f000000756e6b6e6f776e206f703a203235"
       "35"},
      // Inline verbs.
      {serve::bin_ping(1), "00010000000000000000"},
      {serve::bin_stats(2),
       "010200000000000000092500000073746174733a2073657276657220"
       "686173206e6f206d657472696373207265676973747279"},
      {serve::bin_dump(3),
       "0103000000000000000a2300000064756d703a207365727665722068"
       "6173206e6f20666c69676874207265636f72646572"},
      {serve::bin_dump(4, dir + "/never.jsonl"),
       "0104000000000000000a2300000064756d703a207365727665722068"
       "6173206e6f20666c69676874207265636f72646572"},
      {bytes({10, 5, 0, 0, 0, 0, 0, 0, 0}),
       "0105000000000000000a2300000064756d703a207365727665722068"
       "6173206e6f20666c69676874207265636f72646572"},
      {serve::bin_cluster(6),
       "0006000000000000000e020000000000000000000000000000000100"
       "00000001"},
      {serve::bin_open(7, "isrpt", 2, 1.0), "00070000000000000001010000000000000001000000"},
      {serve::bin_open(8, "no-such-policy", 2, 1.0),
       "0108000000000000000121000000756e6b6e6f776e20736368656475"
       "6c65723a206e6f2d737563682d706f6c696379"},
      {serve::bin_open(9, "equi", 1, 1.0, 42), "00090000000000000001030000000000000000000000"},
      {serve::bin_open(10, "equi", 1, 1.0), "020a000000000000000104"},
      {serve::bin_open(11, "isrpt", 2, 1.0).substr(0, 14),
       "010b000000000000000123000000636f7272757074206672616d6520"
       "617420627974652031333a207472756e6361746564"},
      // Session verbs.
      {serve::bin_query(12, 42), "020c000000000000000402"},
      {serve::bin_query(13, 1).substr(0, 12),
       "010d000000000000000422000000636f7272757074206672616d6520"
       "6174206279746520393a207472756e6361746564"},
      {admit.substr(0, admit.size() - 3),
       "0114000000000000000223000000636f7272757074206672616d6520"
       "617420627974652035343a207472756e6361746564"},
      {serve::bin_admit(14, 42, small), "020e000000000000000202"},
      {serve::bin_admit(15, 1, small), "000f0000000000000002"},
      {serve::bin_admit(16, 1, phased_pwl_job()), "00100000000000000002"},
      {serve::bin_advance(17, 1, 1.0), "00110000000000000003"},
      {serve::bin_admit(18, 1, late),
       "011200000000000000023000000061646d697373696f6e20696e2074"
       "686520706173743a2072656c6561736520302e3235203c2066726f6e"
       "746965722031"},
      {serve::bin_query(19, 1),
       "0013000000000000000411000000496e7465726d6564696174652d53"
       "525054000000000000e03f000000000000f03f020000000000000000"
       "00000000000000000000000000000000000000000000000000000000"
       "000000000d316066d857da3f00000000000000000200000000000000"
       "0200000000000000"},
      {serve::bin_snapshot(21, 1, ""),
       "0115000000000000000516000000736e617073686f74207265717569"
       "7265732070617468"},
      {serve::bin_snapshot(22, 1, snap), "00160000000000000005"},
      {serve::bin_restore(23, ""),
       "0117000000000000000615000000726573746f726520726571756972"
       "65732070617468"},
      {serve::bin_restore(24, "no-such-snapshot.psnp"),
       "011800000000000000063300000063616e6e6f74206f70656e207365"
       "7373696f6e20736e617073686f743a206e6f2d737563682d736e6170"
       "73686f742e70736e70"},
      {serve::bin_restore(25, snap), "0219000000000000000604"},
      {serve::bin_close(26, 3), "001a0000000000000008"},
      {serve::bin_close(27, 3), "021b000000000000000802"},
      {serve::bin_restore(28, snap), "001c0000000000000006040000000000000000000000"},
      // Cluster administration.
      {serve::bin_migrate(29, 4, 9),
       "011d000000000000000c1d0000006d6967726174653a207368617264"
       "2039206f7574206f662072616e6765"},
      {serve::bin_migrate(30, 42, 1), "021e000000000000000c02"},
      {serve::bin_migrate(31, 4, 0), "001f000000000000000c"},
      {serve::bin_evacuate(32, 9),
       "0120000000000000000d1e00000065766163756174653a2073686172"
       "642039206f7574206f662072616e6765"},
      {serve::bin_evacuate(33, 0), "0021000000000000000d01000000"},
      {serve::bin_evacuate(34, 1),
       "0122000000000000000d2e00000065766163756174653a2063616e6e"
       "6f742072656d6f766520746865206c61737420696e2d72696e672073"
       "68617264"},
      {serve::bin_cluster(35),
       "0023000000000000000e020000000200000000000000000000000002"
       "00000001"},
      {serve::bin_migrate(36, 4, 0),
       "0124000000000000000c230000006d6967726174653a207368617264"
       "2030206973206f7574206f66207468652072696e67"},
      // Finish the donor and its restored continuation.
      {serve::bin_finish(37, 1),
       "0025000000000000000702000000000000006741808820750c40ca24"
       "c84ce2c11140b2c3ad3bfc9afc3f5a102022481d0240040000000000"
       "00000400000000000000020000000000000000000000000000001a62"
       "c0ccb0affc3f03000000000000000000e03f5a102022481d0240"},
      {serve::bin_finish(38, 4),
       "0026000000000000000702000000000000006741808820750c40ca24"
       "c84ce2c11140b2c3ad3bfc9afc3f5a102022481d0240040000000000"
       "00000400000000000000020000000000000000000000000000001a62"
       "c0ccb0affc3f03000000000000000000e03f5a102022481d0240"},
      {serve::bin_snapshot(39, 1, dir + "/pb2.psnp"),
       "012700000000000000052200000063616e6e6f7420736e617073686f"
       "7420612066696e69736865642073657373696f6e"},
      {serve::bin_close(40, 1), "00280000000000000008"},
      {serve::bin_advance(41, 1, 2.0), "0229000000000000000302"},
      {serve::bin_shutdown(42), "002a000000000000000b"},
  };
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const Reply r = frame_call(h, steps[i].request);
    EXPECT_EQ(hex(r.bytes), steps[i].expected_hex)
        << "step " << i << ": request " << hex(steps[i].request);
    EXPECT_EQ(r.alive, i + 1 != steps.size()) << "step " << i;
  }
  std::filesystem::remove(snap);
  std::filesystem::remove(dir + "/pb2.psnp");
}

// stats and dump with a registry and a recorder attached. The texts
// carry timings; everything around them is pinned.
TEST(ProtocolGolden, TelemetryVerbsWithRegistryAndRecorder) {
  const std::string dir = scratch_dir();
  obs::MetricsRegistry metrics;
  obs::FlightRecorder recorder(64);
  serve::ProtocolHandler h(
      serve::Cluster::Config{2, 1, 2, 8, &metrics, &recorder});

  const std::string stats = line_call(h, R"j({"op":"stats","id":1})j").bytes;
  const std::string stats_head =
      R"j({"id":1,"ok":true,"format":"prometheus","metrics":34,"exposition":")j";
  EXPECT_EQ(stats.substr(0, stats_head.size()), stats_head) << stats;
  EXPECT_EQ(stats.substr(stats.size() - 2), "\"}") << stats;

  const std::string dump = line_call(h, R"j({"op":"dump","id":2})j").bytes;
  const std::string dump_head =
      R"j({"id":2,"ok":true,"kind":"parsched-flight-record","dump":")j";
  EXPECT_EQ(dump.substr(0, dump_head.size()), dump_head) << dump;
  EXPECT_EQ(dump.substr(dump.size() - 2), "\"}") << dump;

  const std::string path = dir + "/golden_dump.jsonl";
  EXPECT_EQ(line_call(h, R"j({"op":"dump","id":3,"path":")j" + path + "\"}")
                .bytes,
            R"j({"id":3,"ok":true})j");
  EXPECT_TRUE(std::filesystem::exists(path));
  std::filesystem::remove(path);
  EXPECT_EQ(line_call(h, R"j({"op":"dump","id":4,"path":""})j").bytes.substr(
                0, dump_head.size()),
            replace_all(dump_head, "\"id\":2", "\"id\":4"));

  // PBIN: status, rid, op, then the text as a length-prefixed string.
  const std::string bstats = frame_call(h, serve::bin_stats(5)).bytes;
  EXPECT_EQ(hex(bstats.substr(0, 10)), "00050000000000000009");
  EXPECT_EQ(bstats.size(), 14 + (static_cast<std::size_t>(
                                     static_cast<unsigned char>(bstats[10])) |
                                 static_cast<std::size_t>(
                                     static_cast<unsigned char>(bstats[11]))
                                     << 8 |
                                 static_cast<std::size_t>(
                                     static_cast<unsigned char>(bstats[12]))
                                     << 16));
  const std::string bdump = frame_call(h, serve::bin_dump(6)).bytes;
  EXPECT_EQ(hex(bdump.substr(0, 10)), "0006000000000000000a");
  EXPECT_GT(bdump.size(), 14u);
  EXPECT_EQ(hex(frame_call(h, serve::bin_dump(7, path)).bytes),
            "0007000000000000000a");
  EXPECT_TRUE(std::filesystem::exists(path));
  std::filesystem::remove(path);
  // A dump frame too short for its path: with a recorder attached the
  // truncation is the answer.
  EXPECT_EQ(hex(frame_call(h, bytes({10, 8, 0, 0, 0, 0, 0, 0, 0, 1}))
                    .bytes),

       "0108000000000000000a22000000636f7272757074206672616d6520"
       "617420"
            "6279746520393a207472756e6361746564");
  h.drain();
}

}  // namespace
}  // namespace parsched
