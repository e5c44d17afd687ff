// parsched — the serve NDJSON protocol: a codec around the verb table.
//
// One request per line, one JSON object per request; every response is a
// single compact JSON line carrying the request's "id" back. Grammar
// (docs/API.md §serve/ has the full field tables):
//
//   {"op":"open","id":1,"policy":"equi","machines":4,"speed":1}
//     -> {"id":1,"ok":true,"session":7,"shard":2}
//   {"op":"open","id":1,...,"key":42}       -> consistent-hash routing
//                                              key (default: session id)
//   {"op":"admit","id":2,"session":7,
//    "job":{"id":0,"release":0,"size":2.5,"curve":"pow:0.5"}}
//   {"op":"advance","id":3,"session":7,"to":10.5}
//   {"op":"query","id":4,"session":7}
//   {"op":"snapshot","id":5,"session":7,"path":"s.psnp"}
//   {"op":"restore","id":6,"path":"s.psnp"} -> fresh session id
//   {"op":"finish","id":7,"session":7}      -> final result + records
//   {"op":"close","id":8,"session":7}
//   {"op":"ping","id":9}
//   {"op":"stats","id":10}                  -> {"id":10,"ok":true,
//                                              "format":"prometheus",
//                                              "exposition":"# TYPE ..."}
//   {"op":"dump","id":11}                   -> inline flight-recorder
//                                              JSONL in "dump"
//   {"op":"dump","id":12,"path":"f.jsonl"}  -> dump written to the file
//   {"op":"shutdown","id":13}               -> drains, then stops serving
//
// Cluster administration (serve/cluster.hpp):
//
//   {"op":"migrate","id":14,"session":7,"shard":1}
//     -> ok once the live migration *started* (it completes on the
//        source strand; submits racing it answer {"reject":"draining"}
//        and retry onto the new shard)
//   {"op":"evacuate","id":15,"shard":0}
//     -> {"id":15,"ok":true,"shard":0,"migrated":5} — synchronous:
//        takes the shard out of the ring, live-migrates its sessions to
//        their new ring positions, drains the emptied shard
//   {"op":"cluster","id":16}
//     -> {"id":16,"ok":true,"shards":4,"sessions":12,
//         "shard_sessions":[3,4,0,5],"in_ring":[true,true,false,true]}
//
// stats and dump answer synchronously (never queued on a strand): the
// telemetry plane must respond even when every session is wedged. stats
// requires Cluster::Config::metrics, dump requires Config::recorder;
// without them the verb answers ok:false.
//
// Failures answer {"id":..,"ok":false,"error":"..."}; load rejections
// (queue full, draining, session cap) answer
// {"error":"<op> rejected","reject":"queue_full"} so clients can tell
// backpressure from caller bugs. Curve specs are "par", "seq", or
// "pow:<alpha>". Integer fields (machines, key, session, shard, job.id)
// must hold an integral value in their type's range; anything else
// answers ok:false naming the field. A request naming an unknown op
// must still carry a session: {"op":"warp"} answers "missing session".
//
// This file is the NDJSON codec only. handle_line() decodes a line into
// a serve::Command (serve/command.hpp), execute() runs the verb, and
// the reply is encoded back into one line; PBIN (serve/binproto.hpp)
// wraps the same execute() with its own codec in handle_frame(). Strand
// verbs answer from pool threads through the WriteFn, which must
// therefore be thread-safe (the transports wrap a mutex around the
// output). Per session, responses arrive in request order; across
// sessions they interleave.
//
// The handler is backed by a serve::Cluster. A Server::Config
// constructs the single-shard special case; a Cluster::Config opens the
// sharded plane.
#pragma once

#include <string>
#include <string_view>

#include "serve/cluster.hpp"
#include "serve/command.hpp"

namespace parsched::serve {

class ProtocolHandler {
 public:
  /// Thread-safe sink for one complete response line (NDJSON, no
  /// trailing '\n') or one response frame payload (PBIN, unframed).
  using WriteFn = serve::WriteFn;

  /// Single-shard compatibility: one Server-shaped shard.
  explicit ProtocolHandler(Server::Config cfg)
      : cluster_(Cluster::Config{1, cfg.threads, cfg.max_sessions,
                                 cfg.max_queue, cfg.metrics,
                                 cfg.recorder}) {}

  explicit ProtocolHandler(Cluster::Config cfg) : cluster_(cfg) {}

  /// Process one NDJSON request line. Responses (possibly deferred to a
  /// pool thread) go to `write`, which is retained until the response
  /// is emitted. Returns false once a "shutdown" request has been
  /// served — the transport should stop reading and tear down.
  bool handle_line(std::string_view line, WriteFn write);

  /// Process one PBIN request frame payload (serve/binproto.cpp).
  /// `write` receives the response payload, unframed — the transport
  /// adds the length prefix. Same shutdown contract as handle_line.
  bool handle_frame(std::string_view payload, WriteFn write);

  [[nodiscard]] Cluster& cluster() { return cluster_; }

  /// Flush every queued response and stop accepting work (the
  /// transports call this on EOF).
  void drain() { cluster_.drain(); }

 private:
  Cluster cluster_;
};

}  // namespace parsched::serve
