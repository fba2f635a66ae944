// JSONL serving protocol: the wire format of `sca_cli serve`.
//
// One request per input line, one response per output line, in request
// order — the contract a batch-synchronous loop can honour exactly. The
// scanners are util::jsonStringField / jsonIntField (the repo's torn-line-
// safe field extractors), not a general JSON parser: the schema is flat by
// design.
//
// Requests:
//
//   {"op":"generate","id":"r1","chain":0,"challenge":3,"deadline_s":25}
//   {"op":"transform","id":"r2","chain":0,"source":"...","deadline_s":25}
//   {"op":"stats","id":"s1"}
//   {"op":"kill_shard","id":"c1","shard":2}
//   {"op":"slow_shard","id":"c2","shard":1,"slowed":1}
//   {"op":"shutdown","id":"c3"}
//
//   chain        conversation id; requests with the same chain form one
//                conversation (served sequentially, in arrival order).
//                Validated: 0 <= chain < 2^32
//   challenge    index into the year's challenge catalogue (generate only;
//                validated non-negative, catalogue bound checked at serve
//                time)
//   source       input text (transform only)
//   deadline_s   per-request budget in SIMULATED seconds (integer; absent
//                or 0 means the server default). Validated:
//                0 <= deadline_s <= 2^20
//   shard        validated: 0 <= shard < 64 (the SCA_SHARDS ceiling)
//   slowed       1 to slow the shard, 0 to un-slow (default 1)
//
// Responses:
//
//   {"id":"r1","status":"ok","shard":0,"sim_s":1.125,"output":"..."}
//   {"id":"r2","status":"error","code":"timeout","error":"..."}
//   {"id":"r5","status":"error","code":"invalid_argument","reason":"..."}
//   {"id":"r3","status":"overloaded","error":"admission queue full"}
//   {"id":"r4","status":"rejected","error":"server shutting down"}
//   {"id":"c1","status":"ack","op":"kill_shard"}
//   {"id":"s1","status":"ok","op":"stats",...}   (server.hpp documents it)
//
// and, as the final line of every run, the drain record — the server's
// honest account of what degraded (serve/server.hpp documents it).
//
// With SCA_SERVE_TIMING=1 the server splices a `"timing":{...}` object
// into each ok/error response (appendTimingField below); the default is
// off, so response bytes stay chaos- and thread-count-identical.
//
// Control ops are barriers: the server finishes every request admitted
// before the control line, applies it, acks it, and only then reads on —
// so a chaos schedule expressed in the input stream is deterministic.
// `stats` is the exception: it is answered INLINE during admission (it is
// read-only, and draining the queue first would make its queue-depth
// snapshot a tautological zero), so it neither barriers nor counts toward
// the admission queue.
#pragma once

#include <string>
#include <string_view>

namespace sca::serve {

enum class Op {
  kGenerate,
  kTransform,
  kStats,
  kKillShard,
  kSlowShard,
  kShutdown,
  kInvalid,  // parse failure; `error` says why
};

// Field validation bounds (parseRequest rejects values outside them with
// a structured invalid_argument response instead of silently defaulting).
inline constexpr long long kMaxChain = 1LL << 32;
inline constexpr long long kMaxShard = 64;  // = llm::kMaxShards
inline constexpr long long kMaxDeadlineSeconds = 1LL << 20;

[[nodiscard]] std::string_view opName(Op op) noexcept;
[[nodiscard]] bool isControl(Op op) noexcept;

struct Request {
  Op op = Op::kInvalid;
  std::string id;
  long long chain = 0;             // generate / transform
  long long challenge = 0;         // generate
  std::string source;              // transform
  long long deadlineSeconds = -1;  // <= 0: server default
  long long shard = 0;             // kill_shard / slow_shard
  bool slowed = true;              // slow_shard
  std::string error;               // kInvalid only
};

/// Parses one input line. Never fails hard: anything malformed comes back
/// as Op::kInvalid with `error` (and whatever `id` could be recovered, so
/// the error response still correlates).
[[nodiscard]] Request parseRequest(std::string_view line);

// Response builders — each returns one complete JSON line (no newline).
[[nodiscard]] std::string okResponse(std::string_view id,
                                     std::string_view output, int shard,
                                     double simSeconds);
[[nodiscard]] std::string errorResponse(std::string_view id,
                                        std::string_view code,
                                        std::string_view message);
/// The structured parse/validation failure: status "error", code
/// "invalid_argument", and a `reason` field saying which check failed.
[[nodiscard]] std::string invalidResponse(std::string_view id,
                                          std::string_view reason);
[[nodiscard]] std::string overloadedResponse(std::string_view id);
[[nodiscard]] std::string rejectedResponse(std::string_view id);
[[nodiscard]] std::string ackResponse(std::string_view id, Op op);

/// Splices `"timing":<timingJson>` into a complete response line (before
/// the closing brace). `timingJson` must be a raw JSON object.
[[nodiscard]] std::string appendTimingField(std::string response,
                                            std::string_view timingJson);

}  // namespace sca::serve
