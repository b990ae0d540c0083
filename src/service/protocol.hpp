// Wire protocol of the experiment daemon (ereld): message tags carried in
// net::Frame::type plus the text payload encodings.
//
// Everything rides the repo's existing canonical text formats: a sweep-cell
// request is the config/sampling canonical-field rendering (the exact text
// the result-cache fingerprint hashes, sim/config.cpp + sim/sampling.cpp),
// and a result is a verbatim `.erelres` cache entry (harness/results.hpp) —
// so a daemon-served cell is byte-identical to a locally-cached one by
// construction, and the two ends cannot disagree about what a field means
// without the strict parsers failing loudly. Every payload is written and
// read through common/record.hpp, the one codec that decides what makes a
// record malformed.
//
// Conversation shape (client = one figure binary / harness::RemoteBackend):
//
//   connect  ->  kHello "ereld <version>"
//   kRunCell (id, fingerprint, cell)  -> kResult (id, cached, entry)
//                                     or kError (id, reason)
//   kStats -> kStatsReply             kShutdown -> close
//
// Requests are pipelined: a client may send any number of kRunCell frames
// before reading; responses carry the request id, not an ordering promise.
// After kHello, every frame the daemon sends answers a request.
//
// The daemon admits every request. A client that reconnects resubmits what
// it still waits for — safe, because requests are content-addressed: a
// resubmitted cell is a cache hit or an in-flight join, never a second
// simulation. A client withdraws its pending requests by disconnecting; a
// cell already running finishes into the daemon's store regardless.
//
// v3 retired tags 5-8 (v2's live channel subscriptions and ping), v4
// retired tag 12 (v2's explicit cancel) and v6 retired tag 13 (kBusy, the
// admission refusal). The daemon refuses them like any unknown tag; never
// reuse their numbers. v5 dropped the stats reply's eviction counter, v6
// its busy counter, the sampled cell's two constant sampling lines and a
// sampled entry's second copy of its estimate.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "harness/results.hpp"
#include "sim/config.hpp"
#include "sim/sampling.hpp"

namespace erel::service {

/// Bump when any payload encoding changes; the client refuses to talk to a
/// daemon announcing a different version (kHello).
inline constexpr unsigned kProtocolVersion = 7;

enum class MsgType : std::uint8_t {
  kHello = 1,       // server -> client, on connect
  kRunCell = 2,     // client -> server
  kResult = 3,      // server -> client
  kError = 4,       // server -> client
  kStats = 9,       // client -> server
  kStatsReply = 10, // server -> client
  kShutdown = 11,   // client -> server
};

/// Human-readable tag name for error messages and logs ("run_cell",
/// "stats", ...); "unknown" for values outside the enum. The switch in
/// protocol.cpp names every enumerator, so adding a message type without
/// teaching the codec about it is a compile warning and a lint finding.
std::string_view msg_type_name(MsgType type);

/// One sweep cell, as shipped to the daemon. `fingerprint_hex` is the
/// *client's* content-addressed fingerprint (harness/fingerprint.hpp); the
/// daemon recomputes its own from the decoded cell and refuses on mismatch
/// (a client and daemon built from diverged sources must never share
/// results).
struct CellRequest {
  std::uint64_t id = 0;  // client-chosen; echoed in kResult / kError
  harness::ExpKey key;
  std::string workload;
  std::string fingerprint_hex;
  sim::SimConfig config;
  std::optional<sim::SamplingConfig> sampling;
  std::vector<std::string> probe_names;
};

std::string encode_cell_request(const CellRequest& request);
std::optional<CellRequest> decode_cell_request(std::string_view payload);

/// kResult: `entry_text` is a complete `.erelres` cache entry; the client
/// re-validates it with parse_entry against its own fingerprint and key.
/// `cached` distinguishes a warm-cache hit from a fresh simulation (for the
/// ResultSet's provenance counters).
struct ResultMsg {
  std::uint64_t id = 0;
  bool cached = false;
  std::string entry_text;
};

std::string encode_result(const ResultMsg& msg);
std::optional<ResultMsg> decode_result(std::string_view payload);

/// kError: id 0 = connection-level (not tied to one request).
struct ErrorMsg {
  std::uint64_t id = 0;
  std::string message;
};

std::string encode_error(const ErrorMsg& msg);
std::optional<ErrorMsg> decode_error(std::string_view payload);

/// kStatsReply: daemon-lifetime counters (also how tests assert the
/// in-flight dedupe: `simulated` counts actual simulations, so N clients
/// racing on one fingerprint leave `simulated == 1`).
struct DaemonStats {
  std::uint64_t requests = 0;        // kRunCell frames accepted
  std::uint64_t cache_hits = 0;      // served from the on-disk cache
  std::uint64_t simulated = 0;       // cells actually simulated
  std::uint64_t deduped = 0;         // requests folded into an in-flight cell
  std::uint64_t errors = 0;          // kError replies sent
  std::uint64_t inflight = 0;        // cells queued or running right now
  std::uint64_t cancelled = 0;       // cells reaped by disconnect
  std::uint64_t dropped_clients = 0; // dropped for outbound-buffer overflow
  std::uint64_t quarantined = 0;     // corrupt cache entries moved to .bad

  /// Always 0 and not on the wire: the daemon refuses no request. The name
  /// stays only because the benchmark's daemon sweep
  /// (perfbench/src/daemon_sweep.cpp) reports it; it goes with that reader.
  static constexpr std::uint64_t busy = 0;

  bool operator==(const DaemonStats&) const = default;
};

std::string encode_stats(const DaemonStats& stats);
std::optional<DaemonStats> decode_stats(std::string_view payload);

}  // namespace erel::service
