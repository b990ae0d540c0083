// The framed-message layer (src/net/) and the daemon wire protocol
// (service/protocol.hpp): frame round-trips incl. the size limits,
// truncated/garbage rejection, every message type's encode/decode, and a
// loopback socket round-trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "net/frame.hpp"
#include "net/socket.hpp"
#include "service/protocol.hpp"

namespace erel {
namespace {

using net::Frame;
using net::FrameDecoder;

Frame decode_one(const std::string& bytes) {
  FrameDecoder decoder;
  decoder.feed(bytes);
  Frame frame;
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Status::kFrame);
  return frame;
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

TEST(Frame, RoundTripsTypedPayload) {
  const Frame in{42, "hello, wire"};
  const Frame out = decode_one(net::encode_frame(in));
  EXPECT_EQ(out.type, 42);
  EXPECT_EQ(out.payload, "hello, wire");
}

TEST(Frame, RoundTripsZeroLengthPayload) {
  const Frame out = decode_one(net::encode_frame(Frame{7, ""}));
  EXPECT_EQ(out.type, 7);
  EXPECT_TRUE(out.payload.empty());
}

TEST(Frame, RoundTripsMaxSizePayload) {
  std::string big(net::kMaxFramePayload, '\0');
  for (std::size_t i = 0; i < big.size(); i += 4096)
    big[i] = static_cast<char>(i * 31);
  const Frame out = decode_one(net::encode_frame(Frame{1, big}));
  EXPECT_EQ(out.payload.size(), net::kMaxFramePayload);
  EXPECT_EQ(out.payload, big);
}

TEST(Frame, RoundTripsBinaryPayloadBytes) {
  std::string payload;
  for (int i = 0; i < 256; ++i) payload.push_back(static_cast<char>(i));
  EXPECT_EQ(decode_one(net::encode_frame(Frame{3, payload})).payload, payload);
}

TEST(Frame, DecoderReassemblesByteAtATime) {
  const std::string bytes = net::encode_frame(Frame{9, "split me"});
  FrameDecoder decoder;
  Frame frame;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    decoder.feed(std::string_view(&bytes[i], 1));
    EXPECT_EQ(decoder.next(frame), FrameDecoder::Status::kNeedMore);
    EXPECT_TRUE(decoder.mid_frame());
  }
  decoder.feed(std::string_view(&bytes[bytes.size() - 1], 1));
  ASSERT_EQ(decoder.next(frame), FrameDecoder::Status::kFrame);
  EXPECT_EQ(frame.payload, "split me");
  EXPECT_FALSE(decoder.mid_frame());
}

TEST(Frame, DecoderDrainsBackToBackFrames) {
  FrameDecoder decoder;
  decoder.feed(net::encode_frame(Frame{1, "a"}) +
               net::encode_frame(Frame{2, "bb"}));
  Frame frame;
  ASSERT_EQ(decoder.next(frame), FrameDecoder::Status::kFrame);
  EXPECT_EQ(frame.type, 1);
  ASSERT_EQ(decoder.next(frame), FrameDecoder::Status::kFrame);
  EXPECT_EQ(frame.payload, "bb");
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Status::kNeedMore);
}

TEST(Frame, TruncatedFrameIsNeedMoreNotError) {
  const std::string bytes = net::encode_frame(Frame{5, "truncated"});
  FrameDecoder decoder;
  decoder.feed(bytes.substr(0, bytes.size() - 3));
  Frame frame;
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Status::kNeedMore);
  EXPECT_TRUE(decoder.mid_frame());  // EOF here would be a torn connection
}

TEST(Frame, GarbageMagicPoisonsTheDecoder) {
  FrameDecoder decoder;
  decoder.feed("GET / HTTP/1.1\r\n\r\n");
  Frame frame;
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Status::kError);
  EXPECT_TRUE(decoder.poisoned());
  // Feeding valid bytes afterwards cannot resynchronize a poisoned stream.
  decoder.feed(net::encode_frame(Frame{1, "late"}));
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Status::kError);
}

TEST(Frame, OversizeLengthHeaderIsRejected) {
  std::string bytes = net::encode_frame(Frame{1, "x"});
  // Rewrite the length field (bytes 5..8, little-endian) to max+1.
  const std::uint32_t bad = net::kMaxFramePayload + 1;
  for (int i = 0; i < 4; ++i)
    bytes[5 + i] = static_cast<char>((bad >> (8 * i)) & 0xff);
  FrameDecoder decoder;
  decoder.feed(bytes);
  Frame frame;
  EXPECT_EQ(decoder.next(frame), FrameDecoder::Status::kError);
}

// ---------------------------------------------------------------------------
// Endpoints and loopback sockets
// ---------------------------------------------------------------------------

TEST(Endpoint, ParsesHostColonPort) {
  const auto ep = net::parse_endpoint("127.0.0.1:7431");
  ASSERT_TRUE(ep.has_value());
  EXPECT_EQ(ep->first, "127.0.0.1");
  EXPECT_EQ(ep->second, 7431);
}

TEST(Endpoint, RejectsMalformedSpecs) {
  EXPECT_FALSE(net::parse_endpoint("nohost"));
  EXPECT_FALSE(net::parse_endpoint(":7431"));
  EXPECT_FALSE(net::parse_endpoint("host:"));
  EXPECT_FALSE(net::parse_endpoint("host:0"));
  EXPECT_FALSE(net::parse_endpoint("host:70000"));
  EXPECT_FALSE(net::parse_endpoint("host:12x"));
}

TEST(Endpoint, PortsAreDigitsUpTo65535) {
  EXPECT_EQ(net::parse_port("0"), 0);  // a listener's "ephemeral"
  EXPECT_EQ(net::parse_port("7431"), 7431);
  EXPECT_EQ(net::parse_port("0000065535"), 65535);
  for (const char* bad : {"", "65536", "70000", "99999999999", "12x", "+1",
                          "-1", " 1", "1 "})
    EXPECT_FALSE(net::parse_port(bad)) << "'" << bad << "'";
}

TEST(Socket, LoopbackFrameRoundTripAndCleanEof) {
  using Status = net::Socket::RecvStatus;
  constexpr int kTimeoutMs = 10'000;  // a silent peer fails, not hangs
  net::Listener listener("127.0.0.1", 0);
  ASSERT_TRUE(listener.valid()) << listener.error();
  ASSERT_NE(listener.port(), 0);

  std::thread server([&listener] {
    net::Socket peer = listener.accept_client();
    ASSERT_TRUE(peer.valid());
    Frame frame;
    ASSERT_EQ(peer.recv_frame_deadline(frame, kTimeoutMs), Status::kFrame);
    EXPECT_EQ(frame.type, 11);
    ASSERT_TRUE(peer.send_frame(Frame{12, "pong:" + frame.payload}));
    // Destructor closes: the client should observe a clean EOF.
  });

  std::string error;
  net::Socket client = net::connect_to("127.0.0.1", listener.port(), &error);
  ASSERT_TRUE(client.valid()) << error;
  ASSERT_TRUE(client.send_frame(Frame{11, "ping"}));
  Frame reply;
  ASSERT_EQ(client.recv_frame_deadline(reply, kTimeoutMs), Status::kFrame);
  EXPECT_EQ(reply.payload, "pong:ping");
  bool clean_eof = false;
  EXPECT_EQ(client.recv_frame_deadline(reply, kTimeoutMs, &clean_eof),
            Status::kEof);
  EXPECT_TRUE(clean_eof);
  server.join();
}

// ---------------------------------------------------------------------------
// Protocol payloads: every message type round-trips
// ---------------------------------------------------------------------------

service::CellRequest sample_request() {
  service::CellRequest request;
  request.id = 17;
  request.key = harness::ExpKey{"li", core::PolicyKind::Extended, 48,
                                "ros=64,lsq=32"};
  request.workload = "li";
  request.fingerprint_hex = "0123456789abcdef";
  request.config.policy = core::PolicyKind::Extended;
  request.config.phys_int = request.config.phys_fp = 48;
  request.config.max_instructions = 20'000;
  request.config.check_oracle = false;
  request.probe_names = {"rixner"};
  return request;
}

TEST(Protocol, CellRequestRoundTrips) {
  const service::CellRequest in = sample_request();
  const auto out = service::decode_cell_request(service::encode_cell_request(in));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->id, in.id);
  EXPECT_EQ(out->key, in.key);
  EXPECT_EQ(out->workload, in.workload);
  EXPECT_EQ(out->fingerprint_hex, in.fingerprint_hex);
  EXPECT_EQ(out->probe_names, in.probe_names);
  EXPECT_FALSE(out->sampling.has_value());
  // The canonical rendering is the fingerprint input: identical rendering
  // means the decoded config is the same cell.
  std::string canon_in, canon_out;
  sim::append_canonical_fields(in.config, canon_in);
  sim::append_canonical_fields(out->config, canon_out);
  EXPECT_EQ(canon_in, canon_out);
}

TEST(Protocol, CellRequestRoundTripsSamplingAndEmptyVariant) {
  service::CellRequest in = sample_request();
  in.key.variant.clear();
  in.probe_names.clear();
  sim::SamplingConfig sampling;
  sampling.period = 30'000;
  sampling.warmup = 1'000;
  sampling.detail = 5'000;
  sampling.target_ci = 0.015;
  in.sampling = sampling;
  const auto out = service::decode_cell_request(service::encode_cell_request(in));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->key, in.key);
  ASSERT_TRUE(out->sampling.has_value());
  std::string canon_in, canon_out;
  sim::append_canonical_fields(*in.sampling, canon_in);
  sim::append_canonical_fields(*out->sampling, canon_out);
  EXPECT_EQ(canon_in, canon_out);  // includes the %a-rendered target_ci
}

TEST(Protocol, CellRequestCarriesNoSamplingConstantLines) {
  // The sampler always warms and never caps, so v6 writes no line for
  // either constant, and stratified is the only placement, so v7 writes
  // none for it either. Those lines are unknown fields, and a request
  // holding one is malformed.
  service::CellRequest in = sample_request();
  in.sampling = sim::SamplingConfig{};
  const std::string good = service::encode_cell_request(in);
  ASSERT_TRUE(service::decode_cell_request(good).has_value());
  for (const std::string line :
       {"sampling.max_samples=0\n", "sampling.functional_warming=1\n",
        "sampling.placement=2\n"}) {
    EXPECT_EQ(good.find(line.substr(0, line.find('='))), std::string::npos)
        << line;
    std::string text = good;
    text.insert(text.find("sampling.seed="), line);
    EXPECT_FALSE(service::decode_cell_request(text)) << line;
  }
}

TEST(Protocol, CellRequestRejectsMalformedPayloads) {
  const std::string good = service::encode_cell_request(sample_request());
  EXPECT_FALSE(service::decode_cell_request(""));
  EXPECT_FALSE(service::decode_cell_request("erel-cell v1\nend\n"));
  EXPECT_FALSE(service::decode_cell_request("erel-cell v2\n" +
                                            good.substr(good.find('\n') + 1)));
  // Truncation: no "end" terminator.
  EXPECT_FALSE(service::decode_cell_request(good.substr(0, good.size() - 4)));
  // Unknown lines are rejected, never skipped.
  std::string unknown = good;
  unknown.insert(unknown.find("end\n"), "mystery_field 7\n");
  EXPECT_FALSE(service::decode_cell_request(unknown));
  // Duplicated singleton field.
  std::string dup = good;
  dup.insert(dup.find("end\n"), "id 99\n");
  EXPECT_FALSE(service::decode_cell_request(dup));
  // Corrupt config field value.
  std::string bad_cfg = good;
  const std::size_t pos = bad_cfg.find("cfg.phys_int=");
  bad_cfg.replace(pos, std::string("cfg.phys_int=48").size(),
                  "cfg.phys_int=-48");
  EXPECT_FALSE(service::decode_cell_request(bad_cfg));
}

TEST(Protocol, CellRequestPolicyIsPolicyNamesSpellingOnly) {
  // The three names policy_name() writes round-trip; the CLI aliases that
  // no encoder writes (and parse_entry refuses) are malformed requests.
  for (const core::PolicyKind kind : core::all_policies()) {
    service::CellRequest in = sample_request();
    in.key.policy = kind;
    const auto out =
        service::decode_cell_request(service::encode_cell_request(in));
    ASSERT_TRUE(out.has_value()) << core::policy_name(kind);
    EXPECT_EQ(out->key.policy, kind);
  }
  const std::string good = service::encode_cell_request(sample_request());
  const std::string line = "key.policy extended\n";
  ASSERT_NE(good.find(line), std::string::npos);
  for (const char* alias : {"conventional", "ext"}) {
    std::string text = good;
    text.replace(text.find(line), line.size(),
                 std::string("key.policy ") + alias + "\n");
    EXPECT_FALSE(service::decode_cell_request(text)) << alias;
  }
}

TEST(Protocol, ResultAndErrorRoundTrip) {
  const service::ResultMsg msg{23, true, "erel-result v1\n...entry...\nend\n"};
  const auto out = service::decode_result(service::encode_result(msg));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->id, 23u);
  EXPECT_TRUE(out->cached);
  EXPECT_EQ(out->entry_text, msg.entry_text);
  EXPECT_FALSE(service::decode_result("id 1\n"));          // no entry text
  EXPECT_FALSE(service::decode_result("cached 1\nid 1\nx"));  // wrong order

  const service::ErrorMsg err{7, "fingerprint mismatch: details here"};
  const auto err_out = service::decode_error(service::encode_error(err));
  ASSERT_TRUE(err_out.has_value());
  EXPECT_EQ(err_out->id, 7u);
  EXPECT_EQ(err_out->message, err.message);
}

TEST(Protocol, EveryMsgTypeHasAName) {
  // One entry per enumerator: adding a MsgType without extending
  // msg_type_name() (and this list) is an erel-lint protocol-complete
  // finding, so new message types can't land half-wired.
  using service::MsgType;
  using service::msg_type_name;
  const std::vector<std::pair<MsgType, std::string_view>> named = {
      {MsgType::kHello, "hello"},       {MsgType::kRunCell, "run_cell"},
      {MsgType::kResult, "result"},     {MsgType::kError, "error"},
      {MsgType::kStats, "stats"},       {MsgType::kStatsReply, "stats_reply"},
      {MsgType::kShutdown, "shutdown"},
  };
  std::vector<std::string_view> names;
  for (const auto& [type, name] : named) {
    EXPECT_EQ(msg_type_name(type), name);
    names.push_back(msg_type_name(type));
  }
  // Names are distinct (they appear in error messages; two tags sharing a
  // name would make those messages ambiguous).
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end());

  // Retired tags (5-8, 12, 13) and values outside the enum have no name.
  for (const unsigned raw : {0u, 5u, 6u, 7u, 8u, 12u, 13u, 14u, 200u})
    EXPECT_EQ(msg_type_name(static_cast<MsgType>(raw)), "unknown") << raw;
}

TEST(Protocol, DaemonStatsRoundTrip) {
  const service::DaemonStats stats{100, 40, 55, 5, 2, 1, 4, 11, 2};
  const auto out = service::decode_stats(service::encode_stats(stats));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, stats);
  EXPECT_FALSE(service::decode_stats("requests 1\n"));       // missing fields
  EXPECT_FALSE(service::decode_stats(
      service::encode_stats(stats) + "extra 1\n"));          // unknown field
  EXPECT_FALSE(service::decode_stats(
      service::encode_stats(stats) + "evicted 6\n"));        // v4's field
  EXPECT_FALSE(service::decode_stats(
      service::encode_stats(stats) + "busy 9\n"));           // v5's field
}

}  // namespace
}  // namespace erel
