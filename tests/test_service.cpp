// The experiment daemon (src/service/): loopback sweeps bit-identical to
// local runs, warm-cache serving, in-flight dedupe across concurrent
// clients, refusal of stale protocol versions and retired message tags,
// and graceful degradation when the daemon is unreachable or refuses a
// cell, and refusal to serve without a usable result store.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "harness/experiment.hpp"
#include "harness/fingerprint.hpp"
#include "harness/results.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"

namespace erel {
namespace {

namespace fs = std::filesystem;
using core::PolicyKind;

sim::SimConfig tiny_config() {
  sim::SimConfig config;
  config.check_oracle = false;
  config.max_instructions = 20'000;
  return config;
}

/// Reads one frame from a raw daemon connection. A daemon silent for 10 s
/// fails the test instead of hanging it.
std::optional<net::Frame> recv_reply(net::Socket& socket,
                                     bool* clean_eof = nullptr) {
  net::Frame frame;
  if (socket.recv_frame_deadline(frame, 10'000, clean_eof) !=
      net::Socket::RecvStatus::kFrame)
    return std::nullopt;
  return frame;
}

/// Run options with two pool workers, shipping cells to `server` if set.
harness::RunOptions two_workers(std::string server = "") {
  harness::RunOptions opts;
  opts.threads = 2;
  opts.server = std::move(server);
  return opts;
}

struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("erel-service-" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "-" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  [[nodiscard]] std::string str() const { return path.string(); }
};

/// A daemon on an ephemeral loopback port, serving from a fresh temp cache
/// until the fixture dies.
struct DaemonFixture {
  TempDir cache;
  std::unique_ptr<service::ExperimentDaemon> daemon;
  std::thread loop;

  explicit DaemonFixture(service::ExperimentDaemon::Options opts = {}) {
    opts.cache_dir = cache.str() + "/daemon-cache";
    daemon = std::make_unique<service::ExperimentDaemon>(opts);
    EXPECT_TRUE(daemon->valid()) << daemon->error();
    loop = std::thread([this] { daemon->run(); });
  }
  ~DaemonFixture() {
    daemon->stop();
    loop.join();
  }

  [[nodiscard]] std::string endpoint() const {
    return "127.0.0.1:" + std::to_string(daemon->port());
  }
};

/// A listener that greets like a protocol-v2 daemon and counts the
/// connections it accepts. It answers nothing else.
class StaleDaemon : public net::EventServer::Handler {
 public:
  StaleDaemon() : server_(*this) {
    EXPECT_TRUE(server_.valid()) << server_.error();
    loop_ = std::thread([this] { server_.run(); });
  }
  ~StaleDaemon() override {
    server_.stop();
    loop_.join();
  }
  StaleDaemon(const StaleDaemon&) = delete;
  StaleDaemon& operator=(const StaleDaemon&) = delete;

  void on_connect(std::uint64_t client) override {
    ++connections_;
    server_.send(client,
                 net::Frame{static_cast<std::uint8_t>(service::MsgType::kHello),
                            "ereld 2"});
  }
  void on_frame(std::uint64_t, net::Frame) override {}

  [[nodiscard]] std::string endpoint() const {
    return "127.0.0.1:" + std::to_string(server_.port());
  }
  [[nodiscard]] unsigned connections() const { return connections_.load(); }

 private:
  net::EventServer server_;
  std::thread loop_;
  std::atomic<unsigned> connections_{0};
};

harness::Experiment small_sweep() {
  harness::Experiment exp;
  exp.base(tiny_config())
      .workloads({"li"})
      .policies({PolicyKind::Conventional, PolicyKind::Extended})
      .phys_regs({40, 48});
  return exp;
}

/// Canonical per-cell text under a fixed fingerprint: equal strings mean
/// bit-identical stats, sampled detail, and metrics.
std::string entry_text(const harness::ExpEntry& entry) {
  return harness::serialize_entry(entry, "comparefp0000000");
}

// ---------------------------------------------------------------------------

TEST(Service, DaemonServedSweepIsBitIdenticalToLocal) {
  DaemonFixture fixture;
  const harness::Experiment exp = small_sweep();

  const harness::ResultSet local = exp.run(two_workers());
  const harness::ResultSet remote =
      exp.run(two_workers(fixture.endpoint()));

  ASSERT_EQ(remote.size(), local.size());
  for (const harness::ExpEntry& want : local.entries()) {
    const harness::ExpEntry& got = remote.at(want.key);
    EXPECT_EQ(entry_text(got), entry_text(want)) << want.key.to_string();
    EXPECT_FALSE(got.from_cache);  // cold daemon: freshly simulated
  }
  const service::DaemonStats stats = fixture.daemon->stats();
  EXPECT_EQ(stats.simulated, local.size());
  EXPECT_EQ(stats.errors, 0u);
}

TEST(Service, SecondSweepIsServedFromTheWarmDaemonCache) {
  DaemonFixture fixture;
  const harness::Experiment exp = small_sweep();

  const harness::ResultSet cold =
      exp.run(two_workers(fixture.endpoint()));
  EXPECT_EQ(cold.cache_hits(), 0u);
  const harness::ResultSet warm =
      exp.run(two_workers(fixture.endpoint()));

  EXPECT_EQ(warm.size(), cold.size());
  EXPECT_EQ(warm.cache_hits(), warm.size());  // "N hits, 0 simulated"
  EXPECT_EQ(warm.simulated(), 0u);
  for (const harness::ExpEntry& want : cold.entries())
    EXPECT_EQ(entry_text(warm.at(want.key)), entry_text(want));

  const service::DaemonStats stats = fixture.daemon->stats();
  EXPECT_EQ(stats.simulated, cold.size());  // nothing re-simulated
  EXPECT_EQ(stats.cache_hits, warm.size());
}

TEST(Service, ConcurrentClientsOnOverlappingCellsSimulateEachCellOnce) {
  DaemonFixture fixture;
  const harness::Experiment exp = small_sweep();
  const std::size_t cells = exp.materialize().size();

  // Two clients race the same sweep; every duplicated fingerprint must be
  // simulated exactly once (joined in flight or served from the cache the
  // first client just filled — both are one simulation).
  harness::ResultSet a, b;
  std::thread ta([&] {
    a = exp.run(two_workers(fixture.endpoint()));
  });
  std::thread tb([&] {
    b = exp.run(two_workers(fixture.endpoint()));
  });
  ta.join();
  tb.join();

  ASSERT_EQ(a.size(), cells);
  ASSERT_EQ(b.size(), cells);
  for (const harness::ExpEntry& want : a.entries())
    EXPECT_EQ(entry_text(b.at(want.key)), entry_text(want));

  const service::DaemonStats stats = fixture.daemon->stats();
  EXPECT_EQ(stats.requests, 2 * cells);
  EXPECT_EQ(stats.simulated, cells);
  EXPECT_EQ(stats.deduped + stats.cache_hits, cells);
  EXPECT_EQ(stats.errors, 0u);
}

TEST(Service, PipelinedDuplicateRequestsJoinTheInFlightCell) {
  DaemonFixture fixture;

  sim::SimConfig config = tiny_config();
  config.max_instructions = 150'000;  // long enough to overlap
  service::CellRequest request;
  request.key = harness::ExpKey{"li", config.policy, config.phys_int, ""};
  request.workload = "li";
  request.config = config;
  request.fingerprint_hex =
      harness::fingerprint_cell("li", config, std::nullopt).hex();

  service::RemoteClient first, second;
  ASSERT_TRUE(first.connect(fixture.endpoint())) << first.error();
  ASSERT_TRUE(second.connect(fixture.endpoint())) << second.error();
  request.id = 1;
  ASSERT_TRUE(first.send_cell(request));
  request.id = 2;
  ASSERT_TRUE(second.send_cell(request));

  const auto r1 = first.await(1);
  const auto r2 = second.await(2);
  ASSERT_TRUE(r1.has_value());
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r1->entry_text, r2->entry_text);  // byte-identical entries

  const service::DaemonStats stats = fixture.daemon->stats();
  EXPECT_EQ(stats.simulated, 1u);
  EXPECT_EQ(stats.deduped + stats.cache_hits, 1u);
}

TEST(Service, UnreachableServerFallsBackToLocalSimulation) {
  const harness::Experiment exp = small_sweep();
  // Nothing listens on port 1; the sweep must still complete locally.
  const harness::ResultSet rs =
      exp.run(two_workers("127.0.0.1:1"));
  ASSERT_EQ(rs.size(), 4u);
  EXPECT_EQ(rs.cache_hits(), 0u);
  const harness::ResultSet local = exp.run(two_workers());
  for (const harness::ExpEntry& want : local.entries())
    EXPECT_EQ(entry_text(rs.at(want.key)), entry_text(want));
}

TEST(Service, DaemonRefusesMismatchedFingerprintsAndUnknownProbes) {
  DaemonFixture fixture;
  service::RemoteClient client;
  ASSERT_TRUE(client.connect(fixture.endpoint())) << client.error();

  service::CellRequest request;
  request.id = 9;
  request.key = harness::ExpKey{"li", core::PolicyKind::Conventional,
                                tiny_config().phys_int, ""};
  request.workload = "li";
  request.config = tiny_config();
  request.fingerprint_hex = "00000000deadbeef";  // not this cell's hash
  ASSERT_TRUE(client.send_cell(request));
  std::string why;
  EXPECT_FALSE(client.await(9, &why).has_value());
  EXPECT_NE(why.find("fingerprint mismatch"), std::string::npos) << why;

  request.id = 10;
  request.fingerprint_hex =
      harness::fingerprint_cell("li", request.config, std::nullopt,
                                {"mystery"})
          .hex();
  request.probe_names = {"mystery"};
  ASSERT_TRUE(client.send_cell(request));
  EXPECT_FALSE(client.await(10, &why).has_value());
  EXPECT_NE(why.find("unknown probe"), std::string::npos) << why;

  const service::DaemonStats stats = fixture.daemon->stats();
  EXPECT_EQ(stats.errors, 2u);
  EXPECT_EQ(stats.simulated, 0u);
}

// A client fingerprints its own cell, so any config passes the daemon's
// fingerprint check. One the core cannot simulate (a constructor would
// abort, nothing would ever commit, or a miss outlasts the no-commit
// watchdog) must be refused with a kError, and the daemon keeps serving.
// So must a workload name outside the registry, even one that names a
// path on the daemon's host: the daemon never opens it, so the reply
// carries no hash of the file's bytes.
TEST(Service, OutOfRangeCellsAreRefusedAndTheDaemonKeepsServing) {
  DaemonFixture fixture;
  const std::string dir = fixture.cache.str();
  const std::string file = dir + "/cell.txt";
  std::ofstream(file) << "li\n";

  using Mutation = std::function<void(service::CellRequest&)>;
  const std::pair<const char*, Mutation> bad_cells[] = {
      {"phys_int 10", [](auto& r) { r.config.phys_int = 10; }},
      {"l1i line 48", [](auto& r) { r.config.memory.l1i.line_bytes = 48; }},
      {"l2 of one 2-byte line",
       [](auto& r) { r.config.memory.l2 = {"L2", 2, 1, 2, 12}; }},
      {"l1d assoc 0",
       [](auto& r) { r.config.memory.l1d.associativity = 0; }},
      {"ros 0", [](auto& r) { r.config.ros_size = 0; }},
      {"ghr_bits 60", [](auto& r) { r.config.ghr_bits = 60; }},
      {"int_alu 0", [](auto& r) { r.config.fus.int_alu = 0; }},
      {"commit_width 0", [](auto& r) { r.config.commit_width = 0; }},
      {"memory_latency 25000",
       [](auto& r) { r.config.memory.memory_latency = 25000; }},
      {"pending branches 0",
       [](auto& r) { r.config.max_pending_branches = 0; }},
      {"target_ci -1", [](auto& r) { r.sampling.emplace().target_ci = -1.0; }},
      {"target_ci NaN",
       [](auto& r) {
         r.sampling.emplace().target_ci =
             std::numeric_limits<double>::quiet_NaN();
       }},
      {"trace: directory", [&](auto& r) { r.workload = "trace:" + dir; }},
      {"trace:/dev/null", [](auto& r) { r.workload = "trace:/dev/null"; }},
      {"trace: regular file",
       [&](auto& r) { r.workload = "trace:" + file; }},
      {"unknown workload", [](auto& r) { r.workload = "no-such-kernel"; }},
  };

  std::string error;
  net::Socket socket =
      net::connect_to("127.0.0.1", fixture.daemon->port(), &error);
  ASSERT_TRUE(socket.valid()) << error;
  ASSERT_TRUE(recv_reply(socket).has_value());  // kHello

  const auto request_for = [](std::uint64_t id, const Mutation& mutate) {
    service::CellRequest request;
    request.id = id;
    request.workload = "li";
    request.config = tiny_config();
    mutate(request);
    request.key = harness::ExpKey{"li", core::PolicyKind::Conventional,
                                  request.config.phys_int, ""};
    request.fingerprint_hex =
        harness::fingerprint_cell("li", request.config, request.sampling, {})
            .hex();
    return request;
  };
  const auto send = [&socket](const service::CellRequest& request) {
    return socket.send_frame(
        net::Frame{static_cast<std::uint8_t>(service::MsgType::kRunCell),
                   service::encode_cell_request(request)});
  };

  std::uint64_t id = 1;
  for (const auto& [name, mutate] : bad_cells) {
    const service::CellRequest request = request_for(id++, mutate);
    ASSERT_TRUE(send(request)) << name;
    const std::optional<net::Frame> reply = recv_reply(socket);
    ASSERT_TRUE(reply.has_value()) << name;
    EXPECT_EQ(reply->type, static_cast<std::uint8_t>(service::MsgType::kError))
        << name;
    const std::optional<service::ErrorMsg> refusal =
        service::decode_error(reply->payload);
    ASSERT_TRUE(refusal.has_value()) << name;
    EXPECT_EQ(refusal->message.find("fingerprint mismatch"), std::string::npos)
        << name << ": " << refusal->message;
    // A name outside the registry is refused by name, never opened.
    if (request.workload != "li") {
      EXPECT_NE(refusal->message.find("unknown workload '" + request.workload +
                                      "'"),
                std::string::npos)
          << name << ": " << refusal->message;
    }
  }

  // The same daemon, on the same connection, still simulates a valid cell.
  const service::CellRequest good =
      request_for(id, [](service::CellRequest&) {});
  ASSERT_TRUE(send(good));
  const std::optional<net::Frame> reply = recv_reply(socket);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, static_cast<std::uint8_t>(service::MsgType::kResult));
  const std::optional<service::ResultMsg> result =
      service::decode_result(reply->payload);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->id, good.id);
  EXPECT_TRUE(harness::parse_entry(result->entry_text, good.fingerprint_hex,
                                   good.key)
                  .has_value());

  const service::DaemonStats stats = fixture.daemon->stats();
  EXPECT_EQ(stats.errors, std::size(bad_cells));
  EXPECT_EQ(stats.simulated, 1u);
}

TEST(Service, ProtocolMismatchIsRefusedOnceAndTheSweepRunsLocally) {
  StaleDaemon stale;
  // The version check refuses the greeting outright: fatal, no reconnect.
  service::RemoteClient client;
  EXPECT_FALSE(client.connect(stale.endpoint()));
  EXPECT_NE(client.error().find("protocol mismatch"), std::string::npos)
      << client.error();
  EXPECT_EQ(stale.connections(), 1u);

  // A sweep pointed at it degrades to local simulation, same numbers.
  const harness::Experiment exp = small_sweep();
  harness::RunOptions opts;
  opts.threads = 2;
  const harness::ResultSet local = exp.run(opts);
  opts.server = stale.endpoint();
  const harness::ResultSet through = exp.run(opts);
  ASSERT_EQ(through.size(), local.size());
  for (const harness::ExpEntry& want : local.entries())
    EXPECT_EQ(entry_text(through.at(want.key)), entry_text(want));
  EXPECT_EQ(stale.connections(), 2u);  // the sweep connected once too
}

TEST(Service, RetiredMessageTagsAreRefused) {
  DaemonFixture fixture;
  // Tags 5-7 carried protocol v2's subscriptions and ping, tag 12 its
  // explicit cancel and tag 13 v2-v5's kBusy. Each is refused like any
  // unknown tag: a connection-level kError naming the tag, then the daemon
  // closes the connection.
  for (const unsigned tag : {5u, 6u, 7u, 12u, 13u}) {
    const std::uint64_t errors_before = fixture.daemon->stats().errors;
    std::string error;
    net::Socket socket =
        net::connect_to("127.0.0.1", fixture.daemon->port(), &error);
    ASSERT_TRUE(socket.valid()) << error;
    ASSERT_TRUE(recv_reply(socket).has_value());  // kHello
    ASSERT_TRUE(
        socket.send_frame(net::Frame{static_cast<std::uint8_t>(tag), ""}));

    const std::optional<net::Frame> reply = recv_reply(socket);
    ASSERT_TRUE(reply.has_value()) << "tag " << tag;
    EXPECT_EQ(reply->type, static_cast<std::uint8_t>(service::MsgType::kError));
    const std::optional<service::ErrorMsg> msg =
        service::decode_error(reply->payload);
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(msg->id, 0u);
    EXPECT_NE(msg->message.find("(" + std::to_string(tag) + ")"),
              std::string::npos)
        << msg->message;

    bool clean_eof = false;
    EXPECT_FALSE(recv_reply(socket, &clean_eof).has_value());
    EXPECT_TRUE(clean_eof) << "tag " << tag;
    EXPECT_EQ(fixture.daemon->stats().errors, errors_before + 1);
  }
}

TEST(Service, StatsAndShutdownRoundTrip) {
  auto fixture = std::make_unique<DaemonFixture>();
  service::RemoteClient client;
  ASSERT_TRUE(client.connect(fixture->endpoint())) << client.error();
  const auto stats = client.stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->requests, 0u);
  EXPECT_TRUE(client.shutdown_server());  // daemon closes cleanly
  fixture.reset();                        // run() already returned; joins
}

TEST(Service, DaemonWithoutAUsableCacheDirIsInvalid) {
  // Every cell the daemon simulates is kept in its store, so it has none
  // to serve from without a cache dir it can create.
  service::ExperimentDaemon::Options opts;
  opts.workers = 1;
  const service::ExperimentDaemon none(opts);
  EXPECT_FALSE(none.valid());
  EXPECT_NE(none.error().find("cache dir"), std::string::npos) << none.error();

  // A path below a regular file can never become a directory.
  TempDir dir;
  const std::string file = dir.str() + "/plain-file";
  std::ofstream(file) << "not a directory\n";
  opts.cache_dir = file + "/cache";
  const service::ExperimentDaemon blocked(opts);
  EXPECT_FALSE(blocked.valid());
  EXPECT_NE(blocked.error().find(opts.cache_dir), std::string::npos)
      << blocked.error();
}

}  // namespace
}  // namespace erel
