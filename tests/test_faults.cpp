// Fault tolerance end to end: sweeps driven through the deterministic
// fault-injecting proxy (net/fault.hpp) stay bit-identical to local runs
// under eight seeded fault plans; a mute daemon costs one retry budget per
// sweep; reconnecting resubmits only unanswered requests; the client's own
// retry loop rides out a kBusy storm; the daemon's admission control,
// disconnect reaping, LRU eviction and corrupt-entry quarantine all behave
// under hostile clients; retried cells are never simulated twice, even when
// every attempt's deadline expires before the cell finishes.
//
// Every blocking call in here is deadline-bounded (short ClientOptions
// timeouts), so a regression that would hang a sweep fails this suite by
// timeout instead of wedging CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/fingerprint.hpp"
#include "harness/harness.hpp"
#include "harness/result_cache.hpp"
#include "harness/results.hpp"
#include "net/fault.hpp"
#include "net/server.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"

namespace erel {
namespace {

namespace fs = std::filesystem;
using core::PolicyKind;

sim::SimConfig tiny_config(std::uint64_t max_instructions = 20'000) {
  sim::SimConfig config;
  config.check_oracle = false;
  config.max_instructions = max_instructions;
  return config;
}

struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("erel-faults-" +
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

struct DaemonFixture {
  TempDir cache;
  std::unique_ptr<service::ExperimentDaemon> daemon;
  std::thread loop;

  explicit DaemonFixture(service::ExperimentDaemon::Options opts = {}) {
    if (opts.cache_dir.empty())
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

  [[nodiscard]] std::string cache_dir() const {
    return cache.str() + "/daemon-cache";
  }

  /// Polls stats() until `done` passes or about `limit` elapses.
  service::DaemonStats await_stats(
      const std::function<bool(const service::DaemonStats&)>& done,
      std::chrono::seconds limit = std::chrono::seconds(10)) {
    service::DaemonStats stats;
    for (auto waited = std::chrono::milliseconds(0); waited < limit;
         waited += std::chrono::milliseconds(20)) {
      stats = daemon->stats();
      if (done(stats)) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return stats;
  }
};

/// A cell request the daemon can simulate, fingerprinted the same way
/// Experiment::run would.
service::CellRequest make_request(std::uint64_t id, unsigned phys,
                                  std::uint64_t max_instructions = 20'000) {
  service::CellRequest request;
  request.id = id;
  request.workload = "li";
  request.config = tiny_config(max_instructions);
  request.config.phys_int = request.config.phys_fp = phys;
  request.key = harness::ExpKey{request.workload, request.config.policy, phys,
                                std::string()};
  request.fingerprint_hex =
      harness::fingerprint_cell(request.workload, request.config, std::nullopt)
          .hex();
  return request;
}

/// A sampled cell that runs for a few hundred milliseconds in an optimized
/// build: compress under extended at 40+40 registers, stratified windows.
service::CellRequest slow_sampled_request(std::uint64_t id) {
  service::CellRequest request;
  request.id = id;
  request.workload = "compress";
  request.config = tiny_config(0);
  request.config.policy = PolicyKind::Extended;
  request.config.phys_int = request.config.phys_fp = 40;
  request.sampling = sim::SamplingConfig{};
  request.sampling->period = 6'000;
  request.sampling->warmup = 1'000;
  request.sampling->detail = 4'000;
  request.sampling->placement = sim::Placement::kStratified;
  request.key = harness::ExpKey{request.workload, request.config.policy, 40,
                                std::string()};
  request.fingerprint_hex =
      harness::fingerprint_cell(request.workload, request.config,
                                request.sampling)
          .hex();
  return request;
}

service::ClientOptions fast_client() {
  service::ClientOptions opts;
  opts.connect_timeout_ms = 2'000;
  opts.call_timeout_ms = 10'000;
  return opts;
}

/// A listener that greets like a current daemon and counts the
/// connections it accepts. Every frame goes to `reply` (on the loop thread)
/// with the index of its connection; without one, nothing is answered.
class ScriptedDaemon : public net::EventServer::Handler {
 public:
  using Reply = std::function<void(net::EventServer& server,
                                   unsigned connection, std::uint64_t client,
                                   const net::Frame& frame)>;

  explicit ScriptedDaemon(Reply reply = {})
      : reply_(std::move(reply)), server_(*this) {
    EXPECT_TRUE(server_.valid()) << server_.error();
    loop_ = std::thread([this] { server_.run(); });
  }
  ~ScriptedDaemon() override {
    server_.stop();
    loop_.join();
  }
  ScriptedDaemon(const ScriptedDaemon&) = delete;
  ScriptedDaemon& operator=(const ScriptedDaemon&) = delete;

  void on_connect(std::uint64_t client) override {
    connection_of_[client] = connections_++;
    server_.send(
        client,
        net::Frame{static_cast<std::uint8_t>(service::MsgType::kHello),
                   "ereld " + std::to_string(service::kProtocolVersion)});
  }
  void on_frame(std::uint64_t client, net::Frame frame) override {
    if (reply_) reply_(server_, connection_of_[client], client, frame);
  }

  [[nodiscard]] std::string endpoint() const {
    return "127.0.0.1:" + std::to_string(server_.port());
  }
  [[nodiscard]] unsigned connections() const { return connections_.load(); }

 private:
  Reply reply_;
  net::EventServer server_;
  std::thread loop_;
  std::atomic<unsigned> connections_{0};
  std::map<std::uint64_t, unsigned> connection_of_;  // loop thread only
};

harness::Experiment small_sweep() {
  harness::Experiment exp;
  exp.base(tiny_config()).workloads({"li"}).phys_regs({40, 48});
  return exp;
}

std::string entry_text(const harness::ExpEntry& entry) {
  return harness::serialize_entry(entry, "comparefp0000000");
}

// ---------------------------------------------------------------------------

TEST(Faults, SweepThroughFaultProxyStaysBitIdentical) {
  const harness::Experiment exp = small_sweep();
  harness::RunOptions local_opts;
  local_opts.threads = 2;
  const harness::ResultSet local = exp.run(local_opts);

  DaemonFixture fixture;
  unsigned broken_first = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    net::FaultProxy proxy("127.0.0.1", fixture.daemon->port(),
                          net::FaultPlan(seed));
    ASSERT_TRUE(proxy.valid()) << proxy.error();
    proxy.start();

    harness::RunOptions opts;
    opts.threads = 2;
    opts.server = "127.0.0.1:" + std::to_string(proxy.port());
    // Tight deadlines: a blackholed connection must cost milliseconds of
    // deadline, not minutes of hang, before the sweep retries or degrades.
    opts.remote.connect_timeout_ms = 1'000;
    opts.remote.call_timeout_ms = 1'500;
    opts.remote.retries = 2;

    const harness::ResultSet through = exp.run(opts);
    ASSERT_EQ(through.size(), local.size()) << "seed " << seed;
    for (const harness::ExpEntry& want : local.entries()) {
      EXPECT_EQ(entry_text(through.at(want.key)), entry_text(want))
          << "seed " << seed << " " << want.key.to_string();
    }
    // A plan that breaks the first connection must make the client
    // reconnect, so the retry path cannot silently stop being exercised.
    const net::FaultSpec::Kind first =
        net::FaultPlan(seed).spec_for_connection(0).kind;
    if (first == net::FaultSpec::Kind::kDrop ||
        first == net::FaultSpec::Kind::kBlackhole) {
      ++broken_first;
      EXPECT_GE(proxy.accepted(), 2u) << "seed " << seed;
    }
    proxy.stop();
  }
  EXPECT_GE(broken_first, 1u);  // seeds 1, 3 and 8 break their first one

  // No hostile schedule may corrupt the daemon's cache: atomic publishes
  // mean zero quarantined entries and zero .bad files, ever.
  EXPECT_EQ(fixture.daemon->stats().quarantined, 0u);
  for (const auto& entry : fs::directory_iterator(fixture.cache_dir()))
    EXPECT_NE(entry.path().extension(), ".bad") << entry.path();
}

TEST(Faults, MuteDaemonCostsOneBudgetPerSweep) {
  harness::Experiment exp;
  exp.base(tiny_config())
      .workloads({"li"})
      .policies({PolicyKind::Conventional, PolicyKind::Extended})
      .phys_regs({36, 40, 44, 48});
  harness::RunOptions opts;
  opts.threads = 2;
  const harness::ResultSet local = exp.run(opts);
  ASSERT_EQ(local.size(), 8u);

  const ScriptedDaemon mute;  // greets, then never answers
  opts.server = mute.endpoint();
  opts.remote.connect_timeout_ms = 300;
  opts.remote.call_timeout_ms = 300;
  opts.remote.retries = 2;
  const harness::ResultSet through = exp.run(opts);
  ASSERT_EQ(through.size(), local.size());
  for (const harness::ExpEntry& want : local.entries())
    EXPECT_EQ(entry_text(through.at(want.key)), entry_text(want));
  // The first await spends the budget, one connection per attempt; the
  // failed client then answers every other cell at once.
  EXPECT_LE(mute.connections(), 1u + opts.remote.retries);
}

TEST(Faults, BusyStormIsRefusedThenEveryCellLands) {
  service::ExperimentDaemon::Options dopts;
  dopts.workers = 1;
  dopts.max_queue = 1;
  dopts.busy_retry_ms = 20;
  DaemonFixture fixture(dopts);

  // A budget that outlasts the slow cell: the client's own retry loop
  // resends each refused cell until the daemon admits it.
  service::ClientOptions opts = fast_client();
  opts.retries = 200;
  service::RemoteClient client(opts);
  ASSERT_TRUE(client.connect(fixture.endpoint())) << client.error();

  // A slow cell fills the only queue slot, so the distinct follow-ups are
  // refused with kBusy, not queued and not dropped.
  ASSERT_TRUE(client.send_cell(make_request(1, 40, 400'000)));
  for (std::uint64_t id = 2; id <= 4; ++id)
    ASSERT_TRUE(
        client.send_cell(make_request(id, static_cast<unsigned>(40 + 4 * id))));
  for (std::uint64_t id = 2; id <= 4; ++id) {
    std::string why;
    const std::optional<service::ResultMsg> result = client.await(id, &why);
    ASSERT_TRUE(result.has_value()) << "cell " << id << ": " << why;
    EXPECT_FALSE(result->entry_text.empty());
  }
  ASSERT_TRUE(client.await(1, nullptr).has_value());  // the slow cell lands

  const service::DaemonStats stats = fixture.daemon->stats();
  EXPECT_GE(stats.busy, 1u);
  EXPECT_EQ(stats.simulated, 4u);  // every refusal was a clean no-op
  EXPECT_EQ(stats.errors, 0u);
}

TEST(Faults, DisconnectReapsOrphanedPendingCells) {
  service::ExperimentDaemon::Options dopts;
  dopts.workers = 1;
  DaemonFixture fixture(dopts);

  auto client = std::make_unique<service::RemoteClient>(fast_client());
  ASSERT_TRUE(client->connect(fixture.endpoint())) << client->error();

  // A slow cell on the single worker, and two queued behind it.
  const service::CellRequest running = slow_sampled_request(1);
  ASSERT_TRUE(client->send_cell(running));
  ASSERT_TRUE(client->send_cell(make_request(2, 44)));
  ASSERT_TRUE(client->send_cell(make_request(3, 48)));
  fixture.await_stats(
      [](const service::DaemonStats& s) { return s.inflight == 3; });
  // The idle worker picks the first cell up as soon as it is admitted; the
  // pause only has to cover that hand-off, far less than the cell's run.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // Kill the client without awaiting anything: the daemon erases both
  // queued cells and lets the running one finish into its store.
  client.reset();

  const service::DaemonStats stats = fixture.await_stats(
      [](const service::DaemonStats& s) { return s.inflight == 0; },
      std::chrono::seconds(120));
  EXPECT_EQ(stats.inflight, 0u);
  EXPECT_EQ(stats.cancelled, 2u);
  EXPECT_EQ(stats.simulated, 1u);
  EXPECT_EQ(stats.errors, 0u);

  // The finished cell is served from the store; a reaped one is still
  // perfectly runnable and is simulated afresh.
  service::RemoteClient again(fast_client());
  ASSERT_TRUE(again.connect(fixture.endpoint())) << again.error();
  service::CellRequest rerun = running;
  rerun.id = 9;
  ASSERT_TRUE(again.send_cell(rerun));
  const std::optional<service::ResultMsg> kept = again.await(9, nullptr);
  ASSERT_TRUE(kept.has_value());
  EXPECT_TRUE(kept->cached);
  ASSERT_TRUE(again.send_cell(make_request(10, 44)));
  const std::optional<service::ResultMsg> reaped = again.await(10, nullptr);
  ASSERT_TRUE(reaped.has_value());
  EXPECT_FALSE(reaped->cached);
  EXPECT_EQ(fixture.daemon->stats().simulated, 2u);
}

TEST(Faults, SlowCellOutlivesTheCallDeadline) {
  // R: the cell's run time here, simulated locally.
  const service::CellRequest cell = slow_sampled_request(1);
  harness::RunSpec spec;
  spec.workload = cell.workload;
  spec.config = cell.config;
  spec.sampling = cell.sampling;
  const auto start = std::chrono::steady_clock::now();
  const harness::RunResult local = harness::run_one(spec);
  const auto r_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  ASSERT_TRUE(local.sampled.has_value());

  service::ExperimentDaemon::Options dopts;
  dopts.workers = 1;
  DaemonFixture fixture(dopts);

  // Every attempt's deadline expires long before the cell finishes. Each
  // expiry drops the connection, and each retry reconnects and resubmits:
  // the cell must keep running through all of that, and the resubmission
  // joins it or, once it is done, hits the store.
  service::ClientOptions opts = fast_client();
  opts.call_timeout_ms = static_cast<unsigned>(std::max<long long>(1, r_ms / 3));
  opts.retries = 4;
  service::RemoteClient client(opts);
  ASSERT_TRUE(client.connect(fixture.endpoint())) << client.error();
  ASSERT_TRUE(client.send_cell(cell));
  std::string why;
  const std::optional<service::ResultMsg> result = client.await(1, &why);
  ASSERT_TRUE(result.has_value())
      << why << " (R = " << r_ms << " ms, call deadline "
      << opts.call_timeout_ms << " ms)";
  EXPECT_FALSE(result->entry_text.empty());

  const service::DaemonStats stats = fixture.await_stats(
      [](const service::DaemonStats& s) { return s.inflight == 0; });
  EXPECT_EQ(stats.simulated, 1u);
  EXPECT_EQ(stats.cancelled, 0u);
  EXPECT_GE(stats.deduped + stats.cache_hits, 1u);
}

TEST(Faults, ResubmittedCellIsNeverSimulatedTwice) {
  service::ExperimentDaemon::Options dopts;
  dopts.workers = 1;
  DaemonFixture fixture(dopts);

  service::RemoteClient client(fast_client());
  ASSERT_TRUE(client.connect(fixture.endpoint())) << client.error();

  // The idempotency pin behind transparent reconnect resubmission: the
  // same content under a fresh wire id joins the in-flight simulation
  // (while running) or hits the cache (after), never simulates again.
  const service::CellRequest cell = make_request(1, 40, 400'000);
  service::CellRequest retry = cell;
  retry.id = 2;
  ASSERT_TRUE(client.send_cell(cell));
  ASSERT_TRUE(client.send_cell(retry));  // in-flight: dedupe join

  const std::optional<service::ResultMsg> first = client.await(1, nullptr);
  const std::optional<service::ResultMsg> second = client.await(2, nullptr);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->entry_text, second->entry_text);

  service::CellRequest later = cell;
  later.id = 3;
  ASSERT_TRUE(client.send_cell(later));  // completed: cache hit
  const std::optional<service::ResultMsg> third = client.await(3, nullptr);
  ASSERT_TRUE(third.has_value());
  EXPECT_TRUE(third->cached);
  EXPECT_EQ(third->entry_text, first->entry_text);

  const service::DaemonStats stats = fixture.daemon->stats();
  EXPECT_EQ(stats.simulated, 1u);
  EXPECT_EQ(stats.deduped, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
}

TEST(Faults, ReconnectResubmitsOnlyUnansweredRequests) {
  // Connection 0 answers request 2, never request 1, and then tears.
  // Request 2's result is already buffered when the client reconnects, so
  // only request 1 may go out again; later connections answer everything.
  std::mutex mu;
  std::vector<std::pair<unsigned, std::uint64_t>> seen;  // (connection, id)
  const ScriptedDaemon daemon([&](net::EventServer& server,
                                  unsigned connection, std::uint64_t client,
                                  const net::Frame& frame) {
    const std::optional<service::CellRequest> request =
        service::decode_cell_request(frame.payload);
    ASSERT_TRUE(request.has_value());
    {
      const std::scoped_lock lock(mu);
      seen.emplace_back(connection, request->id);
    }
    if (connection == 0 && request->id == 1) return;
    server.send(client,
                net::Frame{static_cast<std::uint8_t>(service::MsgType::kResult),
                           service::encode_result(service::ResultMsg{
                               request->id, false,
                               "entry " + std::to_string(request->id)})});
    if (connection == 0) server.close_client(client);
  });

  service::RemoteClient client(fast_client());
  ASSERT_TRUE(client.connect(daemon.endpoint())) << client.error();
  ASSERT_TRUE(client.send_cell(make_request(1, 40)));
  ASSERT_TRUE(client.send_cell(make_request(2, 44)));
  for (const std::uint64_t id : {1u, 2u}) {
    std::string why;
    const std::optional<service::ResultMsg> result = client.await(id, &why);
    ASSERT_TRUE(result.has_value()) << "request " << id << ": " << why;
    EXPECT_EQ(result->entry_text, "entry " + std::to_string(id));
  }
  // Once request 3 is answered, the daemon has read everything sent
  // before it.
  ASSERT_TRUE(client.send_cell(make_request(3, 48)));
  ASSERT_TRUE(client.await(3).has_value()) << client.error();
  EXPECT_EQ(daemon.connections(), 2u);
  const std::scoped_lock lock(mu);
  EXPECT_EQ(seen, (std::vector<std::pair<unsigned, std::uint64_t>>{
                      {0, 1}, {0, 2}, {1, 1}, {1, 3}}));
}

TEST(Faults, CorruptCacheEntryIsQuarantinedAndResimulated) {
  DaemonFixture fixture;

  service::RemoteClient client(fast_client());
  ASSERT_TRUE(client.connect(fixture.endpoint())) << client.error();

  const service::CellRequest cell = make_request(1, 40);
  ASSERT_TRUE(client.send_cell(cell));
  const std::optional<service::ResultMsg> fresh = client.await(1, nullptr);
  ASSERT_TRUE(fresh.has_value());

  // Rot the cached entry on disk behind the daemon's back.
  const std::string path =
      harness::cache_entry_path(fixture.cache_dir(), cell.fingerprint_hex);
  {
    std::ofstream rot(path, std::ios::trunc);
    rot << "erel-result v1\nthis is not a result\n";
  }

  service::CellRequest again = cell;
  again.id = 2;
  ASSERT_TRUE(client.send_cell(again));
  const std::optional<service::ResultMsg> healed = client.await(2, nullptr);
  ASSERT_TRUE(healed.has_value());
  EXPECT_FALSE(healed->cached);  // re-simulated, not served rotten
  EXPECT_EQ(healed->entry_text, fresh->entry_text);  // and bit-identical

  const service::DaemonStats stats = fixture.daemon->stats();
  EXPECT_EQ(stats.quarantined, 1u);
  EXPECT_EQ(stats.simulated, 2u);
  EXPECT_TRUE(fs::exists(path + ".bad"));  // kept for postmortems
  // The healed entry is valid on disk again.
  EXPECT_TRUE(harness::load_cache_entry(path, cell.fingerprint_hex, cell.key)
                  .has_value());
}

TEST(Faults, LruEvictionKeepsTheByteBudget) {
  service::ExperimentDaemon::Options dopts;
  dopts.max_cache_bytes = 1;  // every store evicts everything else
  DaemonFixture fixture(dopts);

  service::RemoteClient client(fast_client());
  ASSERT_TRUE(client.connect(fixture.endpoint())) << client.error();

  for (std::uint64_t id = 1; id <= 3; ++id) {
    ASSERT_TRUE(
        client.send_cell(make_request(id, static_cast<unsigned>(36 + 4 * id))));
    ASSERT_TRUE(client.await(id, nullptr).has_value());
  }

  const service::DaemonStats stats = fixture.daemon->stats();
  EXPECT_EQ(stats.evicted, 2u);  // each store displaced its predecessor
  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator(fixture.cache_dir()))
    files += entry.path().extension() == ".erelres" ? 1 : 0;
  EXPECT_EQ(files, 1u);

  // An evicted cell is a clean miss: re-simulated, not an error.
  service::CellRequest again = make_request(9, 40);
  ASSERT_TRUE(client.send_cell(again));
  const std::optional<service::ResultMsg> result = client.await(9, nullptr);
  ASSERT_TRUE(result.has_value());
  EXPECT_FALSE(result->cached);
  EXPECT_EQ(fixture.daemon->stats().simulated, 4u);
}

}  // namespace
}  // namespace erel
