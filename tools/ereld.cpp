// ereld — the experiment daemon (src/service/daemon.hpp) as a standalone
// binary.
//
//   ereld --port=7431 --cache-dir=results-cache --workers=8
//   fig11_sweep --server=127.0.0.1:7431 ...        # any sweep binary
//   ereld --stop 127.0.0.1:7431                    # clean shutdown
//
// The daemon listens on localhost by default (it executes simulation
// requests; exposing it beyond the machine is an explicit --host choice),
// prints one "ereld: listening on HOST:PORT" line once bound (scripts
// parse it — ephemeral --port=0 is allowed), and serves until SIGINT,
// SIGTERM, or a kShutdown frame from `ereld --stop`. --cache-dir is
// required: every cell the daemon simulates is kept there, including one
// whose requesters all disconnected while it ran.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <type_traits>

#include "common/parse.hpp"
#include "common/thread_pool.hpp"
#include "net/socket.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"

namespace {

erel::service::ExperimentDaemon* g_daemon = nullptr;

void handle_signal(int) {
  if (g_daemon != nullptr) g_daemon->stop();  // atomic store + pipe write
}

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "       %s --stop HOST:PORT\n"
      "  --host=ADDR          bind address (default 127.0.0.1)\n"
      "  --port=N             listen port (default 0 = ephemeral)\n"
      "  --cache-dir=PATH     on-disk result cache (required)\n"
      "  --workers=N          simulation workers (0 = hardware default,\n"
      "                       at most %u)\n"
      "  --max-queue=N       cells queued-or-running before kBusy (0 = off)\n"
      "  --max-cache-bytes=N  result-cache LRU byte budget (0 = unlimited)\n"
      "  --busy-retry-ms=N    retry hint carried in kBusy (default 50)\n"
      "  --stop HOST:PORT     ask a running daemon to shut down\n",
      argv0, argv0, erel::kMaxThreads);
}

int stop_daemon(const std::string& endpoint) {
  erel::service::RemoteClient client;
  if (!client.connect(endpoint)) {
    std::fprintf(stderr, "ereld: cannot reach %s: %s\n", endpoint.c_str(),
                 client.error().c_str());
    return 1;
  }
  if (!client.shutdown_server()) {
    std::fprintf(stderr, "ereld: %s did not acknowledge shutdown\n",
                 endpoint.c_str());
    return 1;
  }
  std::printf("ereld: %s stopped\n", endpoint.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  erel::service::ExperimentDaemon::Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* flag) -> std::string {
      const std::size_t len = std::strlen(flag);
      if (arg.size() > len && arg[len] == '=') return arg.substr(len + 1);
      if (i + 1 < argc) return argv[++i];
      std::fprintf(stderr, "%s: missing value for %s\n", argv[0], flag);
      std::exit(2);
    };
    const auto matches = [&](const char* flag) {
      const std::size_t len = std::strlen(flag);
      return arg == flag ||
             (arg.size() > len && arg.compare(0, len, flag) == 0 &&
              arg[len] == '=');
    };
    // Integer flags: plain decimal digits that fit the field they set.
    const auto number = [&](const char* flag, auto& field) {
      const std::string text = value(flag);
      const auto v =
          erel::parse_uint<std::remove_reference_t<decltype(field)>>(text);
      if (!v) {
        std::fprintf(stderr, "%s: bad %s '%s'\n", argv[0], flag, text.c_str());
        usage(argv[0]);
        std::exit(2);
      }
      field = *v;
    };
    if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (matches("--stop")) {
      return stop_daemon(value("--stop"));
    } else if (matches("--host")) {
      opts.host = value("--host");
    } else if (matches("--port")) {
      const std::string text = value("--port");
      const std::optional<std::uint16_t> port = erel::net::parse_port(text);
      if (!port) {
        std::fprintf(stderr, "%s: bad --port '%s' (want 0-65535)\n", argv[0],
                     text.c_str());
        usage(argv[0]);
        return 2;
      }
      opts.port = *port;
    } else if (matches("--cache-dir")) {
      opts.cache_dir = value("--cache-dir");
    } else if (matches("--workers")) {
      number("--workers", opts.workers);
      if (opts.workers > erel::kMaxThreads) {
        std::fprintf(stderr, "%s: --workers must be at most %u\n", argv[0],
                     erel::kMaxThreads);
        usage(argv[0]);
        return 2;
      }
    } else if (matches("--max-queue")) {
      number("--max-queue", opts.max_queue);
    } else if (matches("--max-cache-bytes")) {
      number("--max-cache-bytes", opts.max_cache_bytes);
    } else if (matches("--busy-retry-ms")) {
      number("--busy-retry-ms", opts.busy_retry_ms);
    } else {
      std::fprintf(stderr, "%s: unknown option %s\n", argv[0], argv[i]);
      usage(argv[0]);
      return 2;
    }
  }

  if (opts.cache_dir.empty()) {
    std::fprintf(stderr, "%s: --cache-dir is required\n", argv[0]);
    usage(argv[0]);
    return 2;
  }

  erel::service::ExperimentDaemon daemon(opts);
  if (!daemon.valid()) {
    std::fprintf(stderr, "ereld: cannot serve on %s:%u: %s\n",
                 opts.host.c_str(), unsigned{opts.port},
                 daemon.error().c_str());
    return 1;
  }
  g_daemon = &daemon;
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  std::printf("ereld: listening on %s:%u\n", opts.host.c_str(),
              unsigned{daemon.port()});
  std::fflush(stdout);  // scripts wait for this line before connecting
  daemon.run();

  const erel::service::DaemonStats stats = daemon.stats();
  std::printf(
      "ereld: served %llu requests (%llu cache hits, %llu simulated, "
      "%llu deduped, %llu errors, %llu busy, %llu cancelled), "
      "%llu evicted, %llu quarantined, %llu client(s) dropped\n",
      static_cast<unsigned long long>(stats.requests),
      static_cast<unsigned long long>(stats.cache_hits),
      static_cast<unsigned long long>(stats.simulated),
      static_cast<unsigned long long>(stats.deduped),
      static_cast<unsigned long long>(stats.errors),
      static_cast<unsigned long long>(stats.busy),
      static_cast<unsigned long long>(stats.cancelled),
      static_cast<unsigned long long>(stats.evicted),
      static_cast<unsigned long long>(stats.quarantined),
      static_cast<unsigned long long>(stats.dropped_clients));
  return 0;
}
