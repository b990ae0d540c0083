#include "net/fault.hpp"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <utility>

#include "common/bits.hpp"
#include "common/log.hpp"

namespace erel::net {

std::uint64_t FaultPlan::draw(std::uint64_t stream, std::uint64_t k,
                              std::uint64_t bound) const {
  EREL_CHECK(bound != 0);
  return splitmix64(splitmix64(seed_ ^ stream * 0xbf58476d1ce4e5b9ull) ^
                    k * kGoldenGamma) %
         bound;
}

FaultSpec FaultPlan::spec_for_connection(std::uint64_t index) const {
  FaultSpec spec;
  switch (draw(index, 0, 8)) {
    case 0:
    case 1:
    case 2:
      spec.kind = FaultSpec::Kind::kNone;
      break;
    case 3:
    case 4:
      spec.kind = FaultSpec::Kind::kShortWrite;
      break;
    case 5:
      spec.kind = FaultSpec::Kind::kStall;
      break;
    case 6:
      spec.kind = FaultSpec::Kind::kDrop;
      break;
    default:
      spec.kind = FaultSpec::Kind::kBlackhole;
      break;
  }
  // Small offsets on purpose: hello frames and cell requests are tens to
  // hundreds of bytes, so this range lands faults inside headers and
  // mid-frame, not just between messages.
  spec.after_bytes = 1 + draw(index, 1, 512);
  spec.stall_ms = 20 + static_cast<unsigned>(draw(index, 2, 100));
  spec.server_to_client = draw(index, 3, 2) != 0;
  return spec;
}

// ---- FaultProxy ----

FaultProxy::FaultProxy(std::string upstream_host, std::uint16_t upstream_port,
                       FaultPlan plan, const std::string& listen_host,
                       std::uint16_t listen_port)
    : upstream_host_(std::move(upstream_host)),
      upstream_port_(upstream_port),
      plan_(plan),
      listener_(listen_host, listen_port) {}

FaultProxy::~FaultProxy() { stop(); }

void FaultProxy::start() {
  if (started_ || !valid()) return;
  started_ = true;
  accept_thread_ = std::thread([this] { accept_loop(); });
}

bool FaultProxy::sleep_unless_stopped(unsigned ms) {
  // Sleep in slices so stop() is never held up by a scheduled stall.
  for (unsigned slept = 0; slept < ms; slept += 10) {
    if (stop_.load(std::memory_order_acquire)) return false;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(std::min(10u, ms - slept)));
  }
  return !stop_.load(std::memory_order_acquire);
}

void FaultProxy::accept_loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd{listener_.fd(), POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 50);
    if (rc < 0 && errno != EINTR) return;
    if (rc <= 0 || (pfd.revents & POLLIN) == 0) continue;
    Socket client = listener_.accept_client();
    if (!client.valid()) continue;
    std::string err;
    Socket upstream = connect_to(upstream_host_, upstream_port_, &err, 2000);
    const std::uint64_t index =
        accepted_.fetch_add(1, std::memory_order_relaxed);
    if (!upstream.valid()) {
      EREL_WARN("faultproxy: upstream connect failed for connection ", index,
                ": ", err);
      continue;  // client sees EOF — indistinguishable from a kDrop at 0
    }
    auto conn = std::make_shared<Conn>();
    conn->client = std::move(client);
    conn->upstream = std::move(upstream);
    conn->spec = plan_.spec_for_connection(index);
    conn->index = index;
    const std::scoped_lock lock(mu_);
    if (stop_.load(std::memory_order_acquire)) return;
    conns_.push_back(conn);
    pumps_.emplace_back([this, conn] { pump(conn, false); });
    pumps_.emplace_back([this, conn] { pump(conn, true); });
  }
}

void FaultProxy::pump(const std::shared_ptr<Conn>& conn,
                      bool server_to_client) {
  Socket& src = server_to_client ? conn->upstream : conn->client;
  Socket& dst = server_to_client ? conn->client : conn->upstream;
  const FaultSpec& spec = conn->spec;
  const bool faulted = spec.kind != FaultSpec::Kind::kNone &&
                       spec.server_to_client == server_to_client;
  // Severing both directions (shutdown, not close: the peer thread still
  // holds the fd) is how one pump's fault or EOF reaches the other.
  const auto sever = [&conn] {
    if (conn->client.valid()) ::shutdown(conn->client.fd(), SHUT_RDWR);
    if (conn->upstream.valid()) ::shutdown(conn->upstream.fd(), SHUT_RDWR);
  };
  std::uint64_t forwarded = 0;
  std::uint64_t fragments = 0;
  bool stalled = false;
  bool blackholed = false;
  for (;;) {
    if (stop_.load(std::memory_order_acquire)) {
      sever();
      return;
    }
    std::string chunk;
    switch (src.recv_some(chunk, 50)) {
      case Socket::IoStatus::kTimeout:
        continue;  // re-check stop_
      case Socket::IoStatus::kOk:
        break;
      case Socket::IoStatus::kEof:
      case Socket::IoStatus::kError:
        sever();
        return;
    }
    if (blackholed) continue;  // swallow everything, keep the socket open
    std::string_view bytes = chunk;
    if (faulted && spec.kind == FaultSpec::Kind::kDrop &&
        forwarded + bytes.size() >= spec.after_bytes) {
      const std::size_t keep =
          spec.after_bytes > forwarded
              ? static_cast<std::size_t>(spec.after_bytes - forwarded)
              : 0;
      dst.send_all(bytes.substr(0, keep));
      sever();
      return;
    }
    if (faulted && spec.kind == FaultSpec::Kind::kBlackhole &&
        forwarded + bytes.size() >= spec.after_bytes) {
      const std::size_t keep =
          spec.after_bytes > forwarded
              ? static_cast<std::size_t>(spec.after_bytes - forwarded)
              : 0;
      if (!dst.send_all(bytes.substr(0, keep))) {
        sever();
        return;
      }
      forwarded = spec.after_bytes;
      blackholed = true;
      continue;
    }
    if (faulted && spec.kind == FaultSpec::Kind::kStall && !stalled &&
        forwarded + bytes.size() >= spec.after_bytes) {
      const std::size_t keep =
          spec.after_bytes > forwarded
              ? static_cast<std::size_t>(spec.after_bytes - forwarded)
              : 0;
      if (!dst.send_all(bytes.substr(0, keep))) {
        sever();
        return;
      }
      forwarded += keep;
      bytes.remove_prefix(keep);
      stalled = true;
      if (!sleep_unless_stopped(spec.stall_ms)) {
        sever();
        return;
      }
    }
    if (faulted && spec.kind == FaultSpec::Kind::kShortWrite) {
      while (!bytes.empty()) {
        const std::size_t n =
            std::min<std::size_t>(bytes.size(), 1 + fragments++ % 7);
        if (!dst.send_all(bytes.substr(0, n))) {
          sever();
          return;
        }
        forwarded += n;
        bytes.remove_prefix(n);
      }
      continue;
    }
    if (!dst.send_all(bytes)) {
      sever();
      return;
    }
    forwarded += bytes.size();
  }
}

void FaultProxy::stop() {
  stop_.store(true, std::memory_order_release);
  {
    const std::scoped_lock lock(mu_);
    for (const auto& conn : conns_) {
      if (conn->client.valid()) ::shutdown(conn->client.fd(), SHUT_RDWR);
      if (conn->upstream.valid()) ::shutdown(conn->upstream.fd(), SHUT_RDWR);
    }
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> pumps;
  {
    const std::scoped_lock lock(mu_);
    pumps.swap(pumps_);
  }
  for (auto& t : pumps) t.join();
  const std::scoped_lock lock(mu_);
  conns_.clear();
}

}  // namespace erel::net
