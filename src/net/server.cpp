#include "net/server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/log.hpp"

namespace erel::net {

EventServer::EventServer(Handler& handler, const std::string& host,
                         std::uint16_t port)
    : handler_(handler), listener_(host, port) {
  if (::pipe(wake_pipe_) == 0) {
    ::fcntl(wake_pipe_[0], F_SETFL, O_NONBLOCK);
    ::fcntl(wake_pipe_[1], F_SETFL, O_NONBLOCK);
  } else {
    wake_pipe_[0] = wake_pipe_[1] = -1;
  }
}

EventServer::~EventServer() {
  for (int fd : wake_pipe_)
    if (fd >= 0) ::close(fd);
}

void EventServer::wake() {
  if (wake_pipe_[1] >= 0) {
    const char byte = 'w';
    [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  }
}

void EventServer::stop() {
  stop_requested_.store(true, std::memory_order_release);
  wake();
}

void EventServer::post(std::function<void()> fn) {
  {
    const std::scoped_lock lock(post_mu_);
    posted_.push_back(std::move(fn));
  }
  wake();
}

void EventServer::run_posted() {
  for (;;) {
    std::function<void()> fn;
    {
      const std::scoped_lock lock(post_mu_);
      if (posted_.empty()) return;
      fn = std::move(posted_.front());
      posted_.pop_front();
    }
    fn();
  }
}

void EventServer::send(std::uint64_t client, const Frame& frame) {
  const auto it = conns_.find(client);
  if (it == conns_.end()) return;
  Connection& conn = it->second;
  conn.outbound += encode_frame(frame);
  if (conn.outbound.size() > kMaxOutboundBuffer) {
    EREL_WARN("dropping client ", client, ": outbound buffer exceeded ",
              kMaxOutboundBuffer, " bytes (client not reading?)");
    overflow_drops_.fetch_add(1, std::memory_order_relaxed);
    drop(client);
    return;
  }
  // Opportunistic flush; poll() takes over for whatever remains.
  if (!flush_writable(conn)) drop(client);
}

void EventServer::close_client(std::uint64_t client) { drop(client); }

void EventServer::drop(std::uint64_t client) {
  const auto it = conns_.find(client);
  if (it == conns_.end()) return;
  conns_.erase(it);
  handler_.on_disconnect(client);
}

void EventServer::accept_new() {
  Socket socket = listener_.accept_client();
  if (!socket.valid()) return;
  // Non-blocking so the reactor never stalls on one peer.
  ::fcntl(socket.fd(), F_SETFL, O_NONBLOCK);
  const std::uint64_t id = next_client_++;
  conns_.emplace(id, Connection{std::move(socket), FrameDecoder{}, {}});
  handler_.on_connect(id);
}

bool EventServer::drain_readable(std::uint64_t client) {
  const auto it = conns_.find(client);
  if (it == conns_.end()) return true;
  Connection& conn = it->second;
  char chunk[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(conn.socket.fd(), chunk, sizeof chunk, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;
    }
    if (n == 0) return false;  // EOF
    conn.decoder.feed(std::string_view(chunk, static_cast<std::size_t>(n)));
    if (static_cast<std::size_t>(n) < sizeof chunk) break;
  }
  for (;;) {
    Frame frame;
    switch (conn.decoder.next(frame)) {
      case FrameDecoder::Status::kFrame:
        handler_.on_frame(client, std::move(frame));
        // The handler may have dropped the client (e.g. shutdown).
        if (conns_.find(client) == conns_.end()) return true;
        break;
      case FrameDecoder::Status::kNeedMore:
        return true;
      case FrameDecoder::Status::kError:
        EREL_WARN("dropping client ", client, ": corrupt frame");
        return false;
    }
  }
}

bool EventServer::flush_writable(Connection& conn) {
  while (!conn.outbound.empty()) {
    const ssize_t n = ::send(conn.socket.fd(), conn.outbound.data(),
                             conn.outbound.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return false;
    }
    conn.outbound.erase(0, static_cast<std::size_t>(n));
  }
  return true;
}

void EventServer::run() {
  EREL_CHECK(valid(), "EventServer::run on an unbound server: ", error());
  while (!stopping_) {
    if (stop_requested_.load(std::memory_order_acquire)) stopping_ = true;
    run_posted();
    if (stopping_) break;

    std::vector<pollfd> fds;
    std::vector<std::uint64_t> ids;  // ids[i] pairs with fds[i + 2]
    fds.push_back({listener_.fd(), POLLIN, 0});
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    fds.reserve(conns_.size() + 2);
    ids.reserve(conns_.size());
    for (const auto& [id, conn] : conns_) {
      short events = POLLIN;
      if (!conn.outbound.empty()) events |= POLLOUT;
      fds.push_back({conn.socket.fd(), events, 0});
      ids.push_back(id);
    }

    const int rc = ::poll(fds.data(), fds.size(), -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      EREL_WARN("poll failed: ", std::strerror(errno), "; stopping server");
      break;
    }

    if ((fds[1].revents & POLLIN) != 0) {
      char sink[256];
      while (::read(wake_pipe_[0], sink, sizeof sink) > 0) {
      }
    }
    if ((fds[0].revents & (POLLIN | POLLERR)) != 0) accept_new();

    for (std::size_t i = 0; i < ids.size(); ++i) {
      const pollfd& pfd = fds[i + 2];
      const std::uint64_t id = ids[i];
      if ((pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
          (pfd.revents & POLLIN) == 0) {
        drop(id);
        continue;
      }
      if ((pfd.revents & POLLIN) != 0 && !drain_readable(id)) {
        drop(id);
        continue;
      }
      if ((pfd.revents & POLLOUT) != 0) {
        const auto it = conns_.find(id);
        if (it != conns_.end() && !flush_writable(it->second)) drop(id);
      }
    }
  }
  // Drain closures posted concurrently with the stop so workers blocked on
  // a posted-and-awaited handoff are not stranded.
  run_posted();
  // Closing every connection is the shutdown acknowledgement: peers
  // blocked on recv observe a clean EOF instead of a hung socket. Flush
  // what we can first so already-queued replies are not torn off.
  for (auto& [id, conn] : conns_) flush_writable(conn);
  conns_.clear();
}

}  // namespace erel::net
