#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/matrix.h"
#include "obs/metrics.h"

namespace fedrec {

namespace {

/// errno -> IOError with context; callers add the operation name.
Status ErrnoError(const char* what) {
  return Status::IOError(std::string(what) + ": " + std::strerror(errno));
}

/// Net-layer wire counters, registered once on first use (handshake time,
/// before any steady-state round) and recorded through cached pointers.
struct NetMetrics {
  obs::Counter* frames_staged;
  obs::Counter* bytes_staged;
  obs::Counter* send_calls;  ///< every ::send SendQueue::Flush makes
  obs::Gauge* send_queue_depth;
};

NetMetrics& GetNetMetrics() {
  static NetMetrics metrics = [] {
    obs::Registry& registry = obs::Registry::Global();
    return NetMetrics{
        registry.GetCounter("fedrec_net_frames_staged_total"),
        registry.GetCounter("fedrec_net_bytes_staged_total"),
        registry.GetCounter("fedrec_net_send_calls_total"),
        registry.GetGauge("fedrec_net_send_queue_depth_bytes"),
    };
  }();
  return metrics;
}

Result<sockaddr_in> MakeAddress(const std::string& host, std::uint16_t port) {
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &address.sin_addr) != 1) {
    return Status::InvalidArgument("not an IPv4 address: " + host);
  }
  return address;
}

}  // namespace

Result<int> TcpListen(const std::string& host, std::uint16_t port,
                      int backlog) {
  Result<sockaddr_in> address = MakeAddress(host, port);
  if (!address.ok()) return address.status();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoError("socket");
  const int enable = 1;
  if (::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable)) !=
      0) {
    Status status = ErrnoError("setsockopt(SO_REUSEADDR)");
    ::close(fd);
    return status;
  }
  const sockaddr_in& addr = address.value();
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status status = ErrnoError("bind");
    ::close(fd);
    return status;
  }
  if (::listen(fd, backlog) != 0) {
    Status status = ErrnoError("listen");
    ::close(fd);
    return status;
  }
  return fd;
}

Result<std::uint16_t> BoundPort(int fd) {
  sockaddr_in address{};
  socklen_t length = sizeof(address);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&address), &length) != 0) {
    return ErrnoError("getsockname");
  }
  return static_cast<std::uint16_t>(ntohs(address.sin_port));
}

Status TcpAccept(int listener, int& fd) {
  fd = -1;
  const int accepted = ::accept(listener, nullptr, nullptr);
  if (accepted < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
      return Status::OK();
    }
    return ErrnoError("accept");
  }
  const int enable = 1;
  // Best effort: a connection that cannot set NODELAY still works.
  (void)::setsockopt(accepted, IPPROTO_TCP, TCP_NODELAY, &enable,
                     sizeof(enable));
  fd = accepted;
  return Status::OK();
}

Result<int> TcpConnect(const std::string& host, std::uint16_t port) {
  Result<sockaddr_in> address = MakeAddress(host, port);
  if (!address.ok()) return address.status();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoError("socket");
  const sockaddr_in& addr = address.value();
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status status = ErrnoError("connect");
    ::close(fd);
    return status;
  }
  const int enable = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
  return fd;
}

Status SetIoTimeout(int fd, int timeout_ms) {
  timeval timeout{};
  timeout.tv_sec = timeout_ms / 1000;
  timeout.tv_usec = (timeout_ms % 1000) * 1000;
  if (::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout)) !=
          0 ||
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout)) !=
          0) {
    return ErrnoError("setsockopt(SO_RCVTIMEO/SO_SNDTIMEO)");
  }
  return Status::OK();
}

Status SetSendBuffer(int fd, int bytes) {
  if (::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof(bytes)) != 0) {
    return ErrnoError("setsockopt(SO_SNDBUF)");
  }
  return Status::OK();
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return ErrnoError("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

void CloseSocket(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

// fedrec:hot — one syscall per call; classification is branch work only.
Status ReadSome(int fd, char* out, std::size_t cap, ReadOutcome& outcome) {
  outcome = ReadOutcome{};
  for (;;) {
    const ssize_t n = ::read(fd, out, cap);
    if (n > 0) {
      outcome.bytes = static_cast<std::size_t>(n);
      return Status::OK();
    }
    if (n == 0) {
      outcome.eof = true;
      return Status::OK();
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // On a blocking fd this is SO_RCVTIMEO expiring — a hung peer, which
      // the retry path must treat as an outage, not as "try again".
      outcome.would_block = true;
      return Status::OK();
    }
    return ErrnoError("read");
  }
}

Status ReadExact(int fd, std::span<char> out) {
  std::size_t filled = 0;
  while (filled < out.size()) {
    ReadOutcome outcome;
    FEDREC_RETURN_NOT_OK(ReadSome(fd, out.data() + filled,
                                  out.size() - filled, outcome));
    if (outcome.eof) return Status::IOError("connection closed mid-message");
    if (outcome.would_block) return Status::IOError("socket read timed out");
    filled += outcome.bytes;
  }
  return Status::OK();
}

// fedrec:hot — gathered send: one writev per loop iteration, no copies; the
// iovec array lives on the stack and partial writes advance it in place.
Status WriteAllVec(int fd, std::span<const std::string_view> pieces) {
  constexpr std::size_t kMaxPieces = 8;
  FEDREC_CHECK(pieces.size() <= kMaxPieces) << "too many writev pieces";
  iovec vec[kMaxPieces];
  std::size_t count = 0;
  for (const std::string_view piece : pieces) {
    if (piece.empty()) continue;
    vec[count].iov_base = const_cast<char*>(piece.data());
    vec[count].iov_len = piece.size();
    ++count;
  }
  std::size_t cursor = 0;  // first iovec with unsent bytes
  while (cursor < count) {
    // sendmsg + MSG_NOSIGNAL instead of writev: a peer that closed mid-round
    // must surface as an IOError outage, not a SIGPIPE process kill.
    msghdr msg{};
    msg.msg_iov = vec + cursor;
    msg.msg_iovlen = count - cursor;
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::IOError("socket write timed out");
      }
      return ErrnoError("sendmsg");
    }
    std::size_t written = static_cast<std::size_t>(n);
    while (cursor < count && written >= vec[cursor].iov_len) {
      written -= vec[cursor].iov_len;
      ++cursor;
    }
    if (cursor < count && written > 0) {
      vec[cursor].iov_base = static_cast<char*>(vec[cursor].iov_base) +
                             written;
      vec[cursor].iov_len -= written;
    }
  }
  return Status::OK();
}

void SendQueue::StageBytes(const char* data, std::size_t size) {
  if (size == 0) return;
  if (begin_ == end_) begin_ = end_ = 0;
  if (buffer_.size() - end_ < size) {
    if (begin_ > 0) {
      std::memmove(buffer_.data(), buffer_.data() + begin_, end_ - begin_);
      end_ -= begin_;
      begin_ = 0;
    }
    if (buffer_.size() - end_ < size) {
      const std::size_t needed = end_ + size;
      internal::NoteSparseGrowth(needed, buffer_.capacity());
      buffer_.resize(needed);  // fedrec:alloc-ok — one-time high-water growth
    }
  }
  std::memcpy(buffer_.data() + end_, data, size);
  end_ += size;
}

// fedrec:hot — staging is header encode + memcpy into the retained buffer.
void SendQueue::AppendFrame(FrameType type,
                            std::span<const std::string_view> pieces) {
  std::uint64_t payload_bytes = 0;
  for (const std::string_view piece : pieces) payload_bytes += piece.size();
  char header[kFrameHeaderBytes];
  EncodeFrameHeader(type, payload_bytes, header);
  StageBytes(header, sizeof(header));
  for (const std::string_view piece : pieces) {
    StageBytes(piece.data(), piece.size());
  }
  NetMetrics& metrics = GetNetMetrics();
  metrics.frames_staged->Increment();
  metrics.bytes_staged->Increment(payload_bytes + kFrameHeaderBytes);
}

// fedrec:hot
Status SendQueue::Flush(int fd, bool& blocked) {
  blocked = false;
  NetMetrics& metrics = GetNetMetrics();
  while (begin_ < end_) {
    // MSG_NOSIGNAL: a disconnecting peer is an IOError, never a SIGPIPE.
    const ssize_t n = ::send(fd, buffer_.data() + begin_, end_ - begin_,
                             MSG_NOSIGNAL);
    metrics.send_calls->Increment();
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        blocked = true;
        metrics.send_queue_depth->Set(
            static_cast<std::int64_t>(end_ - begin_));
        return Status::OK();
      }
      return ErrnoError("send");
    }
    begin_ += static_cast<std::size_t>(n);
  }
  begin_ = end_ = 0;
  metrics.send_queue_depth->Set(0);
  return Status::OK();
}

}  // namespace fedrec
