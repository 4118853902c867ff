#ifndef FEDREC_NET_EPOLL_LOOP_H_
#define FEDREC_NET_EPOLL_LOOP_H_

#include <sys/epoll.h>

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"

/// \file
/// Thin epoll wrapper for FrameServer (the serving loop) and ChaosProxy:
/// level-triggered readiness over a retained event buffer. Level-triggered
/// (the default) keeps the consumers simple — a frame left unparsed because
/// a round was mid-flight re-arms on the next Wait instead of being lost the
/// way edge-triggered wakeups are.

namespace fedrec {

class EpollLoop {
 public:
  EpollLoop();
  ~EpollLoop();
  EpollLoop(const EpollLoop&) = delete;
  EpollLoop& operator=(const EpollLoop&) = delete;

  /// Registers `fd` for `events` (EPOLLIN/EPOLLOUT/...); `tag` comes back in
  /// epoll_event::data.u64 on readiness. (Named Watch, not Add: the lint's
  /// discarded-result rule is name-keyed, and `Add` collides with the
  /// infallible math Adds all over the tree.)
  [[nodiscard]] Status Watch(int fd, std::uint32_t events, std::uint64_t tag);

  /// Re-arms `fd` with a new event mask (e.g. adding EPOLLOUT while a
  /// SendQueue has pending bytes).
  [[nodiscard]] Status Modify(int fd, std::uint32_t events, std::uint64_t tag);

  /// Deregisters `fd` (harmless if the fd is already closed).
  void Remove(int fd);

  /// Blocks up to `timeout_ms` (-1 = indefinitely) and returns the ready
  /// events in a retained buffer, valid until the next Wait.
  std::span<const epoll_event> Wait(int timeout_ms);

 private:
  int epoll_fd_ = -1;
  std::vector<epoll_event> events_;
};

}  // namespace fedrec

#endif  // FEDREC_NET_EPOLL_LOOP_H_
