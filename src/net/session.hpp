#pragma once

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "net/event_loop.hpp"
#include "net/framing.hpp"
#include "net/transport.hpp"

namespace ps::net {

/// One framed peer connection: the transport, its incremental frame
/// decoder, pending output, and the registration identity its owner
/// assigns once the peer's first message arrives. Sessions carry no
/// coordination state — job records live with the daemon that owns the
/// table, which is what lets PowerDaemon and AggregatorDaemon share this
/// layer.
struct NetSession {
  std::unique_ptr<Transport> transport;
  FrameDecoder decoder;
  std::string outbox;
  /// Flat-client registration: the one job this connection speaks for.
  std::string job_name;
  bool registered = false;
  /// Root-mode registration: this session is a rack aggregator carrying
  /// many jobs' traffic in batched frames. Its jobs are the daemon's job
  /// records bound to this fd.
  bool is_rack = false;
  std::string rack_name;
  std::chrono::steady_clock::time_point last_activity;
};

/// Session bookkeeping decoupled from the transport loop: owns the
/// fd -> NetSession map and the entire write path, so a daemon deals in
/// sessions and frames while the table deals in readiness and partial
/// writes.
///
/// Write coalescing: inside a Batch, queue_frame() only appends — every
/// touched session is flushed exactly once when the batch closes, so a
/// round that fans caps out to hundreds of sessions issues one write(2)
/// per session instead of one per frame. Outside a batch, queue_frame()
/// flushes immediately (the pre-coalescing behavior, kept for
/// registration replies and resends where latency beats batching).
///
/// A flush that hits a dead peer invokes on_dead_peer(fd); the owner is
/// expected to close the session (via remove()), record consequences,
/// and start its reclamation grace — the table never decides what a
/// disconnect means.
class SessionTable {
 public:
  using Clock = std::chrono::steady_clock;

  SessionTable(EventLoop& loop, std::function<void(int fd)> on_dead_peer);

  SessionTable(const SessionTable&) = delete;
  SessionTable& operator=(const SessionTable&) = delete;

  /// Registers the transport for POLLIN and returns its fd. `on_ready`
  /// receives (fd, revents) on readiness.
  int add(std::unique_ptr<Transport> transport,
          std::function<void(int fd, short revents)> on_ready);

  [[nodiscard]] NetSession* find(int fd);
  [[nodiscard]] bool contains(int fd) const;
  [[nodiscard]] std::size_t size() const noexcept { return map_.size(); }

  /// Unregisters from the loop and erases the session, returning the
  /// transport so the owner can keep the peer's fd open until every
  /// consequence of the close has been recorded.
  std::unique_ptr<Transport> remove(int fd);

  /// Appends a frame to the session's outbox; flushes now, or at batch
  /// close when a Batch is open.
  void queue_frame(int fd, NetSession& session, std::string_view frame);
  /// Drives pending output (the POLLOUT path). May invoke on_dead_peer.
  void flush(int fd, NetSession& session);

  /// Sessions silent for longer than `idle_timeout`, oldest first.
  [[nodiscard]] std::vector<int> idle_fds(
      Clock::time_point now, std::chrono::milliseconds idle_timeout) const;

  /// Iteration (job-order determinism never depends on it; fd order is
  /// only used to collect candidates that are then re-found). Erasure
  /// must go through remove().
  [[nodiscard]] std::map<int, NetSession>& map() noexcept { return map_; }

  /// RAII write-coalescing scope. Nested batches collapse into the
  /// outermost one. The destructor flushes and may propagate an
  /// invariant failure raised while recording a dead peer's close —
  /// hence noexcept(false).
  class Batch {
   public:
    explicit Batch(SessionTable& table);
    ~Batch() noexcept(false);
    Batch(const Batch&) = delete;
    Batch& operator=(const Batch&) = delete;

   private:
    SessionTable& table_;
    bool engaged_;
  };

 private:
  void flush_pending();

  EventLoop& loop_;
  std::function<void(int fd)> on_dead_peer_;
  std::map<int, NetSession> map_;
  bool corked_ = false;
  std::vector<int> pending_flush_;
};

}  // namespace ps::net
