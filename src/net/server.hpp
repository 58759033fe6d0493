// The network edge: a TCP front-end over serve::InferenceServer.
//
// Eight PRs of serving machinery end at std::future; this layer turns it
// into an actual server. One accept-loop thread hands each connection a
// reader thread and a writer thread:
//
//   reader: one recv into the connection's FrameReader, then for every
//           complete frame it holds: decode (wire.hpp) →
//           InferenceServer::submit / submit_softmax → one pending
//           entry. Admission rejections (Overloaded, Deadline, Shutdown
//           — thrown from submit) become typed error entries
//           without a future; malformed-but-framed payloads become
//           kBadRequest entries and the connection keeps serving.
//           Only when the buffer holds no complete frame, so the next
//           step would block in recv, does it append the batch to the
//           connection's pending FIFO and wake the writer, once.
//   writer: take the whole pending FIFO under one lock, resolve it in
//           submission order into ResultFixed frames — or map the
//           exception (DeadlineExpiredError, ShardFailedError,
//           per-request input errors) onto an Error frame — and append
//           each to one output buffer, sent in one call. Before it blocks
//           on a future that is not ready it sends what it holds, so a
//           finished response never waits behind an unfinished one.
//           Responses therefore stream back per connection in exactly the
//           order requests were submitted, while the inference layer
//           batches, steals and retries them across shards in any order
//           it likes.
//
// Graceful drain rides the InferenceServer::shutdown() contract:
// NetServer::shutdown() stops accepting, shuts down the inference layer
// (every accepted future becomes ready — the drain guarantee), then
// wakes each reader (SHUT_RD), lets it exit, and joins each writer only
// after the pending queue is empty — so every request that reached the
// inference layer is answered on the wire before its socket closes.
// The closed-loop gate in bench_e2e asserts exactly this:
// stats().requests_submitted == stats().responses_written after a
// shutdown under steady load, with clients holding their sockets open.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <condition_variable>
#include <variant>
#include <vector>

#include "net/socket.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"

namespace nacu::net {

struct NetServerOptions {
  /// 0 = ephemeral; read the bound port back via NetServer::port().
  std::uint16_t port = 0;
};

/// Map a caught exception from submit / future.get() onto its wire code.
/// serve:: error types map one-to-one; std::out_of_range /
/// std::invalid_argument (a raw outside the datapath format) map to
/// kBadRequest; anything else to kInternal.
[[nodiscard]] ErrorCode classify_exception(std::exception_ptr error,
                                           std::string& message);

class NetServer {
 public:
  /// Binds and starts serving immediately. @p inference is borrowed and
  /// must outlive this object; its shutdown() is invoked (once) by ours.
  explicit NetServer(serve::InferenceServer& inference,
                     NetServerOptions options = {});
  ~NetServer();  ///< shutdown(): drain every pending response, then join.

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  [[nodiscard]] bool running() const noexcept {
    return listening_ && !stopping_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Stop accepting, drain the inference layer, flush every pending
  /// response frame onto its socket, join everything. Idempotent.
  void shutdown();

  /// This server's net.* metrics: one counter per Stats field, same name.
  [[nodiscard]] obs::Registry& metrics() noexcept { return metrics_; }

  /// Snapshot of this server's counters, exact whether or not obs metrics
  /// are enabled (mirroring InferenceServer::counters()). The drain
  /// guarantee is the invariant requests_submitted == responses_written
  /// after shutdown() when no client vanished mid-response
  /// (write_failures == 0).
  struct Stats {
    std::uint64_t connections = 0;      ///< accepted sockets
    std::uint64_t frames_read = 0;      ///< well-framed payloads received
    std::uint64_t requests_submitted = 0;  ///< futures obtained from serve
    std::uint64_t responses_written = 0;   ///< result/error frames answering
                                           ///< a submitted future
    std::uint64_t immediate_errors = 0;  ///< error frames for requests that
                                         ///< never produced a future
    std::uint64_t protocol_errors = 0;  ///< connections killed by broken
                                        ///< framing (bad length prefix /
                                        ///< EOF mid-frame)
    std::uint64_t write_failures = 0;  ///< responses_written's frames lost
                                       ///< to a vanished client instead
  };
  /// Counters are relaxed and, for the writer's two, bumped after the
  /// send: read them once the traffic they describe has finished.
  [[nodiscard]] Stats stats() const;

 private:
  /// One response owed to the client, in submission order. Futures are
  /// resolved by the writer thread (get() blocks until the inference
  /// layer fulfils the promise — shutdown's drain guarantees it will).
  struct PendingFixed {
    std::uint64_t id;
    std::future<std::vector<fp::Fixed>> future;
  };
  struct PendingError {
    std::uint64_t id;
    ErrorCode code;
    std::string message;
  };
  using Pending = std::variant<PendingFixed, PendingError>;

  struct Connection {
    Socket socket;
    std::thread reader;
    std::thread writer;
    std::mutex mutex;
    std::condition_variable cv;
    std::vector<Pending> pending;  ///< FIFO — submission order
    bool reader_done = false;      ///< no more pending will be pushed
    bool write_failed = false;     ///< client gone; drop instead of send
    std::atomic<int> live_threads{2};  ///< reapable at 0
  };

  void accept_loop();
  void reader_loop(Connection& conn);
  void writer_loop(Connection& conn);
  /// Decode one framed payload, submit it, and return the response it is
  /// owed. Framing intact means the stream is still synchronised, so an
  /// unparseable payload is answered (kBadRequest), never fatal.
  [[nodiscard]] Pending handle_frame(std::span<const std::uint8_t> payload);
  /// Whether @p pending's response can be encoded without blocking.
  [[nodiscard]] static bool ready(const Pending& pending);
  /// The frame answering @p pending, waiting on its future if it has one.
  [[nodiscard]] static std::vector<std::uint8_t> encode_response(
      Pending& pending);
  /// Join and erase connections whose threads have both exited.
  void reap_connections(bool all);

  serve::InferenceServer& inference_;
  Listener listener_;
  bool listening_ = false;
  std::uint16_t port_ = 0;

  std::thread acceptor_;
  std::mutex connections_mutex_;
  std::list<std::unique_ptr<Connection>> connections_;

  std::atomic<bool> stopping_{false};
  std::once_flag shutdown_once_;

  obs::Registry metrics_;
  // Handles into metrics_, looked up once; each event is counted here only.
  obs::Counter& connections_accepted_ = metrics_.counter("net.connections");
  obs::Counter& frames_read_ = metrics_.counter("net.frames_read");
  obs::Counter& requests_submitted_ =
      metrics_.counter("net.requests_submitted");
  obs::Counter& responses_written_ = metrics_.counter("net.responses_written");
  obs::Counter& immediate_errors_ = metrics_.counter("net.immediate_errors");
  obs::Counter& protocol_errors_ = metrics_.counter("net.protocol_errors");
  obs::Counter& write_failures_ = metrics_.counter("net.write_failures");
};

}  // namespace nacu::net
