// Thin RAII wrappers over POSIX TCP sockets — everything the net layer
// needs and nothing more: a movable owning fd, a short-write loop that
// survives EINTR, a loopback listener with a poll()-based accept so
// shutdown is a flag check away, and a buffered frame reader built on the
// wire.hpp length prefix.
//
// All operations are blocking; concurrency comes from the thread-per-
// connection model in net/server.cpp, not from non-blocking I/O. The
// syscall count stays low by batching instead: FrameReader parses every
// frame one recv returns, and both ends collect outgoing frames into one
// buffer for a single send_all (net/server.hpp and net/client.hpp say when
// each end holds frames). SIGPIPE is suppressed per send (MSG_NOSIGNAL) so
// a client that vanished mid response surfaces as an error return, never a
// process signal.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/wire.hpp"

namespace nacu::net {

/// Most bytes of outgoing frames either end collects before it sends
/// them, whatever its other reasons to keep holding.
inline constexpr std::size_t kMaxHeldBytes = std::size_t{64} << 10;

/// Owning socket fd. Move-only; close on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) noexcept : fd_{fd} {}
  ~Socket() { close(); }
  Socket(Socket&& other) noexcept : fd_{other.fd_} { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int fd() const noexcept { return fd_; }

  /// Write exactly @p n bytes; false on any unrecoverable error
  /// (peer gone, fd closed under us). Retries EINTR.
  [[nodiscard]] bool send_all(const void* data, std::size_t n) const;

  /// Half-close: no more bytes will be sent (SHUT_WR) — the peer's next
  /// read sees EOF while our own reads keep draining. Used by clients to
  /// signal "done submitting" during drain tests.
  void shutdown_send() const noexcept;
  /// Wake a reader blocked in recv from another thread (SHUT_RD).
  void shutdown_receive() const noexcept;

  void close() noexcept;

 private:
  int fd_ = -1;
};

/// Reads length-prefixed frames from one socket through a buffer. One recv
/// takes as many bytes as the kernel holds, and every complete frame among
/// them is then handed out in place: a burst of pipelined frames costs one
/// syscall instead of two per frame, and no frame gets its own payload
/// vector. The buffer starts at kInitialBytes and grows only to hold the
/// largest frame seen, length prefix included. Not synchronised: one
/// thread reads a connection.
class FrameReader {
 public:
  static constexpr std::size_t kInitialBytes = std::size_t{4} << 10;

  /// Anything but kFrame ends the connection; the kEof/kBroken split only
  /// feeds diagnostics (a clean close is normal, a broken one counts as a
  /// protocol error).
  enum class Status {
    kFrame,   ///< payload views one complete frame
    kEof,     ///< peer closed cleanly between frames
    kBroken,  ///< zero/oversized length prefix, or the stream tore
              ///< mid-frame — the byte stream cannot be resynchronised
  };
  struct Frame {
    Status status = Status::kEof;
    /// The payload inside the reader's buffer; valid until the next call
    /// to next().
    std::span<const std::uint8_t> payload;
  };

  FrameReader();

  /// The next frame: straight from the buffer when a complete one is
  /// there, otherwise after as many blocking recv calls as it takes.
  /// Retries EINTR.
  [[nodiscard]] Frame next(const Socket& socket);

  /// True when next() will return without calling recv: a complete frame,
  /// or a length prefix that breaks the stream, is already buffered.
  [[nodiscard]] bool ready() const noexcept;

 private:
  static constexpr std::size_t kBrokenPrefix = ~std::size_t{0};
  /// Bytes the frame at the head of the buffer spans, prefix included: 0
  /// while the prefix itself is incomplete, kBrokenPrefix when it is zero
  /// or over kMaxFrameBytes.
  [[nodiscard]] std::size_t head_bytes() const noexcept;

  std::vector<std::uint8_t> buffer_;
  std::size_t begin_ = 0;  ///< first byte not yet handed out
  std::size_t end_ = 0;    ///< one past the last byte received
};

/// Loopback listener (127.0.0.1). Binds at construction — port 0 picks
/// an ephemeral port, readable via port() immediately after.
class Listener {
 public:
  explicit Listener(std::uint16_t port = 0);
  [[nodiscard]] bool valid() const noexcept { return socket_.valid(); }
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Wait up to @p timeout_ms for a connection. nullopt on timeout or
  /// when the listener has been closed — callers poll a stop flag
  /// between calls rather than blocking forever in accept(2).
  [[nodiscard]] std::optional<Socket> accept(int timeout_ms);

  void close() noexcept { socket_.close(); }

 private:
  Socket socket_;
  std::uint16_t port_ = 0;
};

/// Blocking connect to 127.0.0.1:port. Invalid Socket on failure.
[[nodiscard]] Socket connect_loopback(std::uint16_t port);

}  // namespace nacu::net
