// Client side of the NACU wire protocol (wire.hpp) over loopback TCP.
//
// A Client is one connection: connect, read the server's Hello (which
// pins the datapath fixed-point format raw values must live on), then
// pipeline requests with the send_* calls and collect responses with
// read_response() — responses arrive in submission order, each tagged
// with the id its send_* returned. call() wraps one request/response
// round trip for convenience; the load generator (bench_e2e) uses the
// split API to keep many requests in flight per connection.
//
// Batching: read_response() takes every response one recv returns into a
// buffer and hands them out one per call. A frame sent while such a
// response sits unread is held — up to kMaxHeldBytes — and goes out with
// the frames after it at the next read_response() that has to wait in
// recv, or at close_send(). Holding therefore never delays a response the
// caller is about to wait for, and a closed loop pays one send per round
// of reads instead of one per request.
//
// Threads: one thread may call the send_* functions while another calls
// read_response() (bench_e2e's open-loop shape); a mutex guards the held
// frames they share. Beyond that not synchronised: one Client per thread,
// or external locking. close_send() half-closes the socket — the server
// reads EOF, drains every response still owed, then closes; this is how
// a closed-loop client participates in a graceful drain.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/batch_nacu.hpp"
#include "fixedpoint/fixed.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"

namespace nacu::net {

class Client {
 public:
  /// Connect to 127.0.0.1:@p port and read the Hello. valid() is false
  /// (and every other call a no-op) when either step failed.
  explicit Client(std::uint16_t port);

  [[nodiscard]] bool valid() const noexcept { return valid_; }
  /// The server's datapath format, from the Hello.
  [[nodiscard]] fp::Format format() const noexcept { return format_; }

  /// Pipeline one request; returns its id (sequential from 1), or 0 when
  /// it was not sent: the connection is gone, or the frame would be
  /// longer than kMaxFrameBytes (about 512 Ki elements when every raw fits
  /// an int16, 128 Ki otherwise). A request not sent uses up no id, and
  /// the connection keeps serving after a too-long one.
  [[nodiscard]] std::uint64_t send_submit(core::BatchNacu::Function function,
                                          std::span<const fp::Fixed> input,
                                          const WireSubmitOptions& options = {});
  [[nodiscard]] std::uint64_t send_softmax(
      std::span<const fp::Fixed> logits,
      const WireSubmitOptions& options = {});

  struct Response {
    std::uint64_t id = 0;
    ErrorCode error = ErrorCode::kNone;  ///< kNone = success
    std::string message;                 ///< diagnostic text on error
    std::vector<fp::Fixed> values;       ///< ResultFixed payload
    [[nodiscard]] bool ok() const noexcept { return error == ErrorCode::kNone; }
  };
  /// Next response, from the buffer or else off the wire — blocking, after
  /// sending the held frames; nullopt once the server has closed (or the
  /// stream broke). Throws std::out_of_range when a ResultFixed raw lies
  /// outside format(); that response is consumed.
  [[nodiscard]] std::optional<Response> read_response();

  /// One synchronous activation round trip; throws std::runtime_error on
  /// any failure (tests use it where a typed error is itself the bug).
  [[nodiscard]] std::vector<fp::Fixed> call(core::BatchNacu::Function function,
                                            std::span<const fp::Fixed> input);

  /// Half-close: sends every held frame, then tells the server this
  /// client is done submitting, while responses still owed keep arriving
  /// (read_response until nullopt).
  void close_send();
  /// Hard close; held frames are dropped.
  void close() { socket_.close(); }

  /// Escape hatch for protocol-robustness tests: the raw socket, which
  /// bypasses the held frames.
  [[nodiscard]] Socket& socket() noexcept { return socket_; }

 private:
  [[nodiscard]] std::uint64_t send(const std::vector<std::uint8_t>& frame);
  /// Send every held frame; false when the connection is gone. The caller
  /// holds held_mutex_.
  bool flush_held();

  Socket socket_;
  FrameReader reader_;  ///< read_response's thread only
  bool valid_ = false;
  fp::Format format_{4, 11};
  std::uint64_t next_id_ = 1;  ///< the send_* thread only

  std::mutex held_mutex_;
  std::vector<std::uint8_t> held_;  ///< frames given ids, not yet written
  bool response_buffered_ = false;  ///< reader_ holds a complete response
};

}  // namespace nacu::net
