#include "net/server.hpp"

#include <chrono>
#include <iterator>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace nacu::net {
namespace {

/// How long the accept loop blocks in poll() before re-checking the stop
/// flag — the shutdown latency of an idle listener.
constexpr int kAcceptPollMs = 50;

/// @p now + @p relative_ns, saturated at the clock's range: a client's
/// far-future deadline means no practical deadline, never signed overflow.
std::chrono::steady_clock::time_point saturating_deadline(
    std::chrono::steady_clock::time_point now, std::int64_t relative_ns) {
  using Clock = std::chrono::steady_clock;
  static_assert(std::is_same_v<Clock::duration, std::chrono::nanoseconds>);
  std::int64_t at = 0;
  if (__builtin_add_overflow(now.time_since_epoch().count(), relative_ns,
                             &at)) {
    return relative_ns > 0 ? Clock::time_point::max()
                           : Clock::time_point::min();
  }
  return Clock::time_point{Clock::duration{at}};
}

}  // namespace

ErrorCode classify_exception(std::exception_ptr error, std::string& message) {
  try {
    std::rethrow_exception(std::move(error));
  } catch (const serve::OverloadedError& e) {
    message = e.what();
    return ErrorCode::kOverloaded;
  } catch (const serve::ShutdownError& e) {
    message = e.what();
    return ErrorCode::kShutdown;
  } catch (const serve::DeadlineExpiredError& e) {
    message = e.what();
    return ErrorCode::kDeadlineExpired;
  } catch (const serve::ShardFailedError& e) {
    message = e.what();
    return ErrorCode::kShardFailed;
  } catch (const std::out_of_range& e) {
    message = e.what();
    return ErrorCode::kBadRequest;
  } catch (const std::invalid_argument& e) {
    message = e.what();
    return ErrorCode::kBadRequest;
  } catch (const std::exception& e) {
    message = e.what();
    return ErrorCode::kInternal;
  } catch (...) {
    message = "unknown error";
    return ErrorCode::kInternal;
  }
}

NetServer::NetServer(serve::InferenceServer& inference,
                     NetServerOptions options)
    : inference_{inference}, listener_{options.port} {
  if (!listener_.valid()) {
    return;  // running() stays false; port() stays 0
  }
  listening_ = true;
  port_ = listener_.port();
  acceptor_ = std::thread{[this] { accept_loop(); }};
}

NetServer::~NetServer() { shutdown(); }

NetServer::Stats NetServer::stats() const {
  return Stats{.connections = connections_accepted_.value(),
               .frames_read = frames_read_.value(),
               .requests_submitted = requests_submitted_.value(),
               .responses_written = responses_written_.value(),
               .immediate_errors = immediate_errors_.value(),
               .protocol_errors = protocol_errors_.value(),
               .write_failures = write_failures_.value()};
}

void NetServer::shutdown() {
  stopping_.store(true, std::memory_order_release);
  std::call_once(shutdown_once_, [this] {
    // Order is the drain guarantee:
    //  1. Stop accepting — no new connections, no new readers.
    if (acceptor_.joinable()) {
      acceptor_.join();  // exits on its next stop-flag check
    }
    listener_.close();
    //  2. Drain the inference layer. When this returns, every future a
    //     reader pushed is ready (value or typed error) — the serving
    //     layer's own graceful-shutdown contract.
    inference_.shutdown();
    //  3. Wake readers blocked in recv; in-flight submits now throw
    //     ShutdownError, which the reader turns into error frames.
    {
      const std::lock_guard<std::mutex> lock{connections_mutex_};
      for (auto& conn : connections_) {
        conn->socket.shutdown_receive();
      }
    }
    //  4. Join everything. Writers exit only once their pending queue is
    //     empty, so every response reaches the wire before its socket
    //     closes (unless the client itself vanished — write_failures).
    reap_connections(/*all=*/true);
  });
}

void NetServer::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    std::optional<Socket> conn_socket = listener_.accept(kAcceptPollMs);
    reap_connections(/*all=*/false);
    if (!conn_socket) {
      continue;
    }
    const core::NacuConfig& config = inference_.engine().config();
    const std::vector<std::uint8_t> hello =
        encode_hello(config.format.integer_bits(),
                     config.format.fractional_bits(),
                     core::BatchNacu::kFunctionCount);
    if (!conn_socket->send_all(hello.data(), hello.size())) {
      continue;  // greeting failed — peer already gone
    }
    connections_accepted_.add();
    auto conn = std::make_unique<Connection>();
    conn->socket = std::move(*conn_socket);
    Connection& ref = *conn;
    {
      const std::lock_guard<std::mutex> lock{connections_mutex_};
      connections_.push_back(std::move(conn));
    }
    // Threads start only after the connection is registered: shutdown's
    // SHUT_RD sweep must be able to reach every reader.
    ref.reader = std::thread{[this, &ref] { reader_loop(ref); }};
    ref.writer = std::thread{[this, &ref] { writer_loop(ref); }};
  }
}

void NetServer::reap_connections(bool all) {
  std::list<std::unique_ptr<Connection>> done;
  {
    const std::lock_guard<std::mutex> lock{connections_mutex_};
    for (auto it = connections_.begin(); it != connections_.end();) {
      if (all ||
          (*it)->live_threads.load(std::memory_order_acquire) == 0) {
        done.push_back(std::move(*it));
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Join outside the lock: with all=true these joins block until the
  // writer drains, and a reader might be taking the lock to push pending.
  for (auto& conn : done) {
    if (conn->reader.joinable()) {
      conn->reader.join();
    }
    if (conn->writer.joinable()) {
      conn->writer.join();
    }
  }
}

void NetServer::reader_loop(Connection& conn) {
  FrameReader reader;
  std::vector<Pending> batch;
  for (;;) {
    const FrameReader::Frame frame = reader.next(conn.socket);
    const bool open = frame.status == FrameReader::Status::kFrame;
    if (open) {
      frames_read_.add();
      batch.push_back(handle_frame(frame.payload));
      if (reader.ready()) {
        continue;  // submit every buffered frame before waking the writer
      }
    } else if (frame.status == FrameReader::Status::kBroken) {
      protocol_errors_.add();
    }
    // The next step blocks in recv or ends the connection: hand the writer
    // the whole batch with one wake-up. After the last hand-off the writer
    // drains what is queued and exits; responses for everything already
    // submitted still go out — the client may have half-closed (SHUT_WR)
    // and be reading.
    {
      const std::lock_guard<std::mutex> lock{conn.mutex};
      conn.pending.insert(conn.pending.end(),
                          std::make_move_iterator(batch.begin()),
                          std::make_move_iterator(batch.end()));
      conn.reader_done = !open;
    }
    conn.cv.notify_one();
    batch.clear();
    if (!open) {
      break;
    }
  }
  conn.live_threads.fetch_sub(1, std::memory_order_acq_rel);
}

NetServer::Pending NetServer::handle_frame(
    std::span<const std::uint8_t> payload) {
  ByteReader r{payload};
  const auto opcode = r.u8();   // length ≥ 1 — cannot fail
  const auto id = r.u64();
  if (!id) {
    // Too short to even carry the id that an error frame would echo.
    immediate_errors_.add();
    return PendingError{0, ErrorCode::kBadRequest,
                        "frame too short for request id"};
  }
  const auto bad = [&](std::string message) -> Pending {
    immediate_errors_.add();
    return PendingError{*id, ErrorCode::kBadRequest, std::move(message)};
  };

  const auto op = static_cast<Opcode>(*opcode);
  if (op != Opcode::kSubmit && op != Opcode::kSubmitSoftmax) {
    return bad("unknown opcode");
  }
  std::optional<core::BatchNacu::Function> function;  // empty: softmax
  if (op == Opcode::kSubmit) {
    const auto f = r.u8();
    if (!f) {
      return bad("truncated submit: missing function");
    }
    if (*f >= core::BatchNacu::kFunctionCount) {
      return bad("unknown function index");
    }
    function = static_cast<core::BatchNacu::Function>(*f);
  }
  const auto wire_options = decode_submit_options(r);
  if (!wire_options) {
    return bad("truncated submit options");
  }
  serve::SubmitOptions submit_options;
  submit_options.max_retries = wire_options->max_retries;
  if (wire_options->deadline_ns) {
    // Relative on the wire, absolute on the serving clock from here on.
    submit_options.deadline =
        saturating_deadline(inference_.now(), *wire_options->deadline_ns);
  }

  try {
    // decode_raws throws out_of_range on a raw outside the format —
    // classified below as kBadRequest, connection keeps serving.
    std::optional<std::vector<fp::Fixed>> input =
        decode_raws(r, inference_.engine().config().format);
    if (!input) {
      return bad("element width or count does not match frame length");
    }
    auto future =
        function ? inference_.submit(*function, std::move(*input),
                                     submit_options)
                 : inference_.submit_softmax(std::move(*input), submit_options);
    requests_submitted_.add();
    return PendingFixed{*id, std::move(future)};
  } catch (...) {
    // Admission rejections (and bad raws) — typed error frame instead of
    // a future; the request was never accepted, nothing to drain.
    std::string message;
    const ErrorCode code = classify_exception(std::current_exception(),
                                              message);
    immediate_errors_.add();
    return PendingError{*id, code, std::move(message)};
  }
}

bool NetServer::ready(const Pending& pending) {
  const auto* fixed = std::get_if<PendingFixed>(&pending);
  return fixed == nullptr ||
         fixed->future.wait_for(std::chrono::seconds{0}) ==
             std::future_status::ready;
}

std::vector<std::uint8_t> NetServer::encode_response(Pending& pending) {
  if (const auto* error = std::get_if<PendingError>(&pending)) {
    return encode_error(error->id, error->code, error->message);
  }
  auto& fixed = std::get<PendingFixed>(pending);
  try {
    std::vector<std::uint8_t> frame =
        encode_result_fixed(fixed.id, fixed.future.get());
    // Raws that fit an int16 can come back wider on a datapath of more
    // than 16 bits; a result that outgrows one frame would break the
    // client's stream.
    if (frame.size() > kLengthPrefixBytes + kMaxFrameBytes) {
      return encode_error(fixed.id, ErrorCode::kBadRequest,
                          "result exceeds one frame; split the request");
    }
    return frame;
  } catch (...) {
    std::string message;
    const ErrorCode code =
        classify_exception(std::current_exception(), message);
    return encode_error(fixed.id, code, message);
  }
}

void NetServer::writer_loop(Connection& conn) {
  std::vector<Pending> batch;
  std::vector<std::uint8_t> out;   // encoded frames not yet sent
  std::uint64_t held_frames = 0;   // frames in out
  std::uint64_t held_answers = 0;  // of those, the ones answering a future
  // One send for everything held. write_failed is writer-private state; no
  // lock — and no lock held across the (potentially blocking) send.
  const auto flush = [&] {
    if (held_frames == 0) {
      return;
    }
    if (!conn.write_failed && conn.socket.send_all(out.data(), out.size())) {
      responses_written_.add(held_answers);
    } else {
      if (!conn.write_failed) {
        conn.write_failed = true;
        // Wake the reader: a peer that cannot receive responses will
        // not be served further.
        conn.socket.shutdown_receive();
      }
      write_failures_.add(held_answers);
    }
    out.clear();
    held_frames = 0;
    held_answers = 0;
  };
  for (;;) {
    {
      std::unique_lock<std::mutex> lock{conn.mutex};
      conn.cv.wait(lock,
                   [&] { return !conn.pending.empty() || conn.reader_done; });
      if (conn.pending.empty()) {
        break;
      }
      batch.swap(conn.pending);
    }
    for (Pending& pending : batch) {
      if (!ready(pending)) {
        flush();  // a finished response never waits behind this one
      }
      const std::vector<std::uint8_t> frame = encode_response(pending);
      out.insert(out.end(), frame.begin(), frame.end());
      ++held_frames;
      held_answers += std::holds_alternative<PendingError>(pending) ? 0 : 1;
      if (out.size() >= kMaxHeldBytes) {
        flush();
      }
    }
    batch.clear();
    flush();
  }
  conn.live_threads.fetch_sub(1, std::memory_order_acq_rel);
}

}  // namespace nacu::net
