#include "net/client.hpp"

#include <stdexcept>
#include <utility>

namespace nacu::net {

Client::Client(std::uint16_t port) : socket_{connect_loopback(port)} {
  if (!socket_.valid()) {
    return;
  }
  const FrameReader::Frame hello = reader_.next(socket_);
  if (hello.status != FrameReader::Status::kFrame) {
    return;
  }
  ByteReader r{hello.payload};
  const auto opcode = r.u8();
  const auto version = r.u8();
  const auto ib = r.u8();
  const auto fb = r.u8();
  if (!opcode || static_cast<Opcode>(*opcode) != Opcode::kHello || !version ||
      *version != kProtocolVersion || !ib || !fb) {
    return;
  }
  format_ = fp::Format{*ib, *fb};
  valid_ = true;
}

std::uint64_t Client::send(const std::vector<std::uint8_t>& frame) {
  // A frame past kMaxFrameBytes would break the stream for the server's
  // reader and lose every request after it: refuse it here instead.
  if (!valid_ || frame.size() > kLengthPrefixBytes + kMaxFrameBytes) {
    return 0;
  }
  const std::lock_guard<std::mutex> lock{held_mutex_};
  held_.insert(held_.end(), frame.begin(), frame.end());
  // Hold only while the next read_response will not wait in recv: it
  // sends the held frames before it does.
  if ((!response_buffered_ || held_.size() >= kMaxHeldBytes) &&
      !flush_held()) {
    return 0;
  }
  return next_id_++;
}

bool Client::flush_held() {
  const bool sent =
      held_.empty() || socket_.send_all(held_.data(), held_.size());
  held_.clear();
  return sent;
}

void Client::close_send() {
  {
    const std::lock_guard<std::mutex> lock{held_mutex_};
    (void)flush_held();
  }
  socket_.shutdown_send();
}

std::uint64_t Client::send_submit(core::BatchNacu::Function function,
                                  std::span<const fp::Fixed> input,
                                  const WireSubmitOptions& options) {
  return send(encode_submit(next_id_, static_cast<std::uint8_t>(function),
                            input, options));
}

std::uint64_t Client::send_softmax(std::span<const fp::Fixed> logits,
                                   const WireSubmitOptions& options) {
  return send(encode_submit_softmax(next_id_, logits, options));
}

std::optional<Client::Response> Client::read_response() {
  if (!valid_) {
    return std::nullopt;
  }
  if (!reader_.ready()) {
    // About to wait in recv: the server must first see every held frame.
    const std::lock_guard<std::mutex> lock{held_mutex_};
    response_buffered_ = false;
    (void)flush_held();  // a failed send surfaces as EOF below
  }
  const FrameReader::Frame frame = reader_.next(socket_);
  {
    const std::lock_guard<std::mutex> lock{held_mutex_};
    response_buffered_ = reader_.ready();
  }
  if (frame.status != FrameReader::Status::kFrame) {
    return std::nullopt;
  }
  ByteReader r{frame.payload};
  const auto opcode = r.u8();
  const auto id = r.u64();
  if (!opcode || !id) {
    return std::nullopt;
  }
  Response response;
  response.id = *id;
  switch (static_cast<Opcode>(*opcode)) {
    case Opcode::kResultFixed: {
      std::optional<std::vector<fp::Fixed>> values = decode_raws(r, format_);
      if (!values) {
        return std::nullopt;
      }
      response.values = std::move(*values);
      return response;
    }
    case Opcode::kError: {
      const auto code = r.u8();
      const auto length = r.u16();
      const auto text = length ? r.bytes(*length) : std::nullopt;
      if (!code || !text) {
        return std::nullopt;
      }
      response.error = static_cast<ErrorCode>(*code);
      response.message.assign(text->begin(), text->end());
      return response;
    }
    default:
      return std::nullopt;
  }
}

std::vector<fp::Fixed> Client::call(core::BatchNacu::Function function,
                                    std::span<const fp::Fixed> input) {
  const std::uint64_t id = send_submit(function, input);
  if (id == 0) {
    throw std::runtime_error{"net: send failed"};
  }
  std::optional<Response> response = read_response();
  if (!response || response->id != id) {
    throw std::runtime_error{"net: connection closed mid-call"};
  }
  if (!response->ok()) {
    throw std::runtime_error{std::string{"net: "} +
                             error_code_name(response->error) + ": " +
                             response->message};
  }
  return std::move(response->values);
}

}  // namespace nacu::net
