// The NACU wire protocol: binary length-prefix framing over TCP.
//
// This is the vocabulary of the network edge (net/server.hpp accepts it,
// net/client.hpp speaks it, bench_e2e drives it): a byte-exact, versioned
// encoding of the serving layer's submit API (activation batches and
// softmax rows; every SubmitOptions field travels on the wire) plus typed
// error frames that map the admission exceptions (OverloadedError,
// DeadlineExpiredError, ShutdownError, ShardFailedError) onto stable
// one-byte codes a client can switch on without parsing message text.
//
// Frame layout (all integers little-endian):
//
//   ┌──────────────┬──────────────────────────────────────┐
//   │ u32 length   │ payload (length bytes)               │
//   └──────────────┴──────────────────────────────────────┘
//
// length counts the payload only, must be ≥ 1 (the opcode byte) and at
// most kMaxFrameBytes — a zero-length or oversized prefix means the byte
// stream can no longer be trusted and the connection is closed. Every
// payload starts with a one-byte opcode; every request and response
// payload follows it with the u64 request id that correlates streamed
// responses back to pipelined requests (responses stream back per
// connection in submission order; ids make the pairing explicit and
// survive protocol evolution toward out-of-order completion).
//
// Payloads:
//
//   Hello (server → client, once, immediately after accept):
//     u8  opcode = kHello
//     u8  protocol version (kProtocolVersion = 5: "nacu-wire v5")
//     u8  format integer bits   ┐ the server's datapath grid — raw
//     u8  format fractional bits┘ values on the wire live on it
//     u8  function count (how many Function values submits may carry)
//
//   Submit / SubmitSoftmax (client → server):
//     u8  opcode = kSubmit | kSubmitSoftmax
//     u64 request id
//     u8  function (kSubmit only; BatchNacu::Function index)
//     SubmitOptions block (below)
//     raw body (below)
//
//   Raw body (Submit, SubmitSoftmax and ResultFixed):
//     u8  element width: 2 (int16 raws) or 8 (int64 raws)
//     u32 element count
//     raw × count    fixed-point raws on the server's format grid, at
//                    the declared width, ending the payload
//     The encoder picks width 2 whenever every raw of the body fits an
//     int16 — always, on a datapath of at most 16 bits such as the
//     paper's Q4.11 — and width 8 otherwise. The decoder checks the width
//     and that count × width is exactly the rest of the payload, then
//     range-checks the raws against the format once per body. One
//     kMaxFrameBytes frame holds about 512 Ki elements at width 2 and
//     128 Ki at width 8.
//
//   SubmitOptions block (fixed 13 bytes, always present):
//     u8  flags (bit 0: deadline_ns is set)
//     u32 max retries
//     i64 deadline_ns — RELATIVE to server receipt. Absolute
//         steady_clock points are meaningless across processes; the
//         server resolves deadline = its own serving clock + deadline_ns
//         at the moment it parses the frame.
//
//   ResultFixed (server → client):
//     u8  opcode = kResultFixed
//     u64 request id
//     raw body (above)
//
//   Error (server → client):
//     u8  opcode = kError
//     u64 request id (0 when the failure has no parseable request)
//     u8  error code (ErrorCode)
//     u16 message length, then that many message bytes (diagnostic only;
//         clients switch on the code)
//
// Malformed-input contract (pinned by tests/test_net.cpp): a frame whose
// *stream framing* is broken — zero/oversized length prefix, or EOF mid
// frame — kills the connection (the stream cannot be resynchronised); a
// frame whose *payload* is broken but whose id parsed — unknown opcode,
// truncated body, element width other than 2 or 8, out-of-format raw
// value — is answered with a kBadRequest error frame and the connection
// keeps serving. Either way the server never crashes and never leaks a
// pending promise.
//
// Retired values are never reused: opcodes 0x03 and 0x21 (v3's
// hosted-model request and its f64 result, retired in v4) are unknown
// opcodes, answered kBadRequest like any other, and error codes 7 (v3's
// "no hosted model") and 3 (v4's tenant quota, retired in v5 with the
// options block's priority and tenant fields) are never sent.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "fixedpoint/fixed.hpp"

namespace nacu::net {

inline constexpr std::uint8_t kProtocolVersion = 5;
/// Hard per-frame payload bound: large enough for any realistic batch
/// (about 512 Ki elements at width 2, 128 Ki at width 8), small enough
/// that a corrupt length prefix cannot make the reader allocate unbounded
/// memory.
inline constexpr std::size_t kMaxFrameBytes = 1u << 20;
inline constexpr std::size_t kLengthPrefixBytes = 4;
/// The element widths a raw body may declare.
inline constexpr std::uint8_t kNarrowElementBytes = 2;  ///< int16 raws
inline constexpr std::uint8_t kWideElementBytes = 8;    ///< int64 raws

enum class Opcode : std::uint8_t {
  kSubmit = 0x01,         ///< element-wise activation batch
  kSubmitSoftmax = 0x02,  ///< one Eq. 13 softmax row
  kHello = 0x10,          ///< server → client greeting
  kResultFixed = 0x20,    ///< raw fixed-point result vector
  kError = 0x30,          ///< typed failure for one request
};

/// Stable wire codes for every way a request can fail. Codes 1, 2, 4 and
/// 5 map the serve:: exception types one-to-one; 6 and 8 are network-edge
/// failures that have no serving-layer equivalent (3 and 7 are retired).
enum class ErrorCode : std::uint8_t {
  kNone = 0,
  kOverloaded = 1,       ///< serve::OverloadedError
  kShutdown = 2,         ///< serve::ShutdownError
  kDeadlineExpired = 4,  ///< serve::DeadlineExpiredError
  kShardFailed = 5,      ///< serve::ShardFailedError
  kBadRequest = 6,       ///< malformed payload / value outside the format
  kInternal = 8,         ///< anything else (exception text in the message)
};

[[nodiscard]] const char* error_code_name(ErrorCode code) noexcept;

/// SubmitOptions as they travel: the deadline is relative (nanoseconds
/// from server receipt, < 0 meaning "already expired"), everything else
/// verbatim.
struct WireSubmitOptions {
  std::uint32_t max_retries = 0;
  std::optional<std::int64_t> deadline_ns;  ///< relative to server receipt
};

// -- byte-level encode/decode ------------------------------------------------

/// Append-only little-endian byte writer.
class ByteWriter {
 public:
  void reserve(std::size_t n) { bytes_.reserve(n); }
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u16(std::uint16_t v) { append(&v, 2); }
  void u32(std::uint32_t v) { append(&v, 4); }
  void u64(std::uint64_t v) { append(&v, 8); }
  void i64(std::int64_t v) { append(&v, 8); }
  void raw(const void* data, std::size_t n) { append(data, n); }
  /// Grow by @p n bytes and return where they start, for a caller that
  /// fills them in one loop.
  [[nodiscard]] std::uint8_t* extend(std::size_t n) {
    const std::size_t at = bytes_.size();
    bytes_.resize(at + n);
    return bytes_.data() + at;
  }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept {
    return bytes_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  void append(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    bytes_.insert(bytes_.end(), p, p + n);
  }
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked little-endian reader over one received payload. Every
/// accessor returns nullopt past the end instead of reading out of
/// bounds — a truncated body parses to nullopt, never UB.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_{bytes} {}

  [[nodiscard]] std::optional<std::uint8_t> u8() {
    if (pos_ + 1 > bytes_.size()) {
      return std::nullopt;
    }
    return bytes_[pos_++];
  }
  [[nodiscard]] std::optional<std::uint16_t> u16() {
    return fixed<std::uint16_t>();
  }
  [[nodiscard]] std::optional<std::uint32_t> u32() {
    return fixed<std::uint32_t>();
  }
  [[nodiscard]] std::optional<std::uint64_t> u64() {
    return fixed<std::uint64_t>();
  }
  [[nodiscard]] std::optional<std::int64_t> i64() {
    return fixed<std::int64_t>();
  }
  /// The next @p n bytes, in place.
  [[nodiscard]] std::optional<std::span<const std::uint8_t>> bytes(
      std::size_t n) {
    if (n > remaining()) {
      return std::nullopt;
    }
    const std::span<const std::uint8_t> view = bytes_.subspan(pos_, n);
    pos_ += n;
    return view;
  }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - pos_;
  }
  [[nodiscard]] bool exhausted() const noexcept { return remaining() == 0; }

 private:
  template <typename T>
  [[nodiscard]] std::optional<T> fixed() {
    if (pos_ + sizeof(T) > bytes_.size()) {
      return std::nullopt;
    }
    T v{};
    std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

// -- frame builders (payload + length prefix in one buffer) ------------------

/// Wrap a hand-built @p payload in its u32 length prefix, ready for one
/// send call. The encode_* functions below build whole frames themselves.
[[nodiscard]] std::vector<std::uint8_t> finish_frame(
    std::vector<std::uint8_t> payload);

void encode_submit_options(ByteWriter& w, const WireSubmitOptions& options);
[[nodiscard]] std::optional<WireSubmitOptions> decode_submit_options(
    ByteReader& r);

[[nodiscard]] std::vector<std::uint8_t> encode_hello(int integer_bits,
                                                     int fractional_bits,
                                                     std::uint8_t functions);
// The raw-body encoders take raws as int64 or as fp::Fixed values; both
// emit the same bytes for the same raws.
[[nodiscard]] std::vector<std::uint8_t> encode_submit(
    std::uint64_t id, std::uint8_t function,
    std::span<const std::int64_t> raws, const WireSubmitOptions& options);
[[nodiscard]] std::vector<std::uint8_t> encode_submit(
    std::uint64_t id, std::uint8_t function,
    std::span<const fp::Fixed> values, const WireSubmitOptions& options);
[[nodiscard]] std::vector<std::uint8_t> encode_submit_softmax(
    std::uint64_t id, std::span<const std::int64_t> raws,
    const WireSubmitOptions& options);
[[nodiscard]] std::vector<std::uint8_t> encode_submit_softmax(
    std::uint64_t id, std::span<const fp::Fixed> values,
    const WireSubmitOptions& options);
[[nodiscard]] std::vector<std::uint8_t> encode_result_fixed(
    std::uint64_t id, std::span<const std::int64_t> raws);
[[nodiscard]] std::vector<std::uint8_t> encode_result_fixed(
    std::uint64_t id, std::span<const fp::Fixed> values);
[[nodiscard]] std::vector<std::uint8_t> encode_error(std::uint64_t id,
                                                     ErrorCode code,
                                                     std::string_view message);

/// Read the raw body that ends a Submit, SubmitSoftmax or ResultFixed
/// payload onto @p format's grid. nullopt when the element width is not 2
/// or 8, or the count disagrees with the bytes left; throws
/// std::out_of_range when a raw lies outside @p format.
[[nodiscard]] std::optional<std::vector<fp::Fixed>> decode_raws(
    ByteReader& r, fp::Format format);

}  // namespace nacu::net
