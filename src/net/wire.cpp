#include "net/wire.hpp"

#include <algorithm>

namespace nacu::net {

const char* error_code_name(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kNone:
      return "none";
    case ErrorCode::kOverloaded:
      return "overloaded";
    case ErrorCode::kShutdown:
      return "shutdown";
    case ErrorCode::kDeadlineExpired:
      return "deadline-expired";
    case ErrorCode::kShardFailed:
      return "shard-failed";
    case ErrorCode::kBadRequest:
      return "bad-request";
    case ErrorCode::kInternal:
      return "internal";
  }
  return "unknown";
}

namespace {

/// A frame built in one buffer: its u32 length prefix is reserved up front
/// (@p payload_bytes is the capacity hint) and filled in by seal().
ByteWriter start_frame(std::size_t payload_bytes) {
  ByteWriter w;
  w.reserve(kLengthPrefixBytes + payload_bytes);
  (void)w.extend(kLengthPrefixBytes);
  return w;
}

std::vector<std::uint8_t> seal(ByteWriter& w) {
  std::vector<std::uint8_t> frame = w.take();
  const auto length =
      static_cast<std::uint32_t>(frame.size() - kLengthPrefixBytes);
  for (std::size_t i = 0; i < kLengthPrefixBytes; ++i) {
    frame[i] = static_cast<std::uint8_t>(length >> (8 * i));
  }
  return frame;
}

/// Head bytes before a body: opcode and request id.
constexpr std::size_t kHeadBytes = 1 + 8;
/// Bytes of the options block encode_submit_options writes.
constexpr std::size_t kOptionsBytes = 13;
/// Bytes of a raw body before its raws: element width and count.
constexpr std::size_t kRawBodyHeadBytes = 1 + 4;

void encode_request_head(ByteWriter& w, Opcode opcode, std::uint64_t id) {
  w.u8(static_cast<std::uint8_t>(opcode));
  w.u64(id);
}

std::int64_t raw_of(std::int64_t raw) { return raw; }
std::int64_t raw_of(const fp::Fixed& value) { return value.raw(); }

template <typename Raw, typename Value>
void put_raws_as(std::uint8_t* out, std::span<const Value> values) {
  for (const Value& value : values) {
    const auto raw = static_cast<Raw>(raw_of(value));
    std::memcpy(out, &raw, sizeof raw);
    out += sizeof raw;
  }
}

/// A frame whose payload is the @p head_bytes that @p head writes (opcode,
/// id, and for a submit its function and options), then the raw body of
/// @p values: int16 raws when every one fits, else int64.
template <typename Value, typename Head>
std::vector<std::uint8_t> raw_frame(std::size_t head_bytes, const Head& head,
                                    std::span<const Value> values) {
  bool narrow = true;
  for (const Value& value : values) {
    const std::int64_t raw = raw_of(value);
    narrow &= raw == static_cast<std::int16_t>(raw);
  }
  const std::uint8_t width = narrow ? kNarrowElementBytes : kWideElementBytes;
  ByteWriter w =
      start_frame(head_bytes + kRawBodyHeadBytes + values.size() * width);
  head(w);
  w.u8(width);
  w.u32(static_cast<std::uint32_t>(values.size()));
  std::uint8_t* out = w.extend(values.size() * width);
  if (narrow) {
    put_raws_as<std::int16_t>(out, values);
  } else {
    put_raws_as<std::int64_t>(out, values);
  }
  return seal(w);
}

template <typename Value>
std::vector<std::uint8_t> submit_frame(std::uint64_t id, std::uint8_t function,
                                       std::span<const Value> values,
                                       const WireSubmitOptions& options) {
  return raw_frame(
      kHeadBytes + 1 + kOptionsBytes,
      [&](ByteWriter& w) {
        encode_request_head(w, Opcode::kSubmit, id);
        w.u8(function);
        encode_submit_options(w, options);
      },
      values);
}

template <typename Value>
std::vector<std::uint8_t> softmax_frame(std::uint64_t id,
                                        std::span<const Value> values,
                                        const WireSubmitOptions& options) {
  return raw_frame(
      kHeadBytes + kOptionsBytes,
      [&](ByteWriter& w) {
        encode_request_head(w, Opcode::kSubmitSoftmax, id);
        encode_submit_options(w, options);
      },
      values);
}

template <typename Value>
std::vector<std::uint8_t> result_frame(std::uint64_t id,
                                       std::span<const Value> values) {
  return raw_frame(
      kHeadBytes,
      [&](ByteWriter& w) { encode_request_head(w, Opcode::kResultFixed, id); },
      values);
}

/// @p count raws of type Raw from @p in onto @p format, range-checked once.
template <typename Raw>
std::vector<fp::Fixed> decode_raws_as(const std::uint8_t* in,
                                      std::size_t count, fp::Format format) {
  std::vector<fp::Fixed> values(count, fp::Fixed::zero(format));
  // 0 lies on every format's grid, so it seeds the bounds safely.
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  for (fp::Fixed& value : values) {
    Raw raw{};
    std::memcpy(&raw, in, sizeof raw);
    in += sizeof raw;
    lo = std::min<std::int64_t>(lo, raw);
    hi = std::max<std::int64_t>(hi, raw);
    value = fp::Fixed::from_raw_unchecked(raw, format);
  }
  if (lo < format.min_raw() || hi > format.max_raw()) {
    // Throws the std::out_of_range that names the raw outside the format.
    (void)fp::Fixed::from_raw(lo < format.min_raw() ? lo : hi, format);
  }
  return values;
}

}  // namespace

std::vector<std::uint8_t> finish_frame(std::vector<std::uint8_t> payload) {
  ByteWriter w = start_frame(payload.size());
  w.raw(payload.data(), payload.size());
  return seal(w);
}

void encode_submit_options(ByteWriter& w, const WireSubmitOptions& options) {
  w.u8(options.deadline_ns.has_value() ? 1 : 0);
  w.u32(options.max_retries);
  w.i64(options.deadline_ns.value_or(0));
}

std::optional<WireSubmitOptions> decode_submit_options(ByteReader& r) {
  const auto flags = r.u8();
  const auto max_retries = r.u32();
  const auto deadline_ns = r.i64();
  if (!flags || !max_retries || !deadline_ns) {
    return std::nullopt;
  }
  WireSubmitOptions options;
  options.max_retries = *max_retries;
  if ((*flags & 1u) != 0) {
    options.deadline_ns = *deadline_ns;
  }
  return options;
}

std::vector<std::uint8_t> encode_hello(int integer_bits, int fractional_bits,
                                       std::uint8_t functions) {
  ByteWriter w = start_frame(5);
  w.u8(static_cast<std::uint8_t>(Opcode::kHello));
  w.u8(kProtocolVersion);
  w.u8(static_cast<std::uint8_t>(integer_bits));
  w.u8(static_cast<std::uint8_t>(fractional_bits));
  w.u8(functions);
  return seal(w);
}


std::vector<std::uint8_t> encode_submit(std::uint64_t id,
                                        std::uint8_t function,
                                        std::span<const std::int64_t> raws,
                                        const WireSubmitOptions& options) {
  return submit_frame(id, function, raws, options);
}

std::vector<std::uint8_t> encode_submit(std::uint64_t id,
                                        std::uint8_t function,
                                        std::span<const fp::Fixed> values,
                                        const WireSubmitOptions& options) {
  return submit_frame(id, function, values, options);
}

std::vector<std::uint8_t> encode_submit_softmax(
    std::uint64_t id, std::span<const std::int64_t> raws,
    const WireSubmitOptions& options) {
  return softmax_frame(id, raws, options);
}

std::vector<std::uint8_t> encode_submit_softmax(
    std::uint64_t id, std::span<const fp::Fixed> values,
    const WireSubmitOptions& options) {
  return softmax_frame(id, values, options);
}

std::vector<std::uint8_t> encode_result_fixed(
    std::uint64_t id, std::span<const std::int64_t> raws) {
  return result_frame(id, raws);
}

std::vector<std::uint8_t> encode_result_fixed(
    std::uint64_t id, std::span<const fp::Fixed> values) {
  return result_frame(id, values);
}

std::vector<std::uint8_t> encode_error(std::uint64_t id, ErrorCode code,
                                       std::string_view message) {
  // Clamp the diagnostic text to its u16 length field; codes carry the
  // semantics, the text is best-effort.
  const std::size_t n = std::min<std::size_t>(message.size(), 0xFFFF);
  ByteWriter w = start_frame(kHeadBytes + 1 + 2 + n);
  encode_request_head(w, Opcode::kError, id);
  w.u8(static_cast<std::uint8_t>(code));
  w.u16(static_cast<std::uint16_t>(n));
  w.raw(message.data(), n);
  return seal(w);
}

std::optional<std::vector<fp::Fixed>> decode_raws(ByteReader& r,
                                                  fp::Format format) {
  const auto width = r.u8();
  const auto count = r.u32();
  if (!width || !count ||
      (*width != kNarrowElementBytes && *width != kWideElementBytes) ||
      r.remaining() != std::size_t{*count} * *width) {
    return std::nullopt;
  }
  const std::uint8_t* in = r.bytes(r.remaining())->data();
  return *width == kNarrowElementBytes
             ? decode_raws_as<std::int16_t>(in, *count, format)
             : decode_raws_as<std::int64_t>(in, *count, format);
}

}  // namespace nacu::net
