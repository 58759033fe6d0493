// Network-edge coverage: the wire protocol, the TCP front-end, and the
// graceful-drain contract.
//
// Three claims pinned here:
//  * transport transparency — results served over TCP are bit-identical
//    to direct core::BatchNacu evaluation (the serving layer's central
//    claim extended one more layer out), for activations and softmax
//    rows, the only requests nacu-wire carries, including pipelined and
//    multi-connection traffic, many frames in one write, frames larger
//    than the reader's starting buffer, a Client that holds sends while
//    responses sit unread, and one Client shared by a sender and a reader
//    thread;
//  * robustness — a hostile or broken byte stream (torn 1-byte writes,
//    zero-length and oversized frames, garbage and retired opcodes, a v4
//    options block, truncated payloads, out-of-format raws, a client
//    vanishing mid-request) never crashes the server and never leaks a pending
//    promise: framing-level damage closes that one connection,
//    payload-level damage is answered with a typed kBadRequest frame on a
//    connection that keeps serving, and in every case the server still
//    accepts fresh connections and the inference layer's accepted ==
//    completed invariant holds;
//  * graceful drain — shutdown() under live multi-connection load
//    answers every request that reached the inference layer on the wire
//    before closing (stats().requests_submitted == responses_written),
//    which is the closed-loop gate bench_e2e enforces end-to-end;
//  * one set of books — stats() and counters() are snapshots of each
//    server's own registry, so two stacks in one process never mix counts;
//  * hostile payloads — a seeded mutation fuzzer pipelines byte-flipped,
//    truncated and extended Submit and SubmitSoftmax frames and every one
//    is answered, in order, on a connection that survives;
//  * nacu-wire v2 raw bodies — a Q4.11 element costs 2 wire bytes, one
//    raw outside int16 widens its body to 8, both widths decode to the
//    same raws, every cut point decodes as a bad length, an unknown width
//    is kBadRequest, and a frame past kMaxFrameBytes is refused by the
//    Client rather than sent.
// This binary runs under the CI e2e-smoke job (ASan/UBSan and TSan).
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/batch_nacu.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "nn/rng.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"

namespace nacu::net {
namespace {

using core::BatchNacu;
using core::NacuConfig;
using core::config_for_bits;
using Function = BatchNacu::Function;

std::vector<fp::Fixed> random_batch(nn::Rng& rng, const fp::Format& fmt,
                                    std::size_t n) {
  std::vector<fp::Fixed> batch;
  batch.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto raw = static_cast<std::int64_t>(rng.below(
                         static_cast<std::uint64_t>(fmt.max_raw() -
                                                    fmt.min_raw() + 1))) +
                     fmt.min_raw();
    batch.push_back(fp::Fixed::from_raw(raw, fmt));
  }
  return batch;
}

void expect_bit_equal(const std::vector<fp::Fixed>& got,
                      const std::vector<fp::Fixed>& want,
                      const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].raw(), want[i].raw()) << context << " element " << i;
  }
}

bool bit_equal(const std::vector<fp::Fixed>& got,
               const std::vector<fp::Fixed>& want) {
  return std::equal(got.begin(), got.end(), want.begin(), want.end(),
                    [](const fp::Fixed& a, const fp::Fixed& b) {
                      return a.raw() == b.raw();
                    });
}

std::vector<std::int64_t> raws_of(const std::vector<fp::Fixed>& values) {
  std::vector<std::int64_t> raws;
  for (const fp::Fixed& v : values) {
    raws.push_back(v.raw());
  }
  return raws;
}

/// Whether @p json, a Registry::to_json dump, holds counter @p name at
/// exactly @p value.
bool has_count(const std::string& json, const std::string& name,
               std::uint64_t value) {
  const std::string entry = "\"" + name + "\": " + std::to_string(value);
  const std::size_t at = json.find(entry);
  return at != std::string::npos &&
         (json[at + entry.size()] == ',' || json[at + entry.size()] == '\n');
}

/// Bound every blocking read on @p client, so a pipeline that stalls fails
/// the test instead of hanging it.
void set_receive_timeout(Client& client, std::chrono::seconds timeout) {
  timeval tv{};
  tv.tv_sec = static_cast<decltype(tv.tv_sec)>(timeout.count());
  ASSERT_EQ(::setsockopt(client.socket().fd(), SOL_SOCKET, SO_RCVTIMEO, &tv,
                         sizeof tv),
            0);
}

// -- wire encode/decode unit coverage ---------------------------------------

TEST(Wire, SubmitOptionsRoundTripEveryField) {
  WireSubmitOptions options;
  options.max_retries = 7;
  options.deadline_ns = -123456789;  // "already expired" is representable

  ByteWriter w;
  encode_submit_options(w, options);
  const std::vector<std::uint8_t> bytes = w.bytes();
  // v5: u8 flags, u32 max_retries, i64 deadline_ns.
  EXPECT_EQ(bytes.size(), 13u);
  ByteReader r{std::span<const std::uint8_t>{bytes}};
  const auto decoded = decode_submit_options(r);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->max_retries, options.max_retries);
  ASSERT_TRUE(decoded->deadline_ns.has_value());
  EXPECT_EQ(*decoded->deadline_ns, *options.deadline_ns);
  EXPECT_TRUE(r.exhausted());

  // No deadline → flag bit clear → decodes back to nullopt.
  ByteWriter w2;
  encode_submit_options(w2, WireSubmitOptions{});
  const std::vector<std::uint8_t> bytes2 = w2.bytes();
  ByteReader r2{std::span<const std::uint8_t>{bytes2}};
  const auto plain = decode_submit_options(r2);
  ASSERT_TRUE(plain.has_value());
  EXPECT_FALSE(plain->deadline_ns.has_value());
}

TEST(Wire, TruncatedOptionsDecodeToNulloptAtEveryCutPoint) {
  ByteWriter w;
  encode_submit_options(w, WireSubmitOptions{});
  const std::vector<std::uint8_t> full = w.bytes();
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    ByteReader r{std::span<const std::uint8_t>{full.data(), cut}};
    EXPECT_FALSE(decode_submit_options(r).has_value()) << "cut at " << cut;
  }
}

TEST(Wire, FramePrefixIsLittleEndianPayloadLength) {
  ByteWriter w;
  w.u8(0x42);
  w.u64(7);
  const std::vector<std::uint8_t> frame = finish_frame(w.take());
  ASSERT_EQ(frame.size(), kLengthPrefixBytes + 9);
  EXPECT_EQ(frame[0], 9);
  EXPECT_EQ(frame[1], 0);
  EXPECT_EQ(frame[2], 0);
  EXPECT_EQ(frame[3], 0);
  EXPECT_EQ(frame[4], 0x42);
}

// -- nacu-wire v2 raw bodies -------------------------------------------------

/// Bytes of a Submit frame besides its raws: length prefix, opcode, id,
/// function, the 13-byte options block, element width and count.
constexpr std::size_t kSubmitFrameBytes = 4 + 1 + 8 + 1 + 13 + 1 + 4;
/// The same for SubmitSoftmax, which carries no function byte.
constexpr std::size_t kSoftmaxFrameBytes = kSubmitFrameBytes - 1;

/// The payload bytes after the opcode and request id of @p frame, a
/// ResultFixed frame: its raw body.
std::vector<std::uint8_t> result_body(const std::vector<std::uint8_t>& frame) {
  return {frame.begin() + kLengthPrefixBytes + 1 + 8, frame.end()};
}

std::vector<std::int64_t> raws_decoded(std::span<const std::uint8_t> body,
                                       const fp::Format& format) {
  ByteReader r{body};
  const auto values = decode_raws(r, format);
  EXPECT_TRUE(values.has_value());
  EXPECT_TRUE(r.exhausted());
  return values ? raws_of(*values) : std::vector<std::int64_t>{};
}

TEST(Wire, Q411BodiesCostTwoBytesPerElement) {
  const fp::Format q4_11{4, 11};
  nn::Rng rng{61};
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                              std::size_t{1024}}) {
    std::vector<std::int64_t> raws = raws_of(random_batch(rng, q4_11, n));
    if (n >= 2) {
      raws[0] = q4_11.min_raw();
      raws[1] = q4_11.max_raw();
    }
    EXPECT_EQ(encode_submit(1, 0, raws, {}).size(), kSubmitFrameBytes + 2 * n)
        << n;
    EXPECT_EQ(encode_submit_softmax(1, raws, {}).size(),
              kSoftmaxFrameBytes + 2 * n)
        << n;
    EXPECT_EQ(encode_result_fixed(1, raws).size(), 18 + 2 * n) << n;
  }
}

TEST(Wire, OneRawOutsideInt16WidensTheWholeBody) {
  for (const std::int64_t outside : {std::int64_t{32768}, std::int64_t{-32769},
                                     std::int64_t{1} << 40}) {
    std::vector<std::int64_t> raws(9, -5);
    raws[4] = outside;
    const std::vector<std::uint8_t> result = encode_result_fixed(1, raws);
    EXPECT_EQ(result.size(), 18 + 8 * raws.size()) << outside;
    EXPECT_EQ(result[kLengthPrefixBytes + 9], kWideElementBytes) << outside;
    EXPECT_EQ(encode_submit(1, 0, raws, {}).size(),
              kSubmitFrameBytes + 8 * raws.size());
    EXPECT_EQ(encode_submit_softmax(1, raws, {}).size(),
              kSoftmaxFrameBytes + 8 * raws.size());
  }
}

TEST(Wire, Int64AndFixedEncodersEmitIdenticalBytes) {
  const fp::Format wide = config_for_bits(20).format;
  nn::Rng rng{67};
  WireSubmitOptions options;
  options.deadline_ns = 12345;
  for (const fp::Format& format : {fp::Format{4, 11}, wide}) {
    const std::vector<fp::Fixed> values = random_batch(rng, format, 300);
    const std::vector<std::int64_t> raws = raws_of(values);
    EXPECT_EQ(encode_submit(7, 2, raws, options),
              encode_submit(7, 2, values, options));
    EXPECT_EQ(encode_submit_softmax(8, raws, options),
              encode_submit_softmax(8, values, options));
    EXPECT_EQ(encode_result_fixed(9, raws), encode_result_fixed(9, values));
  }
}

TEST(Wire, BothWidthsDecodeBackToTheSameRaws) {
  nn::Rng rng{71};
  for (const fp::Format& format :
       {fp::Format{4, 11}, config_for_bits(20).format}) {
    const std::vector<std::int64_t> raws =
        raws_of(random_batch(rng, format, 500));
    const std::vector<std::uint8_t> body =
        result_body(encode_result_fixed(1, raws));
    EXPECT_EQ(body[0], format.width() <= 16 ? kNarrowElementBytes
                                            : kWideElementBytes);
    EXPECT_EQ(raws_decoded(body, format), raws) << format.to_string();
  }
}

TEST(Wire, EveryCutOfANarrowBodyDecodesAsABadLength) {
  const fp::Format q4_11{4, 11};
  nn::Rng rng{73};
  const std::vector<std::uint8_t> body = result_body(
      encode_result_fixed(1, raws_of(random_batch(rng, q4_11, 16))));
  for (std::size_t cut = 0; cut < body.size(); ++cut) {
    // A copy of exactly the cut bytes, so reading past it is an ASan
    // finding rather than a read of the rest of the body.
    const std::vector<std::uint8_t> part(body.begin(), body.begin() + cut);
    ByteReader r{part};
    EXPECT_FALSE(decode_raws(r, q4_11).has_value()) << "cut at " << cut;
  }
  std::vector<std::uint8_t> longer = body;
  longer.push_back(0);
  ByteReader r{longer};
  EXPECT_FALSE(decode_raws(r, q4_11).has_value());
}

TEST(Wire, ARawOutsideTheFormatThrowsOutOfRange) {
  const fp::Format q3_8{3, 8};  // 12 bits: raws in [-2048, 2047]
  for (const std::int64_t outside : {std::int64_t{2048}, std::int64_t{-2049},
                                     std::int64_t{1} << 40}) {
    const std::vector<std::int64_t> raws{0, outside, 5};
    const std::vector<std::uint8_t> body =
        result_body(encode_result_fixed(1, raws));
    ByteReader r{body};
    EXPECT_THROW((void)decode_raws(r, q3_8), std::out_of_range) << outside;
  }
}

// -- fixture: one inference server + one net server -------------------------

struct NetFixture {
  explicit NetFixture(serve::ServerOptions serve_options = {},
                      NetServerOptions net_options = {})
      : config{config_for_bits(16)},
        inference{config, std::move(serve_options)},
        server{inference, net_options} {}

  NacuConfig config;
  serve::InferenceServer inference;
  NetServer server;
};

TEST(Net, HelloAdvertisesTheDatapathFormat) {
  NetFixture fx;
  ASSERT_TRUE(fx.server.running());
  Client client{fx.server.port()};
  ASSERT_TRUE(client.valid());
  EXPECT_EQ(client.format().integer_bits(), fx.config.format.integer_bits());
  EXPECT_EQ(client.format().fractional_bits(),
            fx.config.format.fractional_bits());
}

TEST(Net, ActivationsOverTcpAreBitIdenticalToDirectEvaluation) {
  serve::ServerOptions options;
  options.shards = 2;
  options.batcher.max_batch = 16;
  NetFixture fx{options};
  const BatchNacu direct{fx.config};
  Client client{fx.server.port()};
  ASSERT_TRUE(client.valid());

  nn::Rng rng{99};
  for (const Function f : {Function::Sigmoid, Function::Tanh, Function::Exp}) {
    // 64 Ki elements is a frame far larger than the reader's starting
    // buffer.
    for (const std::size_t n : {std::size_t{1}, std::size_t{7},
                                std::size_t{64}, std::size_t{1} << 16}) {
      const std::vector<fp::Fixed> input =
          random_batch(rng, fx.config.format, n);
      expect_bit_equal(client.call(f, input), direct.evaluate(f, input),
                       "f=" + std::to_string(static_cast<int>(f)) +
                           " n=" + std::to_string(n));
    }
  }
}

TEST(Net, PipelinedRequestsStreamBackInSubmissionOrder) {
  NetFixture fx;
  const BatchNacu direct{fx.config};
  Client client{fx.server.port()};
  ASSERT_TRUE(client.valid());

  nn::Rng rng{7};
  constexpr std::size_t kInFlight = 50;
  constexpr std::size_t kOneWrite = 64;
  std::vector<std::vector<fp::Fixed>> inputs;
  std::vector<std::uint64_t> ids;
  // One send_submit call per request…
  for (std::size_t i = 0; i < kInFlight; ++i) {
    inputs.push_back(random_batch(rng, fx.config.format, 1 + i % 9));
    const std::uint64_t id = client.send_submit(Function::Sigmoid, inputs[i]);
    ASSERT_NE(id, 0u);
    ids.push_back(id);
  }
  // …then 64 frames concatenated into one write, which the server's reader
  // parses out of one buffer.
  std::vector<std::uint8_t> burst;
  for (std::size_t i = 0; i < kOneWrite; ++i) {
    inputs.push_back(random_batch(rng, fx.config.format, 1 + i % 9));
    ids.push_back(1000 + i);
    const std::vector<std::uint8_t> frame =
        encode_submit(ids.back(), static_cast<std::uint8_t>(Function::Sigmoid),
                      raws_of(inputs.back()), {});
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  ASSERT_TRUE(client.socket().send_all(burst.data(), burst.size()));
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto response = client.read_response();
    ASSERT_TRUE(response.has_value()) << "response " << i;
    EXPECT_EQ(response->id, ids[i]) << "submission order broken at " << i;
    ASSERT_TRUE(response->ok());
    expect_bit_equal(response->values,
                     direct.evaluate(Function::Sigmoid, inputs[i]),
                     "pipelined " + std::to_string(i));
  }
  EXPECT_EQ(fx.server.stats().frames_read, kInFlight + kOneWrite);
}

TEST(Net, SoftmaxOverTcpMatchesDirectRows) {
  NetFixture fx;
  const BatchNacu direct{fx.config};
  Client client{fx.server.port()};
  ASSERT_TRUE(client.valid());

  nn::Rng rng{23};
  for (int row = 0; row < 12; ++row) {
    std::vector<fp::Fixed> logits;
    const std::size_t n = 1 + rng.below(10);
    for (std::size_t i = 0; i < n; ++i) {
      logits.push_back(
          fp::Fixed::from_double(rng.uniform(-6.0, 6.0), fx.config.format));
    }
    const std::uint64_t id = client.send_softmax(logits);
    ASSERT_NE(id, 0u);
    const auto response = client.read_response();
    ASSERT_TRUE(response.has_value());
    ASSERT_TRUE(response->ok()) << response->message;
    expect_bit_equal(response->values, direct.softmax(logits),
                     "softmax row " + std::to_string(row));
  }
}

// -- typed error frames ------------------------------------------------------

TEST(Net, ExpiredDeadlineComesBackAsTypedErrorFrame) {
  NetFixture fx;
  Client client{fx.server.port()};
  ASSERT_TRUE(client.valid());
  WireSubmitOptions options;
  options.deadline_ns = -1;  // expired before the server even parses it
  const std::vector<fp::Fixed> input{fp::Fixed::zero(client.format())};
  ASSERT_NE(client.send_submit(Function::Sigmoid, input, options), 0u);
  const auto response = client.read_response();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->error, ErrorCode::kDeadlineExpired);
}

TEST(Net, FarFutureDeadlineMeansNoPracticalDeadline) {
  NetFixture fx;
  const BatchNacu direct{fx.config};
  Client client{fx.server.port()};
  ASSERT_TRUE(client.valid());
  nn::Rng rng{13};
  const std::vector<fp::Fixed> input = random_batch(rng, fx.config.format, 8);
  WireSubmitOptions options;
  options.deadline_ns = std::numeric_limits<std::int64_t>::max();
  ASSERT_NE(client.send_submit(Function::Tanh, input, options), 0u);
  const auto response = client.read_response();
  ASSERT_TRUE(response.has_value());
  ASSERT_TRUE(response->ok()) << response->message;
  expect_bit_equal(response->values, direct.evaluate(Function::Tanh, input),
                   "far-future deadline");
}

TEST(Net, SubmitAfterShutdownComesBackAsShutdownError) {
  NetFixture fx;
  Client client{fx.server.port()};
  ASSERT_TRUE(client.valid());
  fx.inference.shutdown();  // serving layer down, net edge still reading
  const std::vector<fp::Fixed> input{fp::Fixed::zero(client.format())};
  ASSERT_NE(client.send_submit(Function::Sigmoid, input), 0u);
  const auto response = client.read_response();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->error, ErrorCode::kShutdown);
}

// -- framing robustness ------------------------------------------------------

TEST(Net, TornOneByteWritesStillParseIntoOneRequest) {
  NetFixture fx;
  const BatchNacu direct{fx.config};
  Client client{fx.server.port()};
  ASSERT_TRUE(client.valid());

  nn::Rng rng{5};
  const std::vector<fp::Fixed> input = random_batch(rng, fx.config.format, 9);
  const std::vector<std::uint8_t> frame = encode_submit(
      1, static_cast<std::uint8_t>(Function::Tanh), raws_of(input), {});
  for (const std::uint8_t byte : frame) {
    ASSERT_TRUE(client.socket().send_all(&byte, 1));
    std::this_thread::sleep_for(std::chrono::microseconds{200});
  }
  const auto response = client.read_response();
  ASSERT_TRUE(response.has_value());
  ASSERT_TRUE(response->ok()) << response->message;
  EXPECT_EQ(response->id, 1u);
  expect_bit_equal(response->values, direct.evaluate(Function::Tanh, input),
                   "torn write");
}

TEST(Net, ZeroLengthFrameClosesTheConnectionButNotTheServer) {
  NetFixture fx;
  const BatchNacu direct{fx.config};
  Client victim{fx.server.port()};
  ASSERT_TRUE(victim.valid());
  // Three good frames and a zero length prefix in one write, so the reader
  // meets the broken prefix in the same buffer as the frames before it.
  nn::Rng rng{11};
  std::vector<std::vector<fp::Fixed>> inputs;
  std::vector<std::uint8_t> bytes;
  for (std::uint64_t id = 1; id <= 3; ++id) {
    inputs.push_back(random_batch(rng, fx.config.format, 5));
    const std::vector<std::uint8_t> frame = encode_submit(
        id, static_cast<std::uint8_t>(Function::Tanh), raws_of(inputs.back()),
        {});
    bytes.insert(bytes.end(), frame.begin(), frame.end());
  }
  bytes.insert(bytes.end(), kLengthPrefixBytes, 0);
  ASSERT_TRUE(victim.socket().send_all(bytes.data(), bytes.size()));
  // The frames before the broken prefix are answered…
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const auto response = victim.read_response();
    ASSERT_TRUE(response.has_value()) << "response " << i;
    EXPECT_EQ(response->id, i + 1);
    expect_bit_equal(response->values,
                     direct.evaluate(Function::Tanh, inputs[i]),
                     "before the zero prefix " + std::to_string(i));
  }
  // …then the server kills this connection (unrecoverable framing)…
  EXPECT_FALSE(victim.read_response().has_value());
  EXPECT_EQ(fx.server.stats().protocol_errors, 1u);
  // …and keeps serving fresh ones.
  Client fresh{fx.server.port()};
  ASSERT_TRUE(fresh.valid());
  const std::vector<fp::Fixed> input{fp::Fixed::zero(fresh.format())};
  EXPECT_NO_THROW((void)fresh.call(Function::Sigmoid, input));
  EXPECT_EQ(fx.server.stats().protocol_errors, 1u);
}

TEST(Net, OversizedLengthPrefixClosesTheConnectionButNotTheServer) {
  NetFixture fx;
  Client victim{fx.server.port()};
  ASSERT_TRUE(victim.valid());
  // length = kMaxFrameBytes + 1, little-endian.
  const std::uint32_t length = static_cast<std::uint32_t>(kMaxFrameBytes + 1);
  std::uint8_t prefix[4];
  for (int i = 0; i < 4; ++i) {
    prefix[i] = static_cast<std::uint8_t>(length >> (8 * i));
  }
  ASSERT_TRUE(victim.socket().send_all(prefix, sizeof prefix));
  EXPECT_FALSE(victim.read_response().has_value());
  Client fresh{fx.server.port()};
  ASSERT_TRUE(fresh.valid());
  const std::vector<fp::Fixed> input{fp::Fixed::zero(fresh.format())};
  EXPECT_NO_THROW((void)fresh.call(Function::Sigmoid, input));
  EXPECT_GE(fx.server.stats().protocol_errors, 1u);
}

TEST(Net, GarbageOpcodeGetsBadRequestAndTheConnectionKeepsServing) {
  NetFixture fx;
  Client client{fx.server.port()};
  ASSERT_TRUE(client.valid());
  // A well-framed payload with a nonsense opcode and a parseable id.
  ByteWriter garbage;
  garbage.u8(0x7F);
  garbage.u64(42);
  // A well-formed v3 SubmitMlp payload: two f64 model inputs. Opcode 0x03
  // is retired in v4 and is answered like any unknown opcode.
  ByteWriter retired;
  retired.u8(0x03);
  retired.u64(43);
  encode_submit_options(retired, {});
  retired.u32(2);
  retired.u64(std::bit_cast<std::uint64_t>(0.5));
  retired.u64(std::bit_cast<std::uint64_t>(-0.25));
  for (auto [writer, id] : {std::pair{&garbage, std::uint64_t{42}},
                            std::pair{&retired, std::uint64_t{43}}}) {
    const std::vector<std::uint8_t> frame = finish_frame(writer->take());
    ASSERT_TRUE(client.socket().send_all(frame.data(), frame.size()));
    const auto response = client.read_response();
    ASSERT_TRUE(response.has_value()) << "id " << id;
    EXPECT_EQ(response->id, id);
    EXPECT_EQ(response->error, ErrorCode::kBadRequest) << "id " << id;
  }
  // Same connection, next request: still served.
  const std::vector<fp::Fixed> input{fp::Fixed::zero(client.format())};
  EXPECT_NO_THROW((void)client.call(Function::Sigmoid, input));
}

TEST(Net, V4OptionsBlockGetsBadRequestAndTheConnectionKeepsServing) {
  NetFixture fx;
  Client client{fx.server.port()};
  ASSERT_TRUE(client.valid());
  // A Submit as a v4 client builds it, every option at its default: the
  // 22-byte options block (u8 priority = Normal, u8 flags, u64 tenant,
  // u32 max_retries, i64 deadline_ns) that v5 cut to 13 bytes, then one
  // narrow raw.
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(Opcode::kSubmit));
  w.u64(77);
  w.u8(static_cast<std::uint8_t>(Function::Sigmoid));
  w.u8(1);   // priority
  w.u8(0);   // flags
  w.u64(0);  // tenant
  w.u32(0);  // max_retries
  w.i64(0);  // deadline_ns
  w.u8(kNarrowElementBytes);
  w.u32(1);
  w.u16(0);
  const std::vector<std::uint8_t> frame = finish_frame(w.take());
  ASSERT_TRUE(client.socket().send_all(frame.data(), frame.size()));
  const auto response = client.read_response();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->id, 77u);
  EXPECT_EQ(response->error, ErrorCode::kBadRequest) << response->message;
  // Same connection, next request: still served.
  const std::vector<fp::Fixed> input{fp::Fixed::zero(client.format())};
  EXPECT_NO_THROW((void)client.call(Function::Sigmoid, input));
  EXPECT_EQ(fx.server.stats().immediate_errors, 1u);
  EXPECT_EQ(fx.server.stats().protocol_errors, 0u);
}

TEST(Net, TruncatedBodyAndBadValuesGetBadRequestNotACrash) {
  NetFixture fx;
  Client client{fx.server.port()};
  ASSERT_TRUE(client.valid());

  // Truncated: submit frame cut after the options block (no count).
  {
    ByteWriter w;
    w.u8(static_cast<std::uint8_t>(Opcode::kSubmit));
    w.u64(1);
    w.u8(0);  // function
    encode_submit_options(w, {});
    const std::vector<std::uint8_t> frame = finish_frame(w.take());
    ASSERT_TRUE(client.socket().send_all(frame.data(), frame.size()));
    const auto response = client.read_response();
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->error, ErrorCode::kBadRequest);
  }
  // Count that disagrees with the frame length.
  {
    ByteWriter w;
    w.u8(static_cast<std::uint8_t>(Opcode::kSubmit));
    w.u64(2);
    w.u8(0);
    encode_submit_options(w, {});
    w.u8(kWideElementBytes);
    w.u32(100);  // promises 100 elements, delivers 1
    w.i64(0);
    const std::vector<std::uint8_t> frame = finish_frame(w.take());
    ASSERT_TRUE(client.socket().send_all(frame.data(), frame.size()));
    const auto response = client.read_response();
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->error, ErrorCode::kBadRequest);
  }
  // A raw value outside the datapath format.
  {
    const std::vector<std::int64_t> raws{
        fx.config.format.max_raw() + 1};
    const std::vector<std::uint8_t> frame =
        encode_submit(3, 0, raws, {});
    ASSERT_TRUE(client.socket().send_all(frame.data(), frame.size()));
    const auto response = client.read_response();
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->error, ErrorCode::kBadRequest);
  }
  // Unknown function index.
  {
    const std::vector<std::int64_t> raws{0};
    const std::vector<std::uint8_t> frame =
        encode_submit(4, BatchNacu::kFunctionCount, raws, {});
    ASSERT_TRUE(client.socket().send_all(frame.data(), frame.size()));
    const auto response = client.read_response();
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->error, ErrorCode::kBadRequest);
  }
  // And the connection still serves after all four.
  const std::vector<fp::Fixed> input{fp::Fixed::zero(client.format())};
  EXPECT_NO_THROW((void)client.call(Function::Sigmoid, input));
}

TEST(Net, ElementWidthOtherThanTwoOrEightGetsBadRequest) {
  NetFixture fx;
  Client client{fx.server.port()};
  ASSERT_TRUE(client.valid());
  std::uint64_t id = 100;
  for (const std::uint8_t width : {0, 3, 255}) {
    // One element's worth of bytes at the declared width, so only the
    // width itself is wrong (a width of 0 even makes count × width match).
    ByteWriter w;
    w.u8(static_cast<std::uint8_t>(Opcode::kSubmit));
    w.u64(++id);
    w.u8(0);
    encode_submit_options(w, {});
    w.u8(width);
    w.u32(1);
    for (std::uint8_t i = 0; i < width; ++i) {
      w.u8(0);
    }
    const std::vector<std::uint8_t> frame = finish_frame(w.take());
    ASSERT_TRUE(client.socket().send_all(frame.data(), frame.size()));
    const auto response = client.read_response();
    ASSERT_TRUE(response.has_value()) << "width " << int{width};
    EXPECT_EQ(response->id, id);
    EXPECT_EQ(response->error, ErrorCode::kBadRequest) << "width " << int{width};
  }
  const std::vector<fp::Fixed> input{fp::Fixed::zero(client.format())};
  EXPECT_NO_THROW((void)client.call(Function::Sigmoid, input));
  EXPECT_EQ(fx.server.stats().immediate_errors, 3u);
  EXPECT_EQ(fx.server.stats().protocol_errors, 0u);
}

TEST(Net, TwelveBitServerAnswersANarrowRawOutsideItsFormatWithBadRequest) {
  const NacuConfig config = config_for_bits(12);
  serve::InferenceServer inference{config};
  NetServer server{inference};
  const BatchNacu direct{config};
  Client client{server.port()};
  ASSERT_TRUE(client.valid());
  for (const std::int64_t outside :
       {config.format.max_raw() + 1, config.format.min_raw() - 1}) {
    const std::vector<std::int64_t> raws{0, outside};
    const std::vector<std::uint8_t> frame = encode_submit(1, 0, raws, {});
    // A 2-byte body.
    ASSERT_EQ(frame.size(), kSubmitFrameBytes + 2 * raws.size());
    ASSERT_TRUE(client.socket().send_all(frame.data(), frame.size()));
    const auto response = client.read_response();
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->error, ErrorCode::kBadRequest) << outside;
  }
  nn::Rng rng{83};
  const std::vector<fp::Fixed> input = random_batch(rng, config.format, 64);
  expect_bit_equal(client.call(Function::Tanh, input),
                   direct.evaluate(Function::Tanh, input), "12-bit");
  EXPECT_EQ(server.stats().immediate_errors, 2u);
}

TEST(Net, TwentyBitServerRoundTripsWideBodiesBitIdentically) {
  const NacuConfig config = config_for_bits(20);
  serve::InferenceServer inference{config};
  NetServer server{inference};
  const BatchNacu direct{config};
  Client client{server.port()};
  ASSERT_TRUE(client.valid());
  nn::Rng rng{89};
  for (const Function f : {Function::Sigmoid, Function::Tanh, Function::Exp}) {
    const std::vector<fp::Fixed> input = random_batch(rng, config.format, 96);
    ASSERT_EQ(encode_submit(1, 0, input, {}).size(),
              kSubmitFrameBytes + 8 * input.size());
    expect_bit_equal(client.call(f, input), direct.evaluate(f, input),
                     "20-bit f=" + std::to_string(static_cast<int>(f)));
  }
  const std::vector<fp::Fixed> logits = random_batch(rng, config.format, 12);
  ASSERT_NE(client.send_softmax(logits), 0u);
  const auto response = client.read_response();
  ASSERT_TRUE(response.has_value());
  ASSERT_TRUE(response->ok()) << response->message;
  expect_bit_equal(response->values, direct.softmax(logits), "20-bit softmax");
}

TEST(Net, ClientRefusesAFrameLongerThanTheLimitAndKeepsServing) {
  // On a 20-bit datapath random raws need the 8-byte width, so 140 000
  // elements make a 1.1 MB frame: past kMaxFrameBytes.
  const NacuConfig config = config_for_bits(20);
  serve::InferenceServer inference{config};
  NetServer server{inference};
  const BatchNacu direct{config};
  Client client{server.port()};
  ASSERT_TRUE(client.valid());
  nn::Rng rng{97};
  const std::vector<fp::Fixed> first = random_batch(rng, config.format, 8);
  const std::vector<fp::Fixed> huge =
      random_batch(rng, config.format, 140'000);
  const std::vector<fp::Fixed> last = random_batch(rng, config.format, 8);
  const std::uint64_t first_id = client.send_submit(Function::Tanh, first);
  const std::uint64_t huge_id = client.send_submit(Function::Tanh, huge);
  const std::uint64_t last_id = client.send_submit(Function::Tanh, last);
  EXPECT_NE(first_id, 0u);
  EXPECT_EQ(huge_id, 0u);
  EXPECT_EQ(last_id, first_id + 1);  // the refused frame used up no id
  for (const auto& [id, input] : {std::pair{first_id, &first},
                                  std::pair{last_id, &last}}) {
    const auto response = client.read_response();
    ASSERT_TRUE(response.has_value()) << "id " << id;
    EXPECT_EQ(response->id, id);
    ASSERT_TRUE(response->ok()) << response->message;
    expect_bit_equal(response->values, direct.evaluate(Function::Tanh, *input),
                     "id " + std::to_string(id));
  }
  server.shutdown();
  EXPECT_EQ(server.stats().protocol_errors, 0u);
  EXPECT_EQ(server.stats().frames_read, 2u);
}

TEST(Net, ResultThatOutgrowsOneFrameGetsBadRequestNotABrokenStream) {
  // exp(0) = 1.0 is 2^15 on a 20-bit datapath: 2-byte raws in, 8-byte raws
  // out, so 140 000 of them fit one request frame but not one result frame.
  const NacuConfig config = config_for_bits(20);
  serve::InferenceServer inference{config};
  NetServer server{inference};
  Client client{server.port()};
  ASSERT_TRUE(client.valid());
  const std::vector<fp::Fixed> zeros(140'000, fp::Fixed::zero(config.format));
  ASSERT_NE(client.send_submit(Function::Exp, zeros), 0u);
  const auto response = client.read_response();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->error, ErrorCode::kBadRequest);
  const std::vector<fp::Fixed> input{fp::Fixed::zero(config.format)};
  EXPECT_NO_THROW((void)client.call(Function::Exp, input));
  server.shutdown();
  EXPECT_EQ(server.stats().protocol_errors, 0u);
  EXPECT_EQ(server.stats().responses_written, 2u);
}

TEST(Net, ResultRawOutsideTheHelloFormatThrowsOutOfRange) {
  // A stand-in server: a 12-bit Hello, then a result raw one past its range.
  Listener listener;
  ASSERT_TRUE(listener.valid());
  std::thread fake{[&] {
    std::optional<Socket> conn = listener.accept(10'000);
    if (!conn) {
      return;
    }
    const std::vector<std::uint8_t> hello =
        encode_hello(3, 8, BatchNacu::kFunctionCount);
    const std::vector<std::int64_t> raws{1, 2048};
    const std::vector<std::uint8_t> result = encode_result_fixed(1, raws);
    (void)conn->send_all(hello.data(), hello.size());
    (void)conn->send_all(result.data(), result.size());
  }};
  Client client{listener.port()};
  fake.join();  // both frames sent; the client reads them after the close
  ASSERT_TRUE(client.valid());
  EXPECT_THROW((void)client.read_response(), std::out_of_range);
}

TEST(Net, ClientVanishingMidRequestLeaksNothing) {
  serve::ServerOptions options;
  options.batcher.max_batch = 4;
  auto fx = std::make_unique<NetFixture>(options);
  nn::Rng rng{3};
  {
    Client client{fx->server.port()};
    ASSERT_TRUE(client.valid());
    // Pipeline a burst, then vanish without reading a single response.
    for (int i = 0; i < 25; ++i) {
      const std::vector<fp::Fixed> input =
          random_batch(rng, fx->config.format, 8);
      ASSERT_NE(client.send_submit(Function::Sigmoid, input), 0u);
    }
    client.close();  // hard close, responses undeliverable
  }
  fx->server.shutdown();
  // Every accepted request still completed inside the serving layer (no
  // leaked promise), even though the responses had nowhere to go.
  const auto counters = fx->inference.counters();
  EXPECT_EQ(counters.accepted, counters.completed);
  const auto stats = fx->server.stats();
  // Whatever could not be written is accounted, not lost.
  EXPECT_EQ(stats.requests_submitted,
            stats.responses_written + stats.write_failures);
}

// -- graceful drain ----------------------------------------------------------

TEST(Net, ShutdownUnderLiveLoadAnswersEveryAcceptedRequestOnTheWire) {
  serve::ServerOptions options;
  options.shards = 2;
  options.batcher.max_batch = 8;
  options.batcher.max_wait = std::chrono::microseconds{100};
  NetFixture fx{options};
  const BatchNacu direct{fx.config};

  constexpr std::size_t kClients = 4;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> answered{0};
  std::atomic<std::uint64_t> wrong{0};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client{fx.server.port()};
      if (!client.valid()) {
        return;
      }
      nn::Rng rng{1000 + c};
      std::vector<std::vector<fp::Fixed>> inputs;
      // Closed loop with a window: keep up to 8 in flight, read the rest
      // back after shutdown severs the submit side.
      std::size_t next_read = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const std::vector<fp::Fixed> input =
            random_batch(rng, fx.config.format, 1 + rng.below(16));
        if (client.send_submit(Function::Sigmoid, input) == 0) {
          break;  // connection severed by shutdown
        }
        inputs.push_back(input);
        sent.fetch_add(1);
        if (inputs.size() - next_read >= 8) {
          const auto response = client.read_response();
          if (!response) {
            return;
          }
          if (response->ok()) {
            const auto want =
                direct.evaluate(Function::Sigmoid, inputs[next_read]);
            if (response->values.size() != want.size()) {
              wrong.fetch_add(1);
            } else {
              for (std::size_t i = 0; i < want.size(); ++i) {
                if (response->values[i].raw() != want[i].raw()) {
                  wrong.fetch_add(1);
                  break;
                }
              }
            }
          }
          answered.fetch_add(1);
          ++next_read;
        }
      }
      // Drain: every remaining response must arrive before EOF.
      while (next_read < inputs.size()) {
        const auto response = client.read_response();
        if (!response) {
          break;
        }
        answered.fetch_add(1);
        ++next_read;
      }
    });
  }
  // Let traffic flow, then pull the plug mid-flight.
  std::this_thread::sleep_for(std::chrono::milliseconds{100});
  fx.server.shutdown();
  stop.store(true, std::memory_order_release);
  for (std::thread& t : threads) {
    t.join();
  }

  const auto stats = fx.server.stats();
  // The drain gate: everything that reached the inference layer was
  // answered on the wire (clients held their sockets open, so no writes
  // can have failed).
  EXPECT_EQ(stats.write_failures, 0u);
  EXPECT_EQ(stats.requests_submitted, stats.responses_written);
  EXPECT_EQ(wrong.load(), 0u);
  // And the clients observed every one of those answers arrive.
  EXPECT_EQ(answered.load(), stats.requests_submitted +
                                 stats.immediate_errors);
  EXPECT_GT(stats.requests_submitted, 0u);
  const auto counters = fx.inference.counters();
  EXPECT_EQ(counters.accepted, counters.completed);
}

TEST(Net, HalfCloseDrainsEveryOwedResponseBeforeEof) {
  NetFixture fx;
  const BatchNacu direct{fx.config};
  Client client{fx.server.port()};
  ASSERT_TRUE(client.valid());
  nn::Rng rng{77};
  constexpr std::size_t kBurst = 40;
  std::vector<std::vector<fp::Fixed>> inputs;
  for (std::size_t i = 0; i < kBurst; ++i) {
    inputs.push_back(random_batch(rng, fx.config.format, 4));
    ASSERT_NE(client.send_submit(Function::Exp, inputs.back()), 0u);
  }
  client.close_send();  // done submitting; responses still owed
  std::size_t received = 0;
  while (const auto response = client.read_response()) {
    ASSERT_TRUE(response->ok()) << response->message;
    expect_bit_equal(response->values,
                     direct.evaluate(Function::Exp, inputs[received]),
                     "half-close drain " + std::to_string(received));
    ++received;
  }
  EXPECT_EQ(received, kBurst);
}

// -- client batching ---------------------------------------------------------

TEST(Net, ClosedLoopDrainingBufferedResponsesNeverStalls) {
  NetFixture fx;
  const BatchNacu direct{fx.config};
  Client client{fx.server.port()};
  ASSERT_TRUE(client.valid());
  set_receive_timeout(client, std::chrono::seconds{10});
  const auto wait_written = [&](std::uint64_t n) {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds{10};
    while (fx.server.stats().responses_written < n &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds{1});
    }
  };

  nn::Rng rng{41};
  constexpr std::size_t kWindow = 16;
  std::deque<std::vector<fp::Fixed>> in_flight;
  std::uint64_t on_wire = 0;
  const auto send = [&] {
    in_flight.push_back(random_batch(rng, fx.config.format, 4));
    return client.send_submit(Function::Exp, in_flight.back()) != 0;
  };
  // True when the next response arrived (a stall times out) and matches
  // the oldest request in flight.
  const auto read_one = [&] {
    const auto response = client.read_response();
    const bool good =
        response && response->ok() &&
        bit_equal(response->values,
                  direct.evaluate(Function::Exp, in_flight.front()));
    in_flight.pop_front();
    return good;
  };
  for (int round = 0; round < 4; ++round) {
    const std::string tag = "round " + std::to_string(round);
    // A full window goes out at once: nothing is buffered yet.
    for (std::size_t i = 0; i < kWindow; ++i) {
      ASSERT_TRUE(send());
    }
    on_wire += kWindow;
    wait_written(on_wire);
    ASSERT_EQ(fx.server.stats().responses_written, on_wire) << tag;
    // One recv takes all of them; the rest sit in the client's buffer.
    ASSERT_TRUE(read_one()) << tag;
    // So these are held back rather than sent…
    for (std::size_t i = 0; i < kWindow / 2; ++i) {
      ASSERT_TRUE(send());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds{20});
    EXPECT_EQ(fx.server.stats().frames_read, on_wire) << tag;
    // …and go out once the buffered responses are drained and the next
    // read has to wait.
    while (!in_flight.empty()) {
      ASSERT_TRUE(read_one()) << tag << ", " << in_flight.size() << " left";
    }
    on_wire += kWindow / 2;
  }
  EXPECT_EQ(fx.server.stats().frames_read, on_wire);
}

TEST(Net, OneSenderThreadAndOneReaderThreadMayShareAClient) {
  // bench_e2e's open-loop shape: a sender thread fires bursts on its own
  // schedule while a reader thread collects the responses. The sender
  // pipelines more requests than the default queue_capacity holds, so a
  // descheduled dispatcher lets the queues fill: those requests are
  // answered kOverloaded (the documented backpressure), each counted once
  // on both sides of the edge, and every other answer is bit-identical.
  serve::ServerOptions options;
  options.shards = 2;
  NetFixture fx{options};
  const BatchNacu direct{fx.config};
  Client client{fx.server.port()};
  ASSERT_TRUE(client.valid());
  set_receive_timeout(client, std::chrono::seconds{10});

  constexpr std::size_t kRequests = 2000;
  nn::Rng rng{31};
  std::vector<std::vector<fp::Fixed>> inputs;
  for (std::size_t i = 0; i < kRequests; ++i) {
    inputs.push_back(random_batch(rng, fx.config.format, 1 + i % 8));
  }
  std::thread sender{[&] {
    for (std::size_t i = 0; i < kRequests; ++i) {
      if (client.send_submit(Function::Sigmoid, inputs[i]) == 0) {
        return;
      }
      if (i % 32 == 31) {
        std::this_thread::sleep_for(std::chrono::microseconds{100});
      }
    }
  }};
  std::size_t answered = 0;
  std::size_t ok = 0;
  std::size_t overloaded = 0;
  while (answered < kRequests) {
    const auto response = client.read_response();
    if (!response || response->id != answered + 1) {
      ADD_FAILURE() << "answer for id " << answered + 1
                    << (response ? " out of order" : " missing");
      break;
    }
    if (response->ok()) {
      EXPECT_TRUE(bit_equal(
          response->values,
          direct.evaluate(Function::Sigmoid, inputs[answered])))
          << "id " << response->id;
      ++ok;
    } else {
      EXPECT_EQ(response->error, ErrorCode::kOverloaded)
          << "id " << response->id << ": " << response->message;
      overloaded += response->error == ErrorCode::kOverloaded ? 1 : 0;
    }
    ++answered;
  }
  if (answered < kRequests) {
    client.socket().shutdown_send();  // unblock a sender nobody reads for
  }
  sender.join();
  fx.server.shutdown();
  ASSERT_EQ(answered, kRequests);
  EXPECT_GE(ok, 1u);
  EXPECT_EQ(fx.inference.counters().rejected_overload, overloaded);
  EXPECT_EQ(fx.server.stats().immediate_errors, overloaded);
}

// -- one set of books --------------------------------------------------------

TEST(Net, TwoStacksInOneProcessKeepSeparateBooks) {
  NetFixture first;
  NetFixture second;
  nn::Rng rng{17};
  {
    Client client{first.server.port()};
    ASSERT_TRUE(client.valid());
    for (int i = 0; i < 3; ++i) {
      (void)client.call(Function::Sigmoid,
                        random_batch(rng, first.config.format, 4));
    }
  }
  {
    Client client{second.server.port()};
    ASSERT_TRUE(client.valid());
    for (int i = 0; i < 5; ++i) {
      (void)client.call(Function::Exp,
                        random_batch(rng, second.config.format, 4));
    }
    ByteWriter w;  // well framed, unknown opcode: an immediate error
    w.u8(0x7F);
    w.u64(99);
    const std::vector<std::uint8_t> frame = finish_frame(w.take());
    ASSERT_TRUE(client.socket().send_all(frame.data(), frame.size()));
    ASSERT_TRUE(client.read_response().has_value());
  }
  first.server.shutdown();
  second.server.shutdown();

  const auto check = [](NetFixture& fx, std::uint64_t good,
                        std::uint64_t bad, const std::string& tag) {
    const serve::InferenceServer::Counters counters = fx.inference.counters();
    EXPECT_EQ(counters.accepted, good) << tag;
    EXPECT_EQ(counters.completed, good) << tag;
    const NetServer::Stats stats = fx.server.stats();
    EXPECT_EQ(stats.connections, 1u) << tag;
    EXPECT_EQ(stats.frames_read, good + bad) << tag;
    EXPECT_EQ(stats.requests_submitted, good) << tag;
    EXPECT_EQ(stats.responses_written, good) << tag;
    EXPECT_EQ(stats.immediate_errors, bad) << tag;
    const std::string serve_json = fx.inference.metrics().to_json();
    EXPECT_TRUE(has_count(serve_json, "serve.accepted", good)) << serve_json;
    EXPECT_TRUE(has_count(serve_json, "serve.completed", good)) << serve_json;
    const std::string net_json = fx.server.metrics().to_json();
    EXPECT_TRUE(has_count(net_json, "net.frames_read", good + bad))
        << net_json;
    EXPECT_TRUE(has_count(net_json, "net.immediate_errors", bad)) << net_json;
  };
  check(first, 3, 0, "first stack");
  check(second, 5, 1, "second stack");
}

TEST(Net, RegistryAndStatsAgreeOverGoodAndBadFrames) {
  NetFixture fx;
  const BatchNacu direct{fx.config};
  Client client{fx.server.port()};
  ASSERT_TRUE(client.valid());
  nn::Rng rng{19};
  // Pipelined on one connection: a good submit, then a framed payload
  // that is bad in a different way, ten times over.
  std::vector<std::uint8_t> bytes;
  std::vector<std::vector<fp::Fixed>> inputs;
  for (std::uint64_t i = 0; i < 10; ++i) {
    inputs.push_back(random_batch(rng, fx.config.format, 3));
    std::vector<std::uint8_t> good = encode_submit(
        2 * i + 1, static_cast<std::uint8_t>(Function::Sigmoid),
        raws_of(inputs.back()), {});
    std::vector<std::int64_t> raws{fx.config.format.max_raw() + 1};
    std::vector<std::uint8_t> bad =
        i % 2 == 0 ? encode_submit(2 * i + 2, 0, raws, {})  // out of format
                   : encode_submit(2 * i + 2, BatchNacu::kFunctionCount,
                                   raws_of(inputs.back()), {});
    bytes.insert(bytes.end(), good.begin(), good.end());
    bytes.insert(bytes.end(), bad.begin(), bad.end());
  }
  ASSERT_TRUE(client.socket().send_all(bytes.data(), bytes.size()));
  for (std::size_t i = 0; i < 2 * inputs.size(); ++i) {
    const auto response = client.read_response();
    ASSERT_TRUE(response.has_value()) << "response " << i;
    ASSERT_EQ(response->id, i + 1);
    if (i % 2 == 0) {
      ASSERT_TRUE(response->ok()) << response->message;
      expect_bit_equal(response->values,
                       direct.evaluate(Function::Sigmoid, inputs[i / 2]),
                       "good frame " + std::to_string(i));
    } else {
      EXPECT_EQ(response->error, ErrorCode::kBadRequest) << "frame " << i;
    }
  }
  fx.server.shutdown();
  const NetServer::Stats stats = fx.server.stats();
  obs::Registry& metrics = fx.server.metrics();
  EXPECT_EQ(metrics.counter("net.connections").value(), stats.connections);
  EXPECT_EQ(metrics.counter("net.frames_read").value(), stats.frames_read);
  EXPECT_EQ(metrics.counter("net.requests_submitted").value(),
            stats.requests_submitted);
  EXPECT_EQ(metrics.counter("net.responses_written").value(),
            stats.responses_written);
  EXPECT_EQ(metrics.counter("net.immediate_errors").value(),
            stats.immediate_errors);
  EXPECT_EQ(metrics.counter("net.protocol_errors").value(),
            stats.protocol_errors);
  EXPECT_EQ(metrics.counter("net.write_failures").value(),
            stats.write_failures);
  // Error frames answer no future, so they are not responses_written.
  EXPECT_EQ(stats.requests_submitted, 10u);
  EXPECT_EQ(stats.immediate_errors, 10u);
  EXPECT_EQ(stats.responses_written, stats.requests_submitted);
}

// -- seeded mutation fuzzing of nacu-wire decode ------------------------------

/// The id a response to @p payload must echo: the u64 after the opcode, or
/// 0 when the payload is too short to carry one.
std::uint64_t echoed_id(std::span<const std::uint8_t> payload) {
  ByteReader r{payload};
  (void)r.u8();
  return r.u64().value_or(0);
}

TEST(Net, SeededWireMutantsAreEachAnsweredInOrderOnOneConnection) {
  const NacuConfig config = config_for_bits(16);
  serve::InferenceServer inference{config};
  NetServer server{inference};
  const BatchNacu direct{config};
  Client client{server.port()};
  ASSERT_TRUE(client.valid());
  set_receive_timeout(client, std::chrono::seconds{30});

  // Valid payloads, length prefix stripped, one per submit opcode; one
  // carries a deadline so flips in that field reach deadline resolution.
  nn::Rng rng{0x5EED};
  const auto payload = [](std::vector<std::uint8_t> frame) {
    frame.erase(frame.begin(), frame.begin() + kLengthPrefixBytes);
    return frame;
  };
  WireSubmitOptions with_deadline;
  with_deadline.deadline_ns = 1'000'000'000;
  const std::vector<std::vector<std::uint8_t>> seeds{
      payload(encode_submit(1, static_cast<std::uint8_t>(Function::Sigmoid),
                            raws_of(random_batch(rng, config.format, 6)),
                            {})),
      payload(encode_submit(2, static_cast<std::uint8_t>(Function::Tanh),
                            raws_of(random_batch(rng, config.format, 3)),
                            with_deadline)),
      payload(encode_submit_softmax(
          3, raws_of(random_batch(rng, config.format, 5)), {}))};

  // Byte flips, truncations (never below the opcode, so no length prefix
  // is zero) and appended bytes; each mutant is re-framed with its own
  // length, so the stream's framing stays intact throughout.
  constexpr std::size_t kMutants = 2000;
  std::vector<std::uint8_t> bytes;
  std::vector<std::uint64_t> ids;
  for (std::size_t m = 0; m < kMutants; ++m) {
    std::vector<std::uint8_t> p = seeds[m % seeds.size()];
    switch (rng.below(3)) {
      case 0:
        for (std::uint64_t flips = 1 + rng.below(4); flips > 0; --flips) {
          p[rng.below(p.size())] ^=
              static_cast<std::uint8_t>(1 + rng.below(255));
        }
        break;
      case 1:
        p.resize(1 + rng.below(p.size() - 1));
        break;
      default:
        for (std::uint64_t extra = 1 + rng.below(16); extra > 0; --extra) {
          p.push_back(static_cast<std::uint8_t>(rng.below(256)));
        }
        break;
    }
    ids.push_back(echoed_id(p));
    const std::vector<std::uint8_t> frame = finish_frame(std::move(p));
    bytes.insert(bytes.end(), frame.begin(), frame.end());
  }
  ASSERT_TRUE(client.socket().send_all(bytes.data(), bytes.size()));

  std::size_t answered_ok = 0;
  std::size_t bad_requests = 0;
  for (std::size_t m = 0; m < kMutants; ++m) {
    const auto response = client.read_response();
    ASSERT_TRUE(response.has_value()) << "mutant " << m;
    ASSERT_EQ(response->id, ids[m]) << "mutant " << m;
    answered_ok += response->ok() ? 1 : 0;
    bad_requests += response->error == ErrorCode::kBadRequest ? 1 : 0;
  }
  // The mix reached both the serving layer and the payload checks.
  EXPECT_GT(answered_ok, 0u);
  EXPECT_GT(bad_requests, 0u);
  // And the connection still serves a good request, bit for bit.
  const std::vector<fp::Fixed> input = random_batch(rng, config.format, 16);
  expect_bit_equal(client.call(Function::Exp, input),
                   direct.evaluate(Function::Exp, input), "after the mutants");

  server.shutdown();
  const NetServer::Stats stats = server.stats();
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(stats.frames_read, kMutants + 1);
  EXPECT_EQ(stats.frames_read,
            stats.requests_submitted + stats.immediate_errors);
  const serve::InferenceServer::Counters counters = inference.counters();
  EXPECT_EQ(counters.accepted, counters.completed);
}

}  // namespace
}  // namespace nacu::net
