// Unit tests for src/comm: message encoding, CRC-framed envelopes, the
// in-memory network fabric with its traffic accounting, and the
// deterministic fault-injection layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <numeric>
#include <span>
#include <thread>
#include <vector>

#include "src/comm/compression.hpp"
#include "src/comm/crc32.hpp"
#include "src/comm/message.hpp"
#include "src/comm/network.hpp"
#include "src/utils/error.hpp"
#include "src/utils/rng.hpp"

namespace fedcav::comm {
namespace {

// ------------------------------------------------------------ messages

TEST(Message, GlobalModelRoundTrip) {
  GlobalModelMsg msg;
  msg.round = 17;
  msg.weights = {1.0f, -2.5f, 0.0f};
  const ByteBuffer wire = msg.encode();
  ByteReader reader(wire);
  const GlobalModelMsg back = GlobalModelMsg::decode(reader);
  EXPECT_EQ(back.round, 17u);
  EXPECT_EQ(back.weights, msg.weights);
}

TEST(Message, ClientReportRoundTrip) {
  ClientReportMsg msg;
  msg.round = 3;
  msg.client_id = 42;
  msg.num_samples = 128;
  msg.inference_loss = 2.718281828;
  msg.weights = {0.5f, 0.25f};
  const ByteBuffer wire = msg.encode();
  ByteReader reader(wire);
  const ClientReportMsg back = ClientReportMsg::decode(reader);
  EXPECT_EQ(back.round, 3u);
  EXPECT_EQ(back.client_id, 42u);
  EXPECT_EQ(back.num_samples, 128u);
  EXPECT_DOUBLE_EQ(back.inference_loss, 2.718281828);
  EXPECT_EQ(back.weights, msg.weights);
}

TEST(Message, ClientReportCostsExactlyOneFloatMoreThanWeightsPlusMeta) {
  // §6 overhead claim: FedCav's extra payload per client is one float
  // (the f64 inference loss) on top of what FedAvg must already ship.
  ClientReportMsg with_loss;
  with_loss.weights.assign(1000, 1.0f);
  with_loss.inference_loss = 1.23;
  const std::size_t total = with_loss.encode().size();
  const std::size_t weights_bytes = 8 /*len*/ + 1000 * sizeof(float);
  const std::size_t metadata = 8 /*round*/ + 8 /*client*/ + 8 /*samples*/;
  EXPECT_EQ(total, metadata + sizeof(double) + weights_bytes);
}

TEST(Envelope, RoundTripPreservesTypeAndPayload) {
  GlobalModelMsg msg;
  msg.round = 1;
  msg.weights = {1.0f};
  Envelope env{MessageType::kGlobalModel, msg.encode()};
  const ByteBuffer wire = env.encode();
  const Envelope back = Envelope::decode(wire);
  EXPECT_EQ(back.type, MessageType::kGlobalModel);
  EXPECT_EQ(back.payload, env.payload);
}

TEST(Envelope, RejectsUnknownType) {
  // CRC-valid images, so the tag check is what rejects them: 0 and 8
  // bracket the known range, 3 is the retired tag inside it.
  for (const std::uint64_t tag : {0u, 3u, 8u, 77u}) {
    const ByteBuffer wire =
        Envelope{static_cast<MessageType>(tag), ByteBuffer(16, 0)}.encode();
    EXPECT_FALSE(Envelope::try_decode(wire).has_value()) << "tag " << tag;
    EXPECT_THROW(Envelope::decode(wire), Error) << "tag " << tag;
  }
  // The same framing around a known tag decodes.
  EXPECT_TRUE(Envelope::try_decode(
                  Envelope{MessageType::kNack, ByteBuffer(16, 0)}.encode())
                  .has_value());
  // A NACK naming an unknown expected type is rejected the same way.
  for (const std::uint64_t tag : {0u, 3u, 8u}) {
    ByteBuffer nack;
    write_u64(nack, 12);
    write_u64(nack, tag);
    ByteReader reader(nack);
    EXPECT_THROW(NackMsg::decode(reader), Error) << "expected type " << tag;
  }
}

TEST(Envelope, WireSizeIncludesTypeTagAndCrc) {
  Envelope env{MessageType::kMetadataReport, ByteBuffer(10, 0)};
  EXPECT_EQ(env.wire_size(), 22u);  // 8 tag + 10 payload + 4 CRC
  EXPECT_EQ(env.encode().size(), env.wire_size());
}

TEST(Message, NackRoundTrip) {
  NackMsg msg;
  msg.round = 12;
  msg.expected = MessageType::kClientReport;
  const ByteBuffer wire = msg.encode();
  ByteReader reader(wire);
  const NackMsg back = NackMsg::decode(reader);
  EXPECT_EQ(back.round, 12u);
  EXPECT_EQ(back.expected, MessageType::kClientReport);
}

TEST(Message, MetadataReportRoundTrip) {
  MetadataMsg msg;
  msg.round = 9;
  msg.client_id = 42;
  msg.num_samples = 311;
  msg.inference_loss = 2.71828182845904523;
  const ByteBuffer wire = msg.encode();
  // Scalar metadata is model-size independent: 3×u64 + 1×f64.
  EXPECT_EQ(wire.size(), 32u);
  ByteReader reader(wire);
  const MetadataMsg back = MetadataMsg::decode(reader);
  EXPECT_EQ(back.round, 9u);
  EXPECT_EQ(back.client_id, 42u);
  EXPECT_EQ(back.num_samples, 311u);
  EXPECT_EQ(back.inference_loss, msg.inference_loss);  // bit-exact f64
}

TEST(Message, MetadataReportSurvivesEnvelopeFraming) {
  MetadataMsg msg;
  msg.round = 3;
  msg.client_id = 7;
  msg.num_samples = 64;
  msg.inference_loss = 0.125;
  const Envelope env{MessageType::kMetadataReport, msg.encode()};
  EXPECT_EQ(env.wire_size(), 44u);  // 8 tag + 32 payload + 4 CRC
  const auto back = Envelope::try_decode(env.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->type, MessageType::kMetadataReport);
  ByteReader reader(back->payload);
  EXPECT_EQ(MetadataMsg::decode(reader).num_samples, 64u);
}

// --------------------------------------------------------- CRC framing

TEST(Crc32, MatchesIeee8023Vector) {
  // The canonical check value for the reflected 0xEDB88320 polynomial.
  const char* s = "123456789";
  const ByteBuffer data(s, s + 9);
  EXPECT_EQ(crc32(data), 0xCBF43926u);
}

/// The bytewise table-driven CRC-32: the reference the slice-by-16
/// kernel must match on every length, alignment and split.
std::uint32_t bytewise_crc32(std::span<const std::uint8_t> data) {
  std::uint32_t table[256];
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    table[i] = c;
  }
  std::uint32_t crc = 0xffffffffu;
  for (const std::uint8_t byte : data) crc = table[(crc ^ byte) & 0xffu] ^ (crc >> 8);
  return crc ^ 0xffffffffu;
}

TEST(Crc32, MatchesBytewiseReference) {
  Rng rng(0xc4c32);
  ByteBuffer data(64 * 1024 + 16);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_int(256));
  // Every short length at every start offset: the 16-byte blocks, the
  // bytewise tail, and misaligned word loads.
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const std::span<const std::uint8_t> view(data.data() + offset, len);
      ASSERT_EQ(crc32(view), bytewise_crc32(view)) << "offset " << offset << " len " << len;
    }
  }
  for (int trial = 0; trial < 64; ++trial) {
    const std::size_t offset = rng.uniform_int(16);
    const std::size_t len = rng.uniform_int(64 * 1024 + 1);
    const std::span<const std::uint8_t> view(data.data() + offset, len);
    ASSERT_EQ(crc32(view), bytewise_crc32(view)) << "offset " << offset << " len " << len;
  }
  // A running CRC split at every point of a 100-byte buffer.
  const std::span<const std::uint8_t> whole(data.data(), 100);
  const std::uint32_t expected = bytewise_crc32(whole);
  for (std::size_t split = 0; split <= whole.size(); ++split) {
    std::uint32_t crc = crc32_update(kCrc32Init, whole.first(split));
    crc = crc32_update(crc, whole.subspan(split));
    ASSERT_EQ(crc32_finish(crc), expected) << "split " << split;
  }
}

TEST(Crc32, IncrementalMatchesOneShot) {
  ByteBuffer data(57);
  std::iota(data.begin(), data.end(), std::uint8_t{0});
  std::uint32_t crc = kCrc32Init;
  crc = crc32_update(crc, std::span<const std::uint8_t>(data.data(), 20));
  crc = crc32_update(crc, std::span<const std::uint8_t>(data.data() + 20, 37));
  EXPECT_EQ(crc32_finish(crc), crc32(data));
}

TEST(Envelope, CorruptedWireFailsCrcBeforeMessageDecode) {
  GlobalModelMsg msg;
  msg.round = 5;
  msg.weights = {1.0f, 2.0f, 3.0f};
  ByteBuffer wire = Envelope{MessageType::kGlobalModel, msg.encode()}.encode();
  // Flip one bit in every position in turn: the CRC must catch each.
  for (std::size_t i = 0; i < wire.size(); ++i) {
    ByteBuffer damaged = wire;
    damaged[i] ^= 0x10;
    EXPECT_FALSE(Envelope::try_decode(damaged).has_value()) << "byte " << i;
    EXPECT_THROW(Envelope::decode(damaged), Error);
  }
  // The pristine image still decodes.
  EXPECT_TRUE(Envelope::try_decode(wire).has_value());
}

TEST(Envelope, TruncatedWireNeverReachesMessageDecode) {
  MetadataMsg msg;
  msg.round = 2;
  const ByteBuffer wire = Envelope{MessageType::kMetadataReport, msg.encode()}.encode();
  for (std::size_t len = 0; len < wire.size(); ++len) {
    const ByteBuffer cut(wire.begin(), wire.begin() + static_cast<long>(len));
    EXPECT_FALSE(Envelope::try_decode(cut).has_value()) << "length " << len;
    EXPECT_THROW(Envelope::decode(cut), Error);
  }
}

TEST(Envelope, CompressedPayloadIsCrcProtectedToo) {
  // Quantized top-k updates ride the same framing: a corrupted payload
  // must be rejected by the CRC, never handed to QuantizedDelta decode
  // (whose length fields would otherwise be attacker-controlled).
  std::vector<float> dense(64, 0.0f);
  dense[3] = 5.0f;
  dense[41] = -2.0f;
  const QuantizedDelta delta = quantize(dense, QuantMode::kInt8, 0.1);
  ByteBuffer wire = Envelope{MessageType::kQuantReport, delta.encode()}.encode();
  {
    const Envelope back = Envelope::decode(wire);
    ByteReader reader(back.payload);
    const QuantizedDelta got = QuantizedDelta::decode(reader);
    EXPECT_EQ(got.encode(), delta.encode());
  }
  wire[10] ^= 0x01;  // flip a bit inside the delta's dim field
  EXPECT_FALSE(Envelope::try_decode(wire).has_value());
}

// ------------------------------------------------------------- network

Envelope tiny_envelope() {
  MetadataMsg msg;
  msg.round = 1;
  return Envelope{MessageType::kMetadataReport, msg.encode()};
}

NetworkConfig endpoint_config(std::size_t n) {
  NetworkConfig config;
  config.num_endpoints = n;
  return config;
}

/// Strictly decode a popped wire image; these fabrics are fault-free.
std::optional<Envelope> decoded(const std::optional<ByteBuffer>& wire) {
  if (!wire.has_value()) return std::nullopt;
  return Envelope::decode(*wire);
}

/// A model-sized downlink, as the server broadcasts it.
Envelope model_envelope() {
  GlobalModelMsg msg;
  msg.round = 3;
  msg.weights.assign(1000, 0.25f);
  return Envelope{MessageType::kGlobalModel, msg.encode()};
}

WireImage image_of(const Envelope& env) {
  return std::make_shared<const ByteBuffer>(env.encode());
}

TEST(Network, SendThenReceive) {
  InMemoryNetwork net(endpoint_config(3));
  net.send(0, 2, tiny_envelope());
  auto got = decoded(net.try_recv_wire(2, 0));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->type, MessageType::kMetadataReport);
  EXPECT_FALSE(net.try_recv_wire(2, 0).has_value());
}

TEST(Network, RecvFiltersBySource) {
  InMemoryNetwork net(endpoint_config(3));
  net.send(1, 0, tiny_envelope());
  EXPECT_FALSE(net.try_recv_wire(0, 2).has_value());
  EXPECT_TRUE(decoded(net.try_recv_wire(0, 1)).has_value());
}

TEST(Network, RecvAnyReturnsFifoWithSource) {
  InMemoryNetwork net(endpoint_config(3));
  net.send(1, 0, tiny_envelope());
  net.send(2, 0, tiny_envelope());
  std::size_t src = 99;
  ASSERT_TRUE(decoded(net.try_recv_any_wire(0, &src)).has_value());
  EXPECT_EQ(src, 1u);
  ASSERT_TRUE(decoded(net.try_recv_any_wire(0, &src)).has_value());
  EXPECT_EQ(src, 2u);
  EXPECT_FALSE(net.try_recv_any_wire(0, &src).has_value());
}

// Regression (PR 8): try_recv_any must drain the lowest source rank
// first regardless of arrival interleaving — the documented Transport
// fairness contract. The old implementation popped the inbox in pure
// arrival order, so a fast high-rank sender could starve rank 1.
TEST(Network, RecvAnyDrainsLowestRankFirst) {
  InMemoryNetwork net(endpoint_config(4));
  auto round_envelope = [](std::uint64_t round) {
    MetadataMsg msg;
    msg.round = round;
    return Envelope{MessageType::kMetadataReport, msg.encode()};
  };
  // Arrival order 3, 2, 2, 1 — drain order must be 1, 2, 2, 3, with
  // per-source FIFO preserved (rank 2's round-10 before its round-11).
  net.send(3, 0, round_envelope(30));
  net.send(2, 0, round_envelope(10));
  net.send(2, 0, round_envelope(11));
  net.send(1, 0, round_envelope(20));
  const std::pair<std::size_t, std::uint64_t> expected[] = {
      {1, 20}, {2, 10}, {2, 11}, {3, 30}};
  for (const auto& [want_src, want_round] : expected) {
    std::size_t src = 99;
    const std::optional<Envelope> env = decoded(net.try_recv_any_wire(0, &src));
    ASSERT_TRUE(env.has_value());
    EXPECT_EQ(src, want_src);
    ByteReader reader(env->payload);
    EXPECT_EQ(MetadataMsg::decode(reader).round, want_round);
  }
  EXPECT_FALSE(net.try_recv_any_wire(0, nullptr).has_value());
}

TEST(Network, CountsBytesAndMessages) {
  InMemoryNetwork net(endpoint_config(2));
  const Envelope env = tiny_envelope();
  net.send(0, 1, env);
  net.send(0, 1, env);
  const TrafficStats stats = net.stats(0);
  EXPECT_EQ(stats.messages_sent, 2u);
  EXPECT_EQ(stats.bytes_sent, 2 * env.wire_size());
  EXPECT_EQ(net.stats(1).messages_sent, 0u);
}

TEST(Network, TotalStatsSumEndpoints) {
  InMemoryNetwork net(endpoint_config(3));
  net.send(0, 1, tiny_envelope());
  net.send(1, 0, tiny_envelope());
  EXPECT_EQ(net.total_stats().messages_sent, 2u);
}

TEST(Network, LatencyModelIsAffineInBytes) {
  NetworkConfig config;
  config.num_endpoints = 2;
  config.latency_s = 0.5;
  config.bandwidth_bytes_per_s = 100.0;
  InMemoryNetwork net(config);
  EXPECT_DOUBLE_EQ(net.model_transfer_seconds(0), 0.5);
  EXPECT_DOUBLE_EQ(net.model_transfer_seconds(200), 0.5 + 2.0);
}

TEST(Network, SimulatedTimeAccumulates) {
  NetworkConfig config;
  config.num_endpoints = 2;
  config.latency_s = 1.0;
  config.bandwidth_bytes_per_s = 1e9;
  InMemoryNetwork net(config);
  net.send(0, 1, tiny_envelope());
  net.send(0, 1, tiny_envelope());
  EXPECT_NEAR(net.stats(0).simulated_seconds, 2.0, 1e-6);
}

TEST(Network, RejectsInvalidEndpoints) {
  InMemoryNetwork net(endpoint_config(2));
  EXPECT_THROW(net.send(0, 2, tiny_envelope()), Error);
  EXPECT_THROW(net.send(0, 0, tiny_envelope()), Error);
  EXPECT_THROW(net.try_recv_wire(5, 0), Error);
  EXPECT_THROW(net.stats(7), Error);
}

// Hub-and-spoke, like the stream transports: the round protocol only
// ever talks between the server and one client, so a client-to-client
// link does not exist.
TEST(Network, EveryLinkHasTheServerAtOneEnd) {
  NetworkConfig config;
  config.num_endpoints = 3;
  InMemoryNetwork net(config);
  EXPECT_THROW(net.send(1, 2, tiny_envelope()), Error);
  EXPECT_THROW(net.send(2, 1, tiny_envelope()), Error);
  EXPECT_THROW(net.add_link_delay(1, 2, 0.5), Error);
  EXPECT_EQ(net.total_stats().messages_sent, 0u);
  EXPECT_EQ(net.total_stats().simulated_seconds, 0.0);
  EXPECT_EQ(net.pending_messages(), 0u);
  net.send(0, 2, tiny_envelope());
  net.send(2, 0, tiny_envelope());
  net.add_link_delay(2, 0, 0.5);
  EXPECT_EQ(net.total_stats().messages_sent, 2u);
  EXPECT_EQ(net.pending_messages(), 2u);
}

// Two links per client: a fault-free fabric's snapshot grows with the
// endpoint count, not with its square (a record per ordered pair would
// come to 24 MB here).
TEST(Network, StateIsLinearInEndpoints) {
  NetworkConfig config;
  config.num_endpoints = 1001;
  InMemoryNetwork net(config);
  ByteBuffer snapshot;
  net.save_state(snapshot);
  EXPECT_LT(snapshot.size(), 64 * config.num_endpoints);
}

TEST(Network, RequiresTwoEndpoints) {
  EXPECT_THROW(InMemoryNetwork(endpoint_config(1)), Error);
}

// One image broadcast to four clients is queued four times, never copied,
// and metered per link like four sends.
TEST(Network, SharedImageReachesEveryLinkUncopied) {
  InMemoryNetwork net(endpoint_config(5));
  const Envelope env = model_envelope();
  const WireImage image = image_of(env);
  for (std::size_t k = 1; k <= 4; ++k) net.send_image(0, k, env, image);
  EXPECT_EQ(net.stats(0).messages_sent, 4u);
  EXPECT_EQ(net.stats(0).bytes_sent, 4 * image->size());
  for (std::size_t k = 1; k <= 4; ++k) {
    EXPECT_EQ(net.try_recv_image(k, 0), image) << "link " << k;
  }
  // Checked in place: the view's payload points into the image.
  const std::optional<EnvelopeView> view = Envelope::try_view(*image);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->type, MessageType::kGlobalModel);
  EXPECT_EQ(view->payload.data(), image->data() + sizeof(std::uint64_t));
  EXPECT_EQ(view->payload.size(), env.payload.size());
  // The copying entry point hands out the same bytes send() would queue.
  net.send_image(0, 2, env, image);
  const std::optional<ByteBuffer> wire = net.try_recv_wire(2, 0);
  ASSERT_TRUE(wire.has_value());
  EXPECT_EQ(*wire, *image);
  net.send(0, 3, env);
  EXPECT_EQ(*net.try_recv_image(3, 0), *image);
  EXPECT_EQ(net.pending_messages(), 0u);
  EXPECT_EQ(image.use_count(), 1);  // no queue still holds it
}

// Pool threads send, check and release one shared image concurrently,
// each on its own links (the in-process phase ①).
TEST(Network, ConcurrentSharedImageTraffic) {
  constexpr std::size_t kLinks = 4;
  constexpr std::size_t kRounds = 200;
  InMemoryNetwork net(endpoint_config(kLinks + 1));
  const Envelope env = model_envelope();
  const WireImage image = image_of(env);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (std::size_t k = 1; k <= kLinks; ++k) {
    threads.emplace_back([&, k] {
      for (std::size_t i = 0; i < kRounds; ++i) {
        net.send_image(0, k, env, image);
        const WireImage got = net.try_recv_image(k, 0);
        if (got != image || !Envelope::try_view(*got).has_value()) failures += 1;
        net.send(k, 0, tiny_envelope());
        if (!net.try_recv_wire(0, k).has_value()) failures += 1;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(net.stats(0).messages_sent, kLinks * kRounds);
  EXPECT_EQ(net.stats(0).bytes_sent, kLinks * kRounds * image->size());
  EXPECT_EQ(net.pending_messages(), 0u);
  EXPECT_EQ(image.use_count(), 1);
}

TEST(Network, PendingMessagesTracksQueue) {
  InMemoryNetwork net(endpoint_config(3));
  EXPECT_EQ(net.pending_messages(), 0u);
  net.send(0, 1, tiny_envelope());
  net.send(0, 2, tiny_envelope());
  EXPECT_EQ(net.pending_messages(), 2u);
  net.try_recv_wire(1, 0);
  EXPECT_EQ(net.pending_messages(), 1u);
}

// ------------------------------------------------------ fault fabric

NetworkConfig faulty_config(FaultPlan plan, std::size_t endpoints = 2) {
  NetworkConfig config;
  config.num_endpoints = endpoints;
  config.faults = plan;
  return config;
}

void expect_conservation(const InMemoryNetwork& net) {
  const FaultStats f = net.fault_stats();
  EXPECT_EQ(net.total_stats().messages_sent + f.duplicated,
            f.delivered + f.dropped + f.crash_dropped + net.pending_messages());
}

TEST(Faults, DefaultPlanIsDisabled) {
  FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  plan.seed = 42;  // a seed alone arms nothing
  EXPECT_FALSE(plan.enabled());
  plan.drop_prob = 0.1;
  EXPECT_TRUE(plan.enabled());
}

TEST(Faults, DropAllDeliversNothing) {
  FaultPlan plan;
  plan.drop_prob = 1.0;
  InMemoryNetwork net(faulty_config(plan));
  for (int i = 0; i < 5; ++i) net.send(0, 1, tiny_envelope());
  EXPECT_FALSE(net.try_recv_wire(1, 0).has_value());
  EXPECT_EQ(net.fault_stats().dropped, 5u);
  // The sender was still metered for every transmission.
  EXPECT_EQ(net.stats(0).messages_sent, 5u);
  expect_conservation(net);
}

TEST(Faults, DuplicateAllDeliversTwice) {
  FaultPlan plan;
  plan.duplicate_prob = 1.0;
  InMemoryNetwork net(faulty_config(plan));
  net.send(0, 1, tiny_envelope());
  EXPECT_EQ(net.pending_messages(), 2u);
  const auto first = net.try_recv_wire(1, 0);
  const auto second = net.try_recv_wire(1, 0);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*first, *second);  // the stale copy is byte-identical
  EXPECT_EQ(net.fault_stats().duplicated, 1u);
  expect_conservation(net);
}

TEST(Faults, CorruptedDeliveryFailsCrc) {
  FaultPlan plan;
  plan.corrupt_prob = 1.0;
  InMemoryNetwork net(faulty_config(plan));
  net.send(0, 1, tiny_envelope());
  const auto wire = net.try_recv_wire(1, 0);
  ASSERT_TRUE(wire.has_value());
  EXPECT_EQ(wire->size(), tiny_envelope().wire_size());  // same length, one bit off
  EXPECT_FALSE(Envelope::try_decode(*wire).has_value());
  EXPECT_EQ(net.fault_stats().corrupted, 1u);
  expect_conservation(net);
}

TEST(Faults, TruncatedDeliveryFailsCrc) {
  FaultPlan plan;
  plan.truncate_prob = 1.0;
  InMemoryNetwork net(faulty_config(plan));
  net.send(0, 1, tiny_envelope());
  const auto wire = net.try_recv_wire(1, 0);
  ASSERT_TRUE(wire.has_value());
  EXPECT_LT(wire->size(), tiny_envelope().wire_size());  // strict prefix
  EXPECT_FALSE(Envelope::try_decode(*wire).has_value());
  EXPECT_EQ(net.fault_stats().truncated, 1u);
  expect_conservation(net);
}

// A fault that mutates a shared image damages the receiver's copy only:
// the sender's image may be queued on other links, and its retransmits
// must go out intact.
TEST(Faults, CorruptOrTruncateDamagesAPrivateCopyOfASharedImage) {
  for (const bool corrupt : {true, false}) {
    FaultPlan plan;
    (corrupt ? plan.corrupt_prob : plan.truncate_prob) = 1.0;
    InMemoryNetwork net(faulty_config(plan));
    const Envelope env = model_envelope();
    const WireImage image = image_of(env);
    const ByteBuffer original = *image;
    net.send_image(0, 1, env, image);
    const WireImage got = net.try_recv_image(1, 0);
    ASSERT_NE(got, nullptr);
    EXPECT_NE(got, image);
    EXPECT_FALSE(Envelope::try_view(*got).has_value()) << "corrupt " << corrupt;
    EXPECT_EQ(*image, original);
    EXPECT_TRUE(Envelope::try_view(*image).has_value());
    EXPECT_EQ(net.fault_stats().corrupted, corrupt ? 1u : 0u);
    EXPECT_EQ(net.fault_stats().truncated, corrupt ? 0u : 1u);
    expect_conservation(net);
  }
}

TEST(Faults, DuplicateQueuesTheSameImageTwice) {
  FaultPlan plan;
  plan.duplicate_prob = 1.0;
  InMemoryNetwork net(faulty_config(plan));
  const Envelope env = model_envelope();
  const WireImage image = image_of(env);
  net.send_image(0, 1, env, image);
  EXPECT_EQ(net.pending_messages(), 2u);
  EXPECT_EQ(net.try_recv_image(1, 0), image);
  EXPECT_EQ(net.try_recv_image(1, 0), image);
  EXPECT_EQ(net.try_recv_image(1, 0), nullptr);
  EXPECT_EQ(net.fault_stats().duplicated, 1u);
  expect_conservation(net);
}

TEST(Faults, ReorderLetsLaterMessageOvertake) {
  FaultPlan plan;
  plan.reorder_prob = 1.0;
  InMemoryNetwork net(faulty_config(plan));
  MetadataMsg first;
  first.round = 1;
  MetadataMsg second;
  second.round = 2;
  net.send(0, 1, Envelope{MessageType::kMetadataReport, first.encode()});
  net.send(0, 1, Envelope{MessageType::kMetadataReport, second.encode()});
  auto env = Envelope::try_decode(*net.try_recv_wire(1, 0));
  ASSERT_TRUE(env.has_value());
  ByteReader reader(env->payload);
  EXPECT_EQ(MetadataMsg::decode(reader).round, 2u);  // overtook its elder
  EXPECT_EQ(net.fault_stats().reordered, 1u);
  expect_conservation(net);
}

TEST(Faults, CrashWindowBlackHolesBothDirections) {
  FaultPlan plan;
  plan.crashes = {CrashWindow{/*rank=*/1, /*first_round=*/2, /*last_round=*/3}};
  InMemoryNetwork net(faulty_config(plan, 3));
  net.begin_round(2);
  net.send(0, 1, tiny_envelope());  // to the crashed endpoint
  net.send(1, 0, tiny_envelope());  // from the crashed endpoint
  net.send(0, 2, tiny_envelope());  // unrelated link is unaffected
  EXPECT_EQ(net.fault_stats().crash_dropped, 2u);
  EXPECT_FALSE(net.try_recv_wire(1, 0).has_value());
  EXPECT_FALSE(net.try_recv_wire(0, 1).has_value());
  EXPECT_TRUE(net.try_recv_wire(2, 0).has_value());
  // Rejoin: the window closed, traffic flows again.
  net.begin_round(4);
  net.send(0, 1, tiny_envelope());
  EXPECT_TRUE(net.try_recv_wire(1, 0).has_value());
  expect_conservation(net);
}

TEST(Faults, JitterChargesSimulatedTime) {
  FaultPlan plan;
  plan.jitter_s = 0.5;
  InMemoryNetwork net(faulty_config(plan));
  const double clean = net.model_transfer_seconds(tiny_envelope().wire_size());
  for (int i = 0; i < 20; ++i) net.send(0, 1, tiny_envelope());
  const double jitter = net.fault_stats().jitter_seconds;
  EXPECT_GT(jitter, 0.0);
  EXPECT_LE(jitter, 20 * 0.5);
  EXPECT_NEAR(net.stats(0).simulated_seconds, 20 * clean + jitter, 1e-9);
}

TEST(Faults, ZeroedPlanIsByteIdenticalToDefaultFabric) {
  // Acceptance gate: an explicitly zeroed FaultPlan (even with a seed
  // set) must reproduce the default fabric's traffic exactly — the
  // fault layer is provably inert when disabled.
  FaultPlan zeroed;
  zeroed.seed = 1234;
  InMemoryNetwork with_plan(faulty_config(zeroed, 3));
  InMemoryNetwork plain(endpoint_config(3));
  for (auto* net : {&with_plan, &plain}) {
    net->begin_round(1);
    net->send(0, 1, tiny_envelope());
    net->send(0, 2, tiny_envelope());
    net->send(1, 0, tiny_envelope());
  }
  for (std::size_t e = 0; e < 3; ++e) {
    EXPECT_EQ(with_plan.stats(e).messages_sent, plain.stats(e).messages_sent);
    EXPECT_EQ(with_plan.stats(e).bytes_sent, plain.stats(e).bytes_sent);
    EXPECT_DOUBLE_EQ(with_plan.stats(e).simulated_seconds,
                     plain.stats(e).simulated_seconds);
  }
  const auto a = with_plan.try_recv_wire(1, 0);
  const auto b = plain.try_recv_wire(1, 0);
  ASSERT_TRUE(a.has_value() && b.has_value());
  EXPECT_EQ(*a, *b);
  const FaultStats f = with_plan.fault_stats();
  EXPECT_EQ(f.dropped + f.crash_dropped + f.duplicated + f.reordered + f.corrupted +
                f.truncated,
            0u);
  EXPECT_DOUBLE_EQ(f.jitter_seconds, 0.0);
}

TEST(Faults, MixedPlanConservesEveryMessage) {
  FaultPlan plan;
  plan.seed = 7;
  plan.drop_prob = 0.3;
  plan.duplicate_prob = 0.2;
  plan.reorder_prob = 0.2;
  plan.corrupt_prob = 0.1;
  plan.truncate_prob = 0.1;
  plan.jitter_s = 0.05;
  InMemoryNetwork net(faulty_config(plan, 4));
  net.begin_round(1);
  for (int i = 0; i < 100; ++i) {
    net.send(0, 1 + static_cast<std::size_t>(i % 3), tiny_envelope());
    net.send(1 + static_cast<std::size_t>(i % 3), 0, tiny_envelope());
  }
  // Drain roughly half, leaving the rest pending.
  for (int i = 0; i < 40; ++i) {
    net.try_recv_wire(1, 0);
    net.try_recv_wire(0, 2);
  }
  expect_conservation(net);
}

TEST(Faults, IdenticalSeedsReplayIdenticalFaultSequences) {
  FaultPlan plan;
  plan.seed = 99;
  plan.drop_prob = 0.4;
  plan.corrupt_prob = 0.2;
  InMemoryNetwork a(faulty_config(plan, 3));
  InMemoryNetwork b(faulty_config(plan, 3));
  for (auto* net : {&a, &b}) {
    net->begin_round(1);
    for (int i = 0; i < 50; ++i) {
      net->send(0, 1, tiny_envelope());
      net->send(0, 2, tiny_envelope());
      net->send(1, 0, tiny_envelope());
    }
  }
  const FaultStats fa = a.fault_stats();
  const FaultStats fb = b.fault_stats();
  EXPECT_EQ(fa.dropped, fb.dropped);
  EXPECT_EQ(fa.corrupted, fb.corrupted);
  while (true) {
    const auto wa = a.try_recv_wire(1, 0);
    const auto wb = b.try_recv_wire(1, 0);
    EXPECT_EQ(wa.has_value(), wb.has_value());
    if (!wa.has_value() || !wb.has_value()) break;
    EXPECT_EQ(*wa, *wb);
  }
}

TEST(Faults, SaveLoadStateRestoresQueuesAndStreams) {
  FaultPlan plan;
  plan.seed = 5;
  plan.drop_prob = 0.5;
  plan.corrupt_prob = 0.3;
  InMemoryNetwork a(faulty_config(plan, 3));
  a.begin_round(3);
  for (int i = 0; i < 10; ++i) a.send(0, 1, tiny_envelope());

  ByteBuffer buf;
  a.save_state(buf);
  InMemoryNetwork b(faulty_config(plan, 3));
  ByteReader reader(buf);
  b.load_state(reader);
  EXPECT_TRUE(reader.exhausted());
  EXPECT_EQ(b.pending_messages(), a.pending_messages());

  // Both fabrics now continue with identical fault streams and queues.
  for (auto* net : {&a, &b}) {
    for (int i = 0; i < 10; ++i) net->send(0, 1, tiny_envelope());
  }
  while (true) {
    const auto wa = a.try_recv_wire(1, 0);
    const auto wb = b.try_recv_wire(1, 0);
    EXPECT_EQ(wa.has_value(), wb.has_value());
    if (!wa.has_value() || !wb.has_value()) break;
    EXPECT_EQ(*wa, *wb);
  }
}

TEST(Faults, LoadStateRejectsMismatchedFabric) {
  FaultPlan plan;
  plan.seed = 5;
  plan.drop_prob = 0.5;
  InMemoryNetwork a(faulty_config(plan, 3));
  ByteBuffer buf;
  a.save_state(buf);
  {
    InMemoryNetwork wrong_size(faulty_config(plan, 4));
    ByteReader reader(buf);
    EXPECT_THROW(wrong_size.load_state(reader), Error);
  }
  {
    InMemoryNetwork no_faults(endpoint_config(3));
    ByteReader reader(buf);
    EXPECT_THROW(no_faults.load_state(reader), Error);
  }
}

TEST(Faults, LoadStateRejectsAWireImageLongerThanTheFile) {
  // A queued image's length is read from the snapshot, so it is checked
  // against the bytes left before anything is sized for it: a hostile
  // 2^62 must throw fedcav::Error, not std::bad_alloc.
  InMemoryNetwork a(faulty_config(FaultPlan{}));
  a.send(0, 1, tiny_envelope());
  ByteBuffer buf;
  a.save_state(buf);
  // round, endpoints, fault-stream count (0), inbox 0's count (0),
  // inbox 1's count (1), the queued image's source, then its length.
  const std::size_t length_at = 6 * 8;
  ASSERT_EQ(ByteReader(std::span(buf).subspan(length_at)).read_u64(),
            tiny_envelope().wire_size());
  ByteBuffer huge;
  write_u64(huge, std::uint64_t{1} << 62);
  std::copy(huge.begin(), huge.end(), buf.begin() + length_at);
  InMemoryNetwork b(faulty_config(FaultPlan{}));
  ByteReader reader(buf);
  EXPECT_THROW(b.load_state(reader), Error);
}

TEST(Faults, ValidateRejectsBadPlans) {
  const std::size_t n = 3;
  {
    FaultPlan plan;
    plan.drop_prob = 1.5;
    EXPECT_THROW(plan.validate(n), Error);
  }
  {
    FaultPlan plan;
    plan.jitter_s = -0.1;
    EXPECT_THROW(plan.validate(n), Error);
  }
  {
    FaultPlan plan;
    plan.crashes = {CrashWindow{/*rank=*/3, 1, 2}};  // rank out of range
    EXPECT_THROW(plan.validate(n), Error);
  }
  {
    FaultPlan plan;
    plan.crashes = {CrashWindow{1, /*first_round=*/4, /*last_round=*/2}};
    EXPECT_THROW(plan.validate(n), Error);
  }
  {
    FaultPlan plan;
    plan.crashes = {CrashWindow{1, /*first_round=*/0, /*last_round=*/2}};
    EXPECT_THROW(plan.validate(n), Error);  // rounds are 1-based
  }
}

TEST(Faults, ParseCrashSpec) {
  const auto windows = parse_crash_spec("3:2-5,7:1-1");
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0].rank, 3u);
  EXPECT_EQ(windows[0].first_round, 2u);
  EXPECT_EQ(windows[0].last_round, 5u);
  EXPECT_EQ(windows[1].rank, 7u);
  EXPECT_EQ(windows[1].first_round, 1u);
  EXPECT_EQ(windows[1].last_round, 1u);
  EXPECT_TRUE(parse_crash_spec("").empty());
  EXPECT_THROW(parse_crash_spec("3"), Error);
  EXPECT_THROW(parse_crash_spec("3:2"), Error);
  EXPECT_THROW(parse_crash_spec("a:1-2"), Error);
  EXPECT_THROW(parse_crash_spec("1:x-2"), Error);
}

}  // namespace
}  // namespace fedcav::comm
