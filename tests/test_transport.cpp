// Unit + property tests for the stream transport layer (DESIGN.md
// §14/§16): length-prefixed framing with the reject-before-allocate
// hostile-length gate, the HELLO/ACCEPT handshake (version negotiation,
// constant-time auth, rank assignment, reject statuses), and the
// SocketTransport/TcpTransport contract — including the ascending-rank
// try_recv_any_wire order it shares with InMemoryNetwork and the
// peer_closed() drain semantics the daemon's dropout accounting rides
// on. The version-skew tests drive both backends through the
// proto_*_override knobs to simulate mixed builds.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <stdlib.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "src/comm/frame.hpp"
#include "src/comm/message.hpp"
#include "src/comm/socket_transport.hpp"
#include "src/comm/tcp_transport.hpp"
#include "src/utils/error.hpp"
#include "tests/property.hpp"

namespace fedcav::comm {
namespace {

Envelope metadata_envelope(std::uint64_t round) {
  MetadataMsg msg;
  msg.round = round;
  return Envelope{MessageType::kMetadataReport, msg.encode()};
}

// --------------------------------------------------------- FrameDecoder

TEST(FrameDecoder, RoundTripsMultipleFrames) {
  ByteBuffer stream;
  append_frame(stream, metadata_envelope(1).encode());
  append_frame(stream, metadata_envelope(2).encode());
  append_frame(stream, metadata_envelope(3).encode());

  FrameDecoder decoder(1 << 20);
  ASSERT_TRUE(decoder.push(stream.data(), stream.size()));
  for (std::uint64_t round = 1; round <= 3; ++round) {
    const std::optional<ByteBuffer> frame = decoder.next_frame();
    ASSERT_TRUE(frame.has_value());
    const Envelope env = Envelope::decode(*frame);
    ByteReader reader(env.payload);
    EXPECT_EQ(MetadataMsg::decode(reader).round, round);
  }
  EXPECT_FALSE(decoder.has_frame());
  EXPECT_FALSE(decoder.failed());
}

TEST(FrameDecoder, HandlesByteAtATimeDelivery) {
  // Partial reads are the norm on a stream socket: the 4-byte header
  // and the payload may straddle any number of read() calls.
  ByteBuffer stream;
  append_frame(stream, metadata_envelope(7).encode());
  FrameDecoder decoder(1 << 20);
  for (const std::uint8_t byte : stream) {
    ASSERT_TRUE(decoder.push(&byte, 1));
  }
  const std::optional<ByteBuffer> frame = decoder.next_frame();
  ASSERT_TRUE(frame.has_value());
  const Envelope env = Envelope::decode(*frame);
  ByteReader reader(env.payload);
  EXPECT_EQ(MetadataMsg::decode(reader).round, 7u);
}

TEST(FrameDecoder, RejectsZeroLengthPrefix) {
  FrameDecoder decoder(1 << 20);
  const std::uint8_t zero[4] = {0, 0, 0, 0};
  EXPECT_FALSE(decoder.push(zero, sizeof(zero)));
  EXPECT_TRUE(decoder.failed());
  EXPECT_FALSE(decoder.has_frame());
}

TEST(FrameDecoder, RejectsOversizedPrefixBeforePayload) {
  // A hostile 4 GiB announcement must fail at the header — the decoder
  // never sizes a payload buffer from an unvalidated length.
  FrameDecoder decoder(/*max_frame_bytes=*/64);
  const std::uint8_t huge[4] = {0xff, 0xff, 0xff, 0xff};
  EXPECT_FALSE(decoder.push(huge, sizeof(huge)));
  EXPECT_TRUE(decoder.failed());
  EXPECT_NE(decoder.error().find("4294967295"), std::string::npos);
  // The failed state is terminal: even well-formed input is discarded.
  ByteBuffer good;
  append_frame(good, metadata_envelope(1).encode());
  EXPECT_FALSE(decoder.push(good.data(), good.size()));
  EXPECT_FALSE(decoder.has_frame());
}

TEST(FrameDecoder, BoundaryLengthIsAccepted) {
  ByteBuffer payload(64, 0xab);
  ByteBuffer stream;
  append_frame(stream, payload);
  FrameDecoder decoder(/*max_frame_bytes=*/64);
  ASSERT_TRUE(decoder.push(stream.data(), stream.size()));
  const std::optional<ByteBuffer> frame = decoder.next_frame();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(*frame, payload);
}

TEST(FrameDecoderProperty, SplitInvariantRoundTrip) {
  // Any chunking of the same byte stream yields the same frames — the
  // decoder's state machine cannot depend on read() boundaries.
  proptest::check_property("frame split invariance", 200, [&](Rng& rng) {
    const std::size_t num_frames = 1 + rng.uniform_int(5);
    std::vector<ByteBuffer> payloads;
    ByteBuffer stream;
    for (std::size_t i = 0; i < num_frames; ++i) {
      ByteBuffer payload(1 + rng.uniform_int(300), 0);
      for (auto& b : payload) b = static_cast<std::uint8_t>(rng.uniform_int(256));
      append_frame(stream, payload);
      payloads.push_back(std::move(payload));
    }
    FrameDecoder decoder(1 << 20);
    std::size_t pos = 0;
    while (pos < stream.size()) {
      const std::size_t chunk =
          std::min<std::size_t>(1 + rng.uniform_int(64), stream.size() - pos);
      ASSERT_TRUE(decoder.push(stream.data() + pos, chunk));
      pos += chunk;
    }
    for (const ByteBuffer& expected : payloads) {
      const std::optional<ByteBuffer> frame = decoder.next_frame();
      ASSERT_TRUE(frame.has_value());
      EXPECT_EQ(*frame, expected);
    }
    EXPECT_FALSE(decoder.has_frame());
  });
}

TEST(FrameDecoderProperty, AdversarialPrefixNeverOverAllocates) {
  // Satellite 2: random streams of valid frames with a hostile length
  // prefix spliced in. Frames before the bad prefix decode normally;
  // the bad prefix itself must flip the decoder into the terminal
  // failed state without ever producing an oversized frame.
  constexpr std::size_t kMax = 4096;
  proptest::check_property("hostile prefix", 300, [&](Rng& rng) {
    ByteBuffer stream;
    const std::size_t good_before = rng.uniform_int(3);
    for (std::size_t i = 0; i < good_before; ++i) {
      append_frame(stream, ByteBuffer(1 + rng.uniform_int(64), 0x5a));
    }
    // Hostile prefix: 0, or anything above kMax (up to 0xffffffff).
    const std::uint32_t announced =
        rng.uniform_int(2) == 0
            ? 0
            : static_cast<std::uint32_t>(
                  kMax + 1 +
                  rng.uniform_int(0xffffffffULL - static_cast<std::uint64_t>(kMax) - 1));
    for (int b = 0; b < 4; ++b) {
      stream.push_back(static_cast<std::uint8_t>(announced >> (8 * b)));
    }
    // Garbage after the bad prefix must also be discarded.
    const std::size_t garbage = rng.uniform_int(32);
    for (std::size_t i = 0; i < garbage; ++i) {
      stream.push_back(static_cast<std::uint8_t>(rng.uniform_int(256)));
    }

    FrameDecoder decoder(kMax);
    (void)decoder.push(stream.data(), stream.size());
    EXPECT_TRUE(decoder.failed());
    std::size_t frames = 0;
    while (auto frame = decoder.next_frame()) {
      EXPECT_LE(frame->size(), kMax);
      frames += 1;
    }
    EXPECT_EQ(frames, good_before);
  });
}

// ----------------------------------------------------------- handshake

TEST(Handshake, HelloRoundTrip) {
  HelloMsg msg;
  msg.proto_min = 1;
  msg.proto_max = 3;
  msg.requested_rank = 7;
  msg.auth_token = encode_auth_token("s3cret");
  const ByteBuffer wire = msg.encode();
  EXPECT_EQ(wire.size(), kHelloBytes);
  const std::optional<HelloMsg> back = HelloMsg::decode(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->proto_min, 1u);
  EXPECT_EQ(back->proto_max, 3u);
  EXPECT_EQ(back->requested_rank, 7u);
  EXPECT_TRUE(auth_tokens_equal(back->auth_token, encode_auth_token("s3cret")));
  EXPECT_FALSE(auth_tokens_equal(back->auth_token, encode_auth_token("wrong")));
}

TEST(Handshake, AuthTokenEncodingIsBoundedAndPadded) {
  // The empty token is all zeroes (the "no auth" default both sides
  // share), exactly kAuthTokenBytes fits, one byte more throws — silent
  // truncation would make two distinct secrets compare equal.
  EXPECT_TRUE(auth_tokens_equal(encode_auth_token(""),
                                std::array<std::uint8_t, kAuthTokenBytes>{}));
  EXPECT_NO_THROW(encode_auth_token(std::string(kAuthTokenBytes, 'x')));
  EXPECT_THROW(encode_auth_token(std::string(kAuthTokenBytes + 1, 'x')), Error);
  // Padding is part of the comparison: a prefix is not a match.
  EXPECT_FALSE(auth_tokens_equal(encode_auth_token("abc"),
                                 encode_auth_token("abcd")));
}

TEST(Handshake, AcceptRoundTrip) {
  AcceptMsg msg;
  msg.status = HandshakeStatus::kRankUnavailable;
  msg.proto = 2;
  msg.rank = 3;
  msg.num_endpoints = 5;
  const std::optional<AcceptMsg> back = AcceptMsg::decode(msg.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->status, HandshakeStatus::kRankUnavailable);
  EXPECT_EQ(back->proto, 2u);
  EXPECT_EQ(back->rank, 3u);
  EXPECT_EQ(back->num_endpoints, 5u);
}

TEST(Handshake, RejectsBadMagicAndShortBuffers) {
  ByteBuffer wire = HelloMsg{}.encode();
  wire[0] ^= 0x01;
  EXPECT_FALSE(HelloMsg::decode(wire).has_value());
  EXPECT_FALSE(HelloMsg::decode(ByteBuffer(kHelloBytes - 1, 0)).has_value());
  EXPECT_FALSE(AcceptMsg::decode(HelloMsg{}.encode()).has_value());  // wrong magic
}

TEST(Handshake, RejectsInvertedVersionRange) {
  HelloMsg msg;
  msg.proto_min = 5;
  msg.proto_max = 2;
  EXPECT_FALSE(HelloMsg::decode(msg.encode()).has_value());
}

// ------------------------------------------------------ SocketTransport

std::string temp_socket_path(const char* name) {
  char dir[] = "/tmp/fedcavXXXXXX";
  const char* made = ::mkdtemp(dir);
  EXPECT_NE(made, nullptr);
  return std::string(dir) + "/" + name;
}

TEST(SocketTransport, HandshakeAssignsSequentialRanks) {
  const std::string path = temp_socket_path("fed.sock");
  std::unique_ptr<SocketTransport> w1, w2;
  std::thread workers([&] {
    w1 = SocketTransport::connect(path, kAnyRank, {});
    w2 = SocketTransport::connect(path, kAnyRank, {});
  });
  auto daemon = SocketTransport::serve(path, 2, {});
  workers.join();
  EXPECT_EQ(daemon->local_rank(), 0u);
  EXPECT_EQ(daemon->num_endpoints(), 3u);
  EXPECT_EQ(w1->local_rank(), 1u);
  EXPECT_EQ(w2->local_rank(), 2u);
  EXPECT_EQ(w1->num_endpoints(), 3u);
  EXPECT_EQ(w1->protocol_version(), kProtocolVersion);
}

TEST(SocketTransport, HonorsRequestedRankAndFillsGaps) {
  const std::string path = temp_socket_path("fed.sock");
  std::unique_ptr<SocketTransport> w1, w2;
  std::thread workers([&] {
    w1 = SocketTransport::connect(path, 2, {});        // explicit rank 2
    w2 = SocketTransport::connect(path, kAnyRank, {});  // lowest free = 1
  });
  auto daemon = SocketTransport::serve(path, 2, {});
  workers.join();
  EXPECT_EQ(w1->local_rank(), 2u);
  EXPECT_EQ(w2->local_rank(), 1u);
}

TEST(SocketTransport, RejectsUnavailableRank) {
  const std::string path = temp_socket_path("fed.sock");
  std::unique_ptr<SocketTransport> ok;
  std::thread workers([&] {
    // Rank 0 is the daemon itself — never grantable to a worker.
    EXPECT_THROW(SocketTransport::connect(path, 0, {}), Error);
    ok = SocketTransport::connect(path, 1, {});
  });
  auto daemon = SocketTransport::serve(path, 1, {});
  workers.join();
  EXPECT_EQ(ok->local_rank(), 1u);
}

/// Raw-socket HELLO exchange: send `hello` bytes, return the ACCEPT.
AcceptMsg raw_handshake(const std::string& path, const ByteBuffer& hello) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  // Retry until the daemon binds (the serve side starts concurrently).
  while (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    usleep(10000);
  }
  EXPECT_EQ(write_all(fd, hello.data(), hello.size()), IoStatus::kOk);
  ByteBuffer reply(kAcceptBytes);
  EXPECT_EQ(read_exact(fd, reply.data(), reply.size(), 10.0), IoStatus::kOk);
  ::close(fd);
  const std::optional<AcceptMsg> accept = AcceptMsg::decode(reply);
  EXPECT_TRUE(accept.has_value());
  return accept.value_or(AcceptMsg{});
}

TEST(SocketTransport, RejectsVersionMismatchThenAcceptsValidWorker) {
  const std::string path = temp_socket_path("fed.sock");
  AcceptMsg rejected;
  std::unique_ptr<SocketTransport> ok;
  std::thread workers([&] {
    HelloMsg future;
    future.proto_min = kProtocolVersion + 7;
    future.proto_max = kProtocolVersion + 9;
    rejected = raw_handshake(path, future.encode());
    ok = SocketTransport::connect(path, kAnyRank, {});
  });
  auto daemon = SocketTransport::serve(path, 1, {});
  workers.join();
  EXPECT_EQ(rejected.status, HandshakeStatus::kVersionMismatch);
  // The rejected connection consumed no rank and leaked no slot.
  EXPECT_EQ(ok->local_rank(), 1u);
}

TEST(SocketTransport, RejectsGarbageHelloAsMalformed) {
  const std::string path = temp_socket_path("fed.sock");
  AcceptMsg rejected;
  std::unique_ptr<SocketTransport> ok;
  std::thread workers([&] {
    rejected = raw_handshake(path, ByteBuffer(kHelloBytes, 0x42));
    ok = SocketTransport::connect(path, kAnyRank, {});
  });
  auto daemon = SocketTransport::serve(path, 1, {});
  workers.join();
  EXPECT_EQ(rejected.status, HandshakeStatus::kMalformedHello);
  EXPECT_EQ(ok->local_rank(), 1u);
}

TEST(SocketTransport, EnvelopeRoundTripBothDirections) {
  const std::string path = temp_socket_path("fed.sock");
  std::unique_ptr<SocketTransport> worker;
  std::thread thread([&] { worker = SocketTransport::connect(path, kAnyRank, {}); });
  auto daemon = SocketTransport::serve(path, 1, {});
  thread.join();

  daemon->send(0, 1, metadata_envelope(5));
  std::optional<ByteBuffer> wire;
  while (!(wire = worker->try_recv_wire(1, 0)).has_value()) worker->poll(0.05);
  const Envelope down_env = Envelope::decode(*wire);
  ByteReader down(down_env.payload);
  EXPECT_EQ(MetadataMsg::decode(down).round, 5u);

  worker->send(1, 0, metadata_envelope(6));
  std::size_t src = 99;
  while (!(wire = daemon->try_recv_any_wire(0, &src)).has_value()) daemon->poll(0.05);
  EXPECT_EQ(src, 1u);
  const Envelope up_env = Envelope::decode(*wire);
  ByteReader up(up_env.payload);
  EXPECT_EQ(MetadataMsg::decode(up).round, 6u);

  // Byte metering matches the in-memory rule: the Envelope image only,
  // never the 4-byte length prefix.
  EXPECT_EQ(daemon->stats(0).bytes_sent, metadata_envelope(5).wire_size());
  EXPECT_EQ(daemon->stats(1).bytes_sent, metadata_envelope(6).wire_size());
}

TEST(SocketTransport, RecvAnyDrainsLowestRankFirst) {
  // The same fairness contract InMemoryNetwork pins (test_comm.cpp):
  // with frames queued from both workers, rank 1 drains first even
  // though rank 2's arrived first.
  const std::string path = temp_socket_path("fed.sock");
  std::unique_ptr<SocketTransport> w1, w2;
  std::thread workers([&] {
    w1 = SocketTransport::connect(path, 1, {});
    w2 = SocketTransport::connect(path, 2, {});
  });
  auto daemon = SocketTransport::serve(path, 2, {});
  workers.join();

  w2->send(2, 0, metadata_envelope(22));
  // Wait until rank 2's frame is queued before rank 1 even sends.
  while (daemon->pending_messages() < 1) daemon->poll(0.05);
  w1->send(1, 0, metadata_envelope(11));
  while (daemon->pending_messages() < 2) daemon->poll(0.05);

  std::size_t src = 99;
  std::optional<ByteBuffer> wire = daemon->try_recv_any_wire(0, &src);
  ASSERT_TRUE(wire.has_value());
  EXPECT_EQ(src, 1u);
  wire = daemon->try_recv_any_wire(0, &src);
  ASSERT_TRUE(wire.has_value());
  EXPECT_EQ(src, 2u);
}

TEST(SocketTransport, PeerClosedOnlyAfterQueueDrained) {
  // Satellite 3: a worker that dies after sending must not lose the
  // bytes that already arrived — peer_closed() holds off until the
  // queue is empty, then the daemon books the dropout.
  const std::string path = temp_socket_path("fed.sock");
  std::unique_ptr<SocketTransport> worker;
  std::thread thread([&] { worker = SocketTransport::connect(path, kAnyRank, {}); });
  auto daemon = SocketTransport::serve(path, 1, {});
  thread.join();

  worker->send(1, 0, metadata_envelope(9));
  worker.reset();  // worker process "exits": daemon sees EOF

  // Drain EOF + the frame. poll() until the close is observed.
  while (!daemon->peer_closed(1) && daemon->pending_messages() == 0) {
    daemon->poll(0.05);
  }
  if (!daemon->peer_closed(1)) {
    // Frame arrived before (or with) the EOF: it must still deliver.
    std::optional<ByteBuffer> wire;
    while (!(wire = daemon->try_recv_wire(0, 1)).has_value()) daemon->poll(0.05);
    const Envelope env = Envelope::decode(*wire);
    ByteReader reader(env.payload);
    EXPECT_EQ(MetadataMsg::decode(reader).round, 9u);
  }
  while (!daemon->peer_closed(1)) daemon->poll(0.05);
  // Sends to the dead peer are metered, never throw (Transport rule).
  const std::uint64_t before = daemon->stats(0).bytes_sent;
  daemon->send(0, 1, metadata_envelope(10));
  EXPECT_EQ(daemon->stats(0).bytes_sent, before + metadata_envelope(10).wire_size());
}

TEST(SocketTransport, OversizedFrameDisconnectsPeer) {
  // A peer announcing more than max_frame_bytes is dropped before any
  // payload allocation; from the round loop's view it simply died.
  const std::string path = temp_socket_path("fed.sock");
  SocketTransportConfig small;
  small.max_frame_bytes = 64;
  std::unique_ptr<SocketTransport> worker;
  std::thread thread([&] { worker = SocketTransport::connect(path, kAnyRank, {}); });
  auto daemon = SocketTransport::serve(path, 1, small);
  thread.join();

  MetadataMsg msg;
  msg.round = 1;
  Envelope big{MessageType::kMetadataReport, msg.encode()};
  big.payload.resize(256, 0);  // CRC now stale, but framing rejects first
  worker->send(1, 0, big);
  while (!daemon->peer_closed(1)) daemon->poll(0.05);
  EXPECT_FALSE(daemon->try_recv_wire(0, 1).has_value());
}

// ------------------------------------------------------ authentication

TEST(SocketTransport, AcceptsMatchingAuthToken) {
  const std::string path = temp_socket_path("fed.sock");
  SocketTransportConfig auth;
  auth.auth_token = "round11-secret";
  std::unique_ptr<SocketTransport> worker;
  std::thread thread(
      [&] { worker = SocketTransport::connect(path, kAnyRank, auth); });
  auto daemon = SocketTransport::serve(path, 1, auth);
  thread.join();
  EXPECT_EQ(worker->local_rank(), 1u);
}

TEST(SocketTransport, RejectsWrongAuthTokenWithoutConsumingRank) {
  const std::string path = temp_socket_path("fed.sock");
  SocketTransportConfig good;
  good.auth_token = "right-token";
  std::unique_ptr<SocketTransport> ok;
  std::thread workers([&] {
    SocketTransportConfig bad = good;
    bad.auth_token = "wrong-token";
    try {
      SocketTransport::connect(path, kAnyRank, bad);
      ADD_FAILURE() << "wrong token must be rejected";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("auth rejected"), std::string::npos);
    }
    ok = SocketTransport::connect(path, kAnyRank, good);
  });
  auto daemon = SocketTransport::serve(path, 1, good);
  workers.join();
  // The rejected join consumed no rank: the honest worker still gets 1.
  EXPECT_EQ(ok->local_rank(), 1u);
}

// ------------------------------------------------------- version skew

TEST(SocketTransport, MixedBuildsNegotiateMinOfProtocolMaxes) {
  // A daemon speaking [1, 5] and a worker speaking [2, 7] must settle on
  // 5 — the newest protocol both builds implement.
  const std::string path = temp_socket_path("fed.sock");
  SocketTransportConfig daemon_cfg;
  daemon_cfg.proto_min_override = 1;
  daemon_cfg.proto_max_override = 5;
  SocketTransportConfig worker_cfg;
  worker_cfg.proto_min_override = 2;
  worker_cfg.proto_max_override = 7;
  std::unique_ptr<SocketTransport> worker;
  std::thread thread(
      [&] { worker = SocketTransport::connect(path, kAnyRank, worker_cfg); });
  auto daemon = SocketTransport::serve(path, 1, daemon_cfg);
  thread.join();
  EXPECT_EQ(worker->protocol_version(), 5u);
}

TEST(SocketTransport, DisjointVersionRangesRejectWithoutLeakingRank) {
  const std::string path = temp_socket_path("fed.sock");
  std::unique_ptr<SocketTransport> ok;
  std::thread workers([&] {
    SocketTransportConfig future;  // disjoint from the build's [1, 1]
    future.proto_min_override = kProtocolVersion + 7;
    future.proto_max_override = kProtocolVersion + 9;
    try {
      SocketTransport::connect(path, kAnyRank, future);
      ADD_FAILURE() << "disjoint version ranges must be rejected";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("version mismatch"),
                std::string::npos);
    }
    ok = SocketTransport::connect(path, kAnyRank, {});
  });
  auto daemon = SocketTransport::serve(path, 1, {});
  workers.join();
  EXPECT_EQ(ok->local_rank(), 1u);
}

// -------------------------------------------------------- TcpTransport

TEST(ParseHostPort, SplitsIpv4BracketedIpv6AndHostnames) {
  EXPECT_EQ(parse_host_port("127.0.0.1:9000").host, "127.0.0.1");
  EXPECT_EQ(parse_host_port("127.0.0.1:9000").port, "9000");
  EXPECT_EQ(parse_host_port("[::1]:9000").host, "::1");
  EXPECT_EQ(parse_host_port("[::1]:9000").port, "9000");
  EXPECT_EQ(parse_host_port("localhost:0").host, "localhost");
  EXPECT_EQ(parse_host_port("localhost:0").port, "0");
}

TEST(ParseHostPort, RejectsMalformedAddresses) {
  EXPECT_THROW(parse_host_port(""), Error);
  EXPECT_THROW(parse_host_port("noport"), Error);
  EXPECT_THROW(parse_host_port("host:"), Error);
  EXPECT_THROW(parse_host_port(":9000"), Error);
  EXPECT_THROW(parse_host_port("::1:9000"), Error);   // bare IPv6
  EXPECT_THROW(parse_host_port("[::1]9000"), Error);  // ']' without ':'
  EXPECT_THROW(parse_host_port("[::1:9000"), Error);  // unbalanced '['
  EXPECT_THROW(parse_host_port("host:12ab"), Error);  // non-numeric port
}

/// Loopback address with a PID-derived port: parallel test binaries must
/// not collide, and SO_REUSEADDR covers TIME_WAIT between tests. The
/// `slot` offset keeps tests within one binary off each other's port.
std::string test_tcp_address(int slot) {
  const int port = 21000 + static_cast<int>(::getpid() % 19000) + slot;
  return "127.0.0.1:" + std::to_string(port);
}

TEST(TcpTransport, EnvelopeRoundTripWithAuthAndMetering) {
  const std::string address = test_tcp_address(0);
  StreamTransportConfig cfg;
  cfg.auth_token = "tcp-secret";
  std::unique_ptr<TcpTransport> worker;
  std::thread thread(
      [&] { worker = TcpTransport::connect(address, kAnyRank, cfg); });
  auto daemon = TcpTransport::serve(address, 1, cfg);
  thread.join();
  EXPECT_EQ(std::to_string(daemon->local_port()),
            parse_host_port(address).port);
  EXPECT_EQ(worker->local_rank(), 1u);
  EXPECT_EQ(worker->protocol_version(), kProtocolVersion);

  daemon->send(0, 1, metadata_envelope(5));
  std::optional<ByteBuffer> wire;
  while (!(wire = worker->try_recv_wire(1, 0)).has_value()) worker->poll(0.05);
  const Envelope down_env = Envelope::decode(*wire);
  ByteReader down(down_env.payload);
  EXPECT_EQ(MetadataMsg::decode(down).round, 5u);

  worker->send(1, 0, metadata_envelope(6));
  std::size_t src = 99;
  while (!(wire = daemon->try_recv_any_wire(0, &src)).has_value()) {
    daemon->poll(0.05);
  }
  EXPECT_EQ(src, 1u);
  const Envelope up_env = Envelope::decode(*wire);
  ByteReader up(up_env.payload);
  EXPECT_EQ(MetadataMsg::decode(up).round, 6u);

  // Same metering rule as the Unix backend and InMemoryNetwork: the
  // Envelope image only, never the 4-byte length prefix.
  EXPECT_EQ(daemon->stats(0).bytes_sent, metadata_envelope(5).wire_size());
  EXPECT_EQ(daemon->stats(1).bytes_sent, metadata_envelope(6).wire_size());
}

TEST(TcpTransport, RejectsWrongAuthTokenWithoutConsumingRank) {
  const std::string address = test_tcp_address(1);
  StreamTransportConfig good;
  good.auth_token = "tcp-right";
  std::unique_ptr<TcpTransport> ok;
  std::thread workers([&] {
    StreamTransportConfig bad = good;
    bad.auth_token = "tcp-wrong";
    try {
      TcpTransport::connect(address, kAnyRank, bad);
      ADD_FAILURE() << "wrong token must be rejected";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("auth rejected"), std::string::npos);
    }
    ok = TcpTransport::connect(address, kAnyRank, good);
  });
  auto daemon = TcpTransport::serve(address, 1, good);
  workers.join();
  EXPECT_EQ(ok->local_rank(), 1u);
}

TEST(TcpTransport, VersionSkewMatchesSocketBackendSemantics) {
  // Same mixed-build negotiation as the Unix backend: overlapping
  // ranges settle on min(maxes), disjoint ranges reject cleanly and the
  // next compatible worker still gets rank 1.
  const std::string address = test_tcp_address(2);
  StreamTransportConfig daemon_cfg;
  daemon_cfg.proto_min_override = 1;
  daemon_cfg.proto_max_override = 5;
  std::unique_ptr<TcpTransport> skewed, ok;
  std::thread workers([&] {
    StreamTransportConfig disjoint;
    disjoint.proto_min_override = 6;
    disjoint.proto_max_override = 9;
    try {
      TcpTransport::connect(address, kAnyRank, disjoint);
      ADD_FAILURE() << "disjoint version ranges must be rejected";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("version mismatch"),
                std::string::npos);
    }
    StreamTransportConfig overlap;
    overlap.proto_min_override = 2;
    overlap.proto_max_override = 7;
    ok = TcpTransport::connect(address, kAnyRank, overlap);
  });
  auto daemon = TcpTransport::serve(address, 1, daemon_cfg);
  workers.join();
  EXPECT_EQ(ok->local_rank(), 1u);
  EXPECT_EQ(ok->protocol_version(), 5u);
}

TEST(TcpTransport, ServeAbortsOnRejectWhenConfigured) {
  // The daemon tool's fail-fast path (satellite 2): with
  // abort_on_reject a bad join kills the serve with the reason in the
  // error instead of waiting out the accept timeout.
  const std::string address = test_tcp_address(3);
  StreamTransportConfig daemon_cfg;
  daemon_cfg.auth_token = "gate";
  daemon_cfg.abort_on_reject = true;
  std::thread worker([&] {
    StreamTransportConfig bad;
    bad.auth_token = "not-the-gate";
    EXPECT_THROW(TcpTransport::connect(address, kAnyRank, bad), Error);
  });
  try {
    TcpTransport::serve(address, 1, daemon_cfg);
    ADD_FAILURE() << "serve must abort on the rejected join";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("auth rejected"), std::string::npos);
  }
  worker.join();
}

}  // namespace
}  // namespace fedcav::comm
