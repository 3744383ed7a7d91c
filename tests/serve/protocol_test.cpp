/// \file protocol_test.cpp
/// \brief Frame codec and request grammar: round trips, every negative
/// path's typed error (with alternative-naming details), and a fuzz pass
/// over truncated/garbled frame streams.
#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/rng.hpp"

namespace decycle::serve {
namespace {

using Status = FrameReader::Status;

/// Runs parse_request expecting a ProtocolError, returning it for detail
/// assertions.
ProtocolError expect_protocol_error(std::string_view payload, const ProtocolLimits& limits = {}) {
  try {
    (void)parse_request(payload, limits);
  } catch (const ProtocolError& e) {
    return e;
  }
  ADD_FAILURE() << "no ProtocolError for payload: " << payload;
  return ProtocolError(ErrorCode::kInternal, "unreachable");
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

TEST(ServeProtocol, FrameRoundTrip) {
  FrameReader reader;
  reader.feed(encode_frame("stats"));
  std::string payload;
  ASSERT_EQ(reader.next(payload), Status::kFrame);
  EXPECT_EQ(payload, "stats");
  EXPECT_EQ(reader.next(payload), Status::kNeedMore);
  EXPECT_FALSE(reader.mid_frame());
}

TEST(ServeProtocol, FrameByteAtATime) {
  const std::string frame = encode_frame("query tenant=a algo=tester k=5");
  FrameReader reader;
  std::string payload;
  for (std::size_t i = 0; i + 1 < frame.size(); ++i) {
    reader.feed(std::string_view(&frame[i], 1));
    ASSERT_EQ(reader.next(payload), Status::kNeedMore) << "at byte " << i;
    EXPECT_TRUE(reader.mid_frame());
  }
  reader.feed(std::string_view(&frame.back(), 1));
  ASSERT_EQ(reader.next(payload), Status::kFrame);
  EXPECT_EQ(payload, "query tenant=a algo=tester k=5");
}

TEST(ServeProtocol, MultipleFramesInOneFeed) {
  FrameReader reader;
  reader.feed(encode_frame("stats") + encode_frame("shutdown") + encode_frame(""));
  std::string payload;
  ASSERT_EQ(reader.next(payload), Status::kFrame);
  EXPECT_EQ(payload, "stats");
  ASSERT_EQ(reader.next(payload), Status::kFrame);
  EXPECT_EQ(payload, "shutdown");
  ASSERT_EQ(reader.next(payload), Status::kFrame);
  EXPECT_EQ(payload, "");
  EXPECT_EQ(reader.next(payload), Status::kNeedMore);
}

TEST(ServeProtocol, GarbledPrefixKillsTheStream) {
  FrameReader reader;
  reader.feed("x stats\n");
  std::string payload;
  ASSERT_EQ(reader.next(payload), Status::kError);
  EXPECT_NE(reader.error().find("length prefix"), std::string::npos);
  // Dead for good: even a well-formed follow-up frame is refused.
  reader.feed(encode_frame("stats"));
  EXPECT_EQ(reader.next(payload), Status::kError);
}

TEST(ServeProtocol, OversizedLengthPrefixIsFatal) {
  FrameReader reader(/*max_frame_bytes=*/64);
  reader.feed("65 " + std::string(65, 'a') + "\n");
  std::string payload;
  ASSERT_EQ(reader.next(payload), Status::kError);
  EXPECT_NE(reader.error().find("max_frame_bytes"), std::string::npos);
}

TEST(ServeProtocol, WrongLengthPrefixIsFatal) {
  FrameReader reader;
  reader.feed("4 stats\n");  // prefix says 4, payload is 5 + newline
  std::string payload;
  ASSERT_EQ(reader.next(payload), Status::kError);
  EXPECT_NE(reader.error().find("newline"), std::string::npos);
}

TEST(ServeProtocol, MissingSpaceAfterPrefixIsFatal) {
  FrameReader reader;
  reader.feed("5stats\n");
  std::string payload;
  ASSERT_EQ(reader.next(payload), Status::kError);
  EXPECT_NE(reader.error().find("space"), std::string::npos);
}

TEST(ServeFrameFuzz, TruncatedAndGarbledStreamsNeverCrash) {
  // Deterministic fuzz: take a valid multi-frame stream, then truncate at
  // every boundary and flip one byte at a time. The reader must always
  // answer kFrame/kNeedMore/kError — never crash, never hang, and once
  // kError always kError.
  std::string stream;
  for (const std::string_view p :
       {std::string_view("stats"), std::string_view("query tenant=a algo=tester k=5"),
        std::string_view(""), std::string_view("insert tenant=a edges=0-1")}) {
    stream += encode_frame(p);
  }
  util::Rng rng(0xf422);
  for (std::size_t cut = 0; cut <= stream.size(); ++cut) {
    FrameReader reader;
    reader.feed(std::string_view(stream).substr(0, cut));
    std::string payload;
    Status status = Status::kFrame;
    std::size_t frames = 0;
    while ((status = reader.next(payload)) == Status::kFrame) ++frames;
    EXPECT_LE(frames, 4u);
    EXPECT_EQ(status, Status::kNeedMore);  // truncation alone is never fatal
  }
  for (std::size_t trial = 0; trial < 200; ++trial) {
    std::string garbled = stream;
    const std::size_t at = rng.next_below(garbled.size());
    garbled[at] = static_cast<char>(rng.next_below(256));
    FrameReader reader;
    // Feed in random-sized slices to cross chunk boundaries.
    std::size_t pos = 0;
    std::string payload;
    bool dead = false;
    while (pos < garbled.size()) {
      const std::size_t len = 1 + rng.next_below(7);
      reader.feed(std::string_view(garbled).substr(pos, len));
      pos += len;
      for (;;) {
        const Status status = reader.next(payload);
        if (status == Status::kFrame) {
          EXPECT_FALSE(dead) << "frame produced after kError";
          continue;
        }
        if (status == Status::kError) {
          EXPECT_FALSE(reader.error().empty());
          dead = true;
        }
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Request grammar — negative paths with alternative-naming errors
// ---------------------------------------------------------------------------

TEST(ServeProtocol, UnknownVerbNamesTheVerbs) {
  const ProtocolError e = expect_protocol_error("frobnicate tenant=a");
  EXPECT_EQ(e.code(), ErrorCode::kBadRequest);
  EXPECT_NE(std::string(e.what()).find("verbs: create, insert, query"), std::string::npos);
}

TEST(ServeProtocol, EmptyAndMalformedTokens) {
  EXPECT_EQ(expect_protocol_error("").code(), ErrorCode::kBadRequest);
  EXPECT_EQ(expect_protocol_error("query  tenant=a").code(), ErrorCode::kBadRequest);
  EXPECT_EQ(expect_protocol_error("query tenant").code(), ErrorCode::kBadRequest);
  EXPECT_EQ(expect_protocol_error("query tenant=").code(), ErrorCode::kBadRequest);
  EXPECT_EQ(expect_protocol_error("query =a").code(), ErrorCode::kBadRequest);
}

TEST(ServeProtocol, UnknownKeyNamesAcceptedKeys) {
  const ProtocolError e = expect_protocol_error("query tenant=a algo=tester knob=7");
  EXPECT_EQ(e.code(), ErrorCode::kBadRequest);
  EXPECT_NE(std::string(e.what()).find("accepted keys: tenant, algo, k, model"),
            std::string::npos);
}

TEST(ServeProtocol, KeyOnWrongVerbNamesAcceptedKeys) {
  const ProtocolError e = expect_protocol_error("checkpoint tenant=a algo=tester");
  EXPECT_EQ(e.code(), ErrorCode::kBadRequest);
  EXPECT_NE(std::string(e.what()).find("accepted keys: tenant"), std::string::npos);
}

TEST(ServeProtocol, UnknownAlgoNamesRegisteredOnes) {
  const ProtocolError e = expect_protocol_error("query tenant=a algo=quantum k=5");
  EXPECT_EQ(e.code(), ErrorCode::kBadRequest);
  const std::string what = e.what();
  EXPECT_NE(what.find("registered:"), std::string::npos);
  EXPECT_NE(what.find("tester"), std::string::npos);
}

TEST(ServeProtocol, UnknownModelNamesRegisteredOnes) {
  const ProtocolError e = expect_protocol_error("query tenant=a algo=tester k=5 model=telepathy");
  EXPECT_EQ(e.code(), ErrorCode::kBadRequest);
  EXPECT_NE(std::string(e.what()).find("registered: congest, clique"), std::string::npos);
  // The broadcast model was removed: its name is as unknown as any other.
  const ProtocolError removed =
      expect_protocol_error("query tenant=a algo=color_coding k=5 model=broadcast");
  EXPECT_EQ(removed.code(), ErrorCode::kBadRequest);
  EXPECT_NE(std::string(removed.what()).find("unknown model 'broadcast'"), std::string::npos);
}

TEST(ServeProtocol, CapabilityViolationsAreTyped) {
  // c4 only accepts k=4 — a (algo, k) capability violation, not a parse bug.
  EXPECT_EQ(expect_protocol_error("query tenant=a algo=c4 k=5").code(), ErrorCode::kCapability);
  // k over the server's cap is a capability error that names the cap.
  const ProtocolError e = expect_protocol_error("query tenant=a algo=tester k=33");
  EXPECT_EQ(e.code(), ErrorCode::kCapability);
  EXPECT_NE(std::string(e.what()).find("max_query_k=32"), std::string::npos);
}

TEST(ServeProtocol, EpsilonRangeEnforced) {
  EXPECT_EQ(expect_protocol_error("query tenant=a algo=tester k=5 eps=0").code(),
            ErrorCode::kBadRequest);
  EXPECT_EQ(expect_protocol_error("query tenant=a algo=tester k=5 eps=1.5").code(),
            ErrorCode::kBadRequest);
  EXPECT_EQ(expect_protocol_error("query tenant=a algo=tester k=5 eps=nope").code(),
            ErrorCode::kBadRequest);
}

TEST(ServeProtocol, OversizedInsertBatchIsTyped) {
  ProtocolLimits limits;
  limits.max_insert_edges = 2;
  const ProtocolError e = expect_protocol_error("insert tenant=a edges=0-1,1-2,2-3", limits);
  EXPECT_EQ(e.code(), ErrorCode::kOversizedBatch);
  EXPECT_NE(std::string(e.what()).find("max_insert_edges=2"), std::string::npos);
}

TEST(ServeProtocol, SelfLoopAndMalformedEdges) {
  EXPECT_EQ(expect_protocol_error("insert tenant=a edges=3-3").code(), ErrorCode::kBadInsert);
  EXPECT_EQ(expect_protocol_error("insert tenant=a edges=1to2").code(), ErrorCode::kBadRequest);
  EXPECT_EQ(expect_protocol_error("insert tenant=a edges=1-2,,3-4").code(),
            ErrorCode::kBadRequest);
  EXPECT_EQ(expect_protocol_error("insert tenant=a edges=-2").code(), ErrorCode::kBadRequest);
}

TEST(ServeProtocol, RequiredFieldsEnforced) {
  EXPECT_EQ(expect_protocol_error("create n=8").code(), ErrorCode::kBadRequest);
  EXPECT_EQ(expect_protocol_error("create tenant=a").code(), ErrorCode::kBadRequest);
  EXPECT_EQ(expect_protocol_error("insert tenant=a").code(), ErrorCode::kBadRequest);
  EXPECT_EQ(expect_protocol_error("query tenant=a").code(), ErrorCode::kBadRequest);
  EXPECT_EQ(expect_protocol_error("checkpoint").code(), ErrorCode::kBadRequest);
}

TEST(ServeProtocol, ParsePositivePaths) {
  const Request create = parse_request("create tenant=web n=64 family=planted k=5 seed=9");
  EXPECT_EQ(create.verb, Verb::kCreate);
  EXPECT_EQ(create.tenant, "web");
  EXPECT_EQ(create.n, 64u);
  EXPECT_EQ(create.family, "planted");
  EXPECT_EQ(create.family_seed, 9u);

  const Request query = parse_request("query tenant=web algo=tester k=7 eps=0.25 seed=3 reps=2");
  EXPECT_EQ(query.verb, Verb::kQuery);
  ASSERT_NE(query.algo, nullptr);
  EXPECT_EQ(query.algo->name(), "tester");
  EXPECT_EQ(query.k, 7u);
  EXPECT_DOUBLE_EQ(query.epsilon, 0.25);
  EXPECT_EQ(query.seed, 3u);
  EXPECT_EQ(query.repetitions, 2u);

  const Request insert = parse_request("insert tenant=web edges=0-1,2-5");
  ASSERT_EQ(insert.edges.size(), 2u);
  EXPECT_EQ(insert.edges[0], (incremental::Insert{0, 1}));
  EXPECT_EQ(insert.edges[1], (incremental::Insert{2, 5}));
}

TEST(ServeProtocol, FormatRequestRoundTrips) {
  for (const std::string_view payload :
       {std::string_view("create tenant=web n=64 family=planted k=5 seed=9"),
        std::string_view("insert tenant=web edges=0-1,2-5"),
        std::string_view("query tenant=web algo=tester k=7 eps=0.25 seed=3 reps=2"),
        std::string_view("checkpoint tenant=web"), std::string_view("stats")}) {
    const Request parsed = parse_request(payload);
    EXPECT_EQ(format_request(parsed), payload);
  }
}

TEST(ServeProtocol, ReplyClassifiers) {
  EXPECT_TRUE(is_ok("OK query accepted=1"));
  EXPECT_TRUE(is_rejected(format_rejected("queue_full", 9)));
  EXPECT_TRUE(is_error(format_error(ErrorCode::kBadFrame, "x")));
  EXPECT_FALSE(is_ok("REJECTED overload"));
  const std::string rejected = format_rejected("queue_full", 9);
  EXPECT_NE(rejected.find("overload"), std::string::npos);
  EXPECT_NE(rejected.find("queue_depth=9"), std::string::npos);
}

TEST(ServeProtocol, HashTokensAreLowercaseUnpaddedHex) {
  EXPECT_EQ(format_hash(0), "0");
  EXPECT_EQ(format_hash(0xf), "f");
  EXPECT_EQ(format_hash(0xFEDCBA9876543210ULL), "fedcba9876543210");
}

}  // namespace
}  // namespace decycle::serve
