// The shared line protocol (src/server/protocol.h): strict parsing of every
// malformed shape (unknown verb, missing arguments, garbage ids, oversized
// and truncated lines), the format->parse round-trip property, and the reply
// formatters both front ends emit.
#include "src/server/protocol.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/rng.h"

namespace xpathsat {
namespace protocol {
namespace {

ParseResult Parse(const std::string& line) { return ParseCommandLine(line); }

TEST(ProtocolParseTest, BlankAndCommentLinesAreEmpty) {
  for (const char* line : {"", "   ", "\t", "# a comment", "   # indented",
                           "\r", "  \t \r"}) {
    EXPECT_EQ(Parse(line).status, ParseStatus::kEmpty) << "'" << line << "'";
  }
}

TEST(ProtocolParseTest, ParsesEveryVerb) {
  ParseResult auth = Parse("auth hunter2");
  ASSERT_EQ(auth.status, ParseStatus::kCommand);
  EXPECT_EQ(auth.command.verb, Verb::kAuth);
  EXPECT_EQ(auth.command.arg, "hunter2");

  // The secret is the whole remainder: interior spaces survive.
  ParseResult spaced = Parse("auth open sesame  ");
  ASSERT_EQ(spaced.status, ParseStatus::kCommand);
  EXPECT_EQ(spaced.command.arg, "open sesame");

  ParseResult health = Parse("health");
  ASSERT_EQ(health.status, ParseStatus::kCommand);
  EXPECT_EQ(health.command.verb, Verb::kHealth);

  ParseResult dtd = Parse("dtd catalog schemas/catalog.dtd");
  ASSERT_EQ(dtd.status, ParseStatus::kCommand);
  EXPECT_EQ(dtd.command.verb, Verb::kDtd);
  EXPECT_EQ(dtd.command.name, "catalog");
  EXPECT_EQ(dtd.command.arg, "schemas/catalog.dtd");

  ParseResult query = Parse("query catalog section/item[title]");
  ASSERT_EQ(query.status, ParseStatus::kCommand);
  EXPECT_EQ(query.command.verb, Verb::kQuery);
  EXPECT_EQ(query.command.name, "catalog");
  EXPECT_EQ(query.command.arg, "section/item[title]");

  // `q` is an alias for query.
  ParseResult q = Parse("q catalog **/para");
  ASSERT_EQ(q.status, ParseStatus::kCommand);
  EXPECT_EQ(q.command.verb, Verb::kQuery);
  EXPECT_EQ(q.command.arg, "**/para");

  ParseResult drop = Parse("drop catalog");
  ASSERT_EQ(drop.status, ParseStatus::kCommand);
  EXPECT_EQ(drop.command.verb, Verb::kDrop);
  EXPECT_EQ(drop.command.name, "catalog");

  ParseResult cancel = Parse("cancel 42");
  ASSERT_EQ(cancel.status, ParseStatus::kCommand);
  EXPECT_EQ(cancel.command.verb, Verb::kCancel);
  EXPECT_EQ(cancel.command.ticket_id, 42u);

  EXPECT_EQ(Parse("flush").command.verb, Verb::kFlush);
  EXPECT_EQ(Parse("stats").command.verb, Verb::kStats);
  EXPECT_EQ(Parse("quit").command.verb, Verb::kQuit);
  EXPECT_EQ(Parse("slow").command.verb, Verb::kSlow);

  // `metrics` takes an optional mode argument; only "prom" is defined.
  ParseResult metrics = Parse("metrics");
  ASSERT_EQ(metrics.status, ParseStatus::kCommand);
  EXPECT_EQ(metrics.command.verb, Verb::kMetrics);
  EXPECT_EQ(metrics.command.arg, "");
  ParseResult prom = Parse("metrics prom");
  ASSERT_EQ(prom.status, ParseStatus::kCommand);
  EXPECT_EQ(prom.command.verb, Verb::kMetrics);
  EXPECT_EQ(prom.command.arg, "prom");
}

TEST(ProtocolParseTest, HelloNegotiatesFeatureTokens) {
  ParseResult bare = Parse("hello");
  ASSERT_EQ(bare.status, ParseStatus::kCommand);
  EXPECT_EQ(bare.command.verb, Verb::kHello);
  EXPECT_EQ(bare.command.arg, "");

  ParseResult batch = Parse("hello batch");
  ASSERT_EQ(batch.status, ParseStatus::kCommand);
  EXPECT_EQ(batch.command.arg, "batch");

  ParseResult binary = Parse("hello binary");
  ASSERT_EQ(binary.status, ParseStatus::kCommand);
  EXPECT_EQ(binary.command.arg, "binary");

  // Request order is preserved (the grant echoes it back).
  EXPECT_EQ(Parse("hello batch binary").command.arg, "batch binary");
  EXPECT_EQ(Parse("hello binary batch").command.arg, "binary batch");
}

TEST(ProtocolParseTest, HelloRejectsUnknownAndDuplicateFeatures) {
  for (const char* line : {"hello gzip", "hello batch batch",
                           "hello binary binary", "hello batch gzip",
                           "hello batch binary batch"}) {
    ParseResult r = Parse(line);
    ASSERT_EQ(r.status, ParseStatus::kError) << line;
    EXPECT_EQ(r.error_line.rfind("err bad-args", 0), 0u) << line;
  }
}

TEST(ProtocolParseTest, BatchTakesAPositiveBoundedCount) {
  ParseResult one = Parse("batch 1");
  ASSERT_EQ(one.status, ParseStatus::kCommand);
  EXPECT_EQ(one.command.verb, Verb::kBatch);
  EXPECT_EQ(one.command.batch_count, 1u);

  ParseResult max = Parse("batch 1024");
  ASSERT_EQ(max.status, ParseStatus::kCommand);
  EXPECT_EQ(max.command.batch_count, kMaxBatchRequests);

  for (const char* line :
       {"batch", "batch x", "batch 0", "batch -3", "batch +3", "batch 12junk",
        "batch 1 extra", "batch 1025", "batch 99999999999999999999999"}) {
    ParseResult r = Parse(line);
    ASSERT_EQ(r.status, ParseStatus::kError) << line;
    EXPECT_EQ(r.error_line.rfind("err bad-args", 0), 0u)
        << line << " -> " << r.error_line;
  }
}

TEST(ProtocolParseTest, ToleratesWhitespaceAndCrLf) {
  ParseResult r = Parse("  query   a    A/B \t\r");
  ASSERT_EQ(r.status, ParseStatus::kCommand);
  EXPECT_EQ(r.command.name, "a");
  EXPECT_EQ(r.command.arg, "A/B");
}

TEST(ProtocolParseTest, UnknownVerbIsAStructuredError) {
  ParseResult r = Parse("nonsense-command with args");
  ASSERT_EQ(r.status, ParseStatus::kError);
  EXPECT_EQ(r.error_line.rfind("err unknown-verb", 0), 0u) << r.error_line;
  EXPECT_NE(r.error_line.find("nonsense-command"), std::string::npos);
}

TEST(ProtocolParseTest, MissingArgumentsAreStructuredErrors) {
  // Truncated forms of every argumented verb.
  for (const char* line : {"dtd", "dtd onlyname", "query", "query onlyname",
                           "q", "q onlyname", "drop", "cancel", "auth",
                           "auth   "}) {
    ParseResult r = Parse(line);
    ASSERT_EQ(r.status, ParseStatus::kError) << line;
    EXPECT_EQ(r.error_line.rfind("err bad-args", 0), 0u)
        << line << " -> " << r.error_line;
  }
}

TEST(ProtocolParseTest, TrailingJunkOnExactArityVerbsIsAnError) {
  for (const char* line : {"drop a b", "cancel 7 extra", "flush now",
                           "stats -v", "quit 0", "health check", "slow 5",
                           "metrics json", "metrics prom extra"}) {
    ParseResult r = Parse(line);
    ASSERT_EQ(r.status, ParseStatus::kError) << line;
    EXPECT_EQ(r.error_line.rfind("err bad-args", 0), 0u) << line;
  }
}

TEST(ProtocolParseTest, CancelIdMustBeAPositiveInteger) {
  for (const char* line : {"cancel x", "cancel -3", "cancel +3", "cancel 0",
                           "cancel 12junk", "cancel 99999999999999999999999"}) {
    ParseResult r = Parse(line);
    ASSERT_EQ(r.status, ParseStatus::kError) << line;
    EXPECT_EQ(r.error_line.rfind("err bad-args", 0), 0u) << line;
  }
  EXPECT_EQ(Parse("cancel 18446744073709551615").status,
            ParseStatus::kCommand);  // UINT64_MAX is a (theoretical) id
}

TEST(ProtocolParseTest, OversizedLineIsAStructuredError) {
  std::string line = "query a " + std::string(kMaxLineBytes, 'x');
  ParseResult r = Parse(line);
  ASSERT_EQ(r.status, ParseStatus::kError);
  EXPECT_EQ(r.error_line.rfind("err oversized-line", 0), 0u) << r.error_line;
  // Exactly at the cap still parses.
  std::string at_cap = "query a ";
  at_cap += std::string(kMaxLineBytes - at_cap.size(), 'x');
  EXPECT_EQ(Parse(at_cap).status, ParseStatus::kCommand);
}

// Round-trip property: formatting any valid command and parsing it back
// reproduces the command exactly. Names/paths/queries are drawn from a
// token alphabet (no interior whitespace in names, as the protocol
// requires).
TEST(ProtocolRoundTripTest, FormatThenParseIsIdentity) {
  Rng rng(0x5eed);
  const std::string name_chars =
      "abcdefghijklmnopqrstuvwxyz0123456789_-.";
  const std::string query_chars =
      "abcdefghijklmnopqrstuvwxyz*/[]|<>&!()=\"";
  auto random_token = [&](const std::string& alphabet, int min_len,
                          int max_len) {
    int len = rng.IntIn(min_len, max_len);
    std::string s;
    for (int i = 0; i < len; ++i) s += alphabet[rng.Below(alphabet.size())];
    return s;
  };
  for (int i = 0; i < 500; ++i) {
    Command c;
    switch (rng.IntIn(0, 12)) {
      case 9:
        c.verb = Verb::kMetrics;
        if (rng.Percent(50)) c.arg = "prom";
        break;
      case 10:
        c.verb = Verb::kSlow;
        break;
      case 11: {
        c.verb = Verb::kHello;
        static const char* const kFeatureSets[] = {"", "batch", "binary",
                                                   "batch binary",
                                                   "binary batch"};
        c.arg = kFeatureSets[rng.IntIn(0, 4)];
        break;
      }
      case 12:
        c.verb = Verb::kBatch;
        c.batch_count = static_cast<uint64_t>(
            rng.IntIn(1, static_cast<int>(kMaxBatchRequests)));
        break;
      case 7:
        c.verb = Verb::kAuth;
        // Interior spaces are legal in secrets (the arg is the remainder);
        // leading/trailing ones are not round-trippable by design.
        c.arg = random_token(name_chars, 1, 12) + " " +
                random_token(name_chars, 1, 12);
        break;
      case 8:
        c.verb = Verb::kHealth;
        break;
      case 0:
        c.verb = Verb::kDtd;
        c.name = random_token(name_chars, 1, 12);
        c.arg = random_token(name_chars, 1, 40);
        break;
      case 1:
        c.verb = Verb::kQuery;
        c.name = random_token(name_chars, 1, 12);
        c.arg = random_token(query_chars, 1, 60);
        break;
      case 2:
        c.verb = Verb::kDrop;
        c.name = random_token(name_chars, 1, 12);
        break;
      case 3:
        c.verb = Verb::kCancel;
        c.ticket_id = rng.Next() | 1;  // nonzero
        break;
      case 4:
        c.verb = Verb::kFlush;
        break;
      case 5:
        c.verb = Verb::kStats;
        break;
      default:
        c.verb = Verb::kQuit;
        break;
    }
    std::string line = FormatCommand(c);
    ParseResult r = Parse(line);
    ASSERT_EQ(r.status, ParseStatus::kCommand) << line;
    EXPECT_EQ(r.command.verb, c.verb) << line;
    EXPECT_EQ(r.command.name, c.name) << line;
    EXPECT_EQ(r.command.arg, c.arg) << line;
    EXPECT_EQ(r.command.ticket_id, c.ticket_id) << line;
    EXPECT_EQ(r.command.batch_count, c.batch_count) << line;
  }
}

TEST(ProtocolFormatTest, ResultLineShapes) {
  SatResponse ok;
  ok.status = Status::Ok();
  ok.report.decision = SatDecision::SatNoWitness();
  ok.report.algorithm = "reach-dp (Thm 4.1)";
  ok.elapsed_us = 12.34;
  ok.query_cache_hit = true;
  ok.memo_hit = true;
  std::string line = FormatResultLine(7, "A/B", ok);
  EXPECT_EQ(line.rfind("7 [sat    ] A/B -- reach-dp (Thm 4.1)", 0), 0u)
      << line;
  EXPECT_NE(line.find(" q-cached"), std::string::npos);
  EXPECT_NE(line.find(" memo"), std::string::npos);

  SatResponse err;
  err.status = Status::Error("query parse error: boom");
  std::string err_line = FormatResultLine(8, "((", err);
  EXPECT_EQ(err_line.rfind("8 [error  ] (( -- query parse error: boom", 0),
            0u)
      << err_line;
}

TEST(ProtocolFormatTest, StatsLineIsSingleLineJsonWithJsonFieldNames) {
  SatEngineStats stats;
  stats.requests = 11;
  stats.memo_hits = 5;
  stats.memo_misses = 6;
  stats.uptime_ms = 9876;
  stats.snapshot_seq = 4;
  stats.live_dtd_handles = 3;
  stats.live_compiled_artifacts = 2;
  std::string line = FormatStatsLine(stats);
  EXPECT_EQ(line.rfind("stats {", 0), 0u) << line;
  EXPECT_EQ(line.find('\n'), std::string::npos);
  // Field names mirror the CLI's --json stats block.
  for (const char* field :
       {"\"requests\": 11", "\"dtd_cache_hits\": 0", "\"dtd_cache_misses\": 0",
        "\"query_cache_hits\": 0", "\"query_cache_misses\": 0",
        "\"memo_hits\": 5", "\"memo_misses\": 6", "\"parse_errors\": 0",
        "\"cancellations\": 0", "\"deadline_expirations\": 0",
        "\"uptime_ms\": 9876", "\"snapshot_seq\": 4",
        "\"live_dtd_handles\": 3", "\"live_compiled_artifacts\": 2"}) {
    EXPECT_NE(line.find(field), std::string::npos) << field << " in " << line;
  }
}

TEST(ProtocolFormatTest, AckShapes) {
  EXPECT_EQ(FormatQueryAck(41), "ok query 41");
  EXPECT_EQ(FormatDtdAck("cat", 0xabcdef), "ok dtd cat fp=0000000000abcdef");
  EXPECT_EQ(FormatErr("unknown-dtd", "'x'"), "err unknown-dtd 'x'");
  EXPECT_EQ(FormatHelloAck(""), "ok hello");
  EXPECT_EQ(FormatHelloAck("batch binary"), "ok hello batch binary");
  EXPECT_EQ(FormatBatchAck(3, {7, 8, 9}), "ok batch 3 ids 7 8 9");
  EXPECT_EQ(FormatBatchDone(3), "ok batch 3 done");
}

TEST(ProtocolFormatTest, EncodeFrameIsMarkerLengthPayload) {
  std::string frame = EncodeFrame("query a b");
  ASSERT_EQ(frame.size(), 5u + 9u);
  EXPECT_EQ(frame[0], '\0');
  EXPECT_EQ(frame[1], '\0');
  EXPECT_EQ(frame[2], '\0');
  EXPECT_EQ(frame[3], '\0');
  EXPECT_EQ(frame[4], '\x09');
  EXPECT_EQ(frame.substr(5), "query a b");

  // Lengths above one byte land big-endian in the header.
  std::string big = EncodeFrame(std::string(0x0102, 'x'));
  EXPECT_EQ(big[3], '\x01');
  EXPECT_EQ(big[4], '\x02');
}

}  // namespace
}  // namespace protocol
}  // namespace xpathsat
