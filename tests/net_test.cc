// Transport-layer unit tests: port validation, the WriteAll progress loop,
// LineDecoder/LineReader framing at the byte-cap boundary, and the Poller
// (both the epoll path and the poll(2) fallback).
#include "src/util/net.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

namespace xpathsat {
namespace net {
namespace {

// --- Port validation (the uint16_t-truncation bug class) -------------------

TEST(ValidatePortTest, AcceptsTheFullValidRange) {
  EXPECT_TRUE(ValidatePort(1, /*allow_ephemeral=*/false).ok());
  EXPECT_TRUE(ValidatePort(65535, /*allow_ephemeral=*/false).ok());
  EXPECT_TRUE(ValidatePort(0, /*allow_ephemeral=*/true).ok());
}

TEST(ValidatePortTest, RejectsOutOfRangeWithAStructuredMessage) {
  Status s = ValidatePort(70000, /*allow_ephemeral=*/true);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("70000"), std::string::npos) << s.message();
  EXPECT_NE(s.message().find("out of range"), std::string::npos)
      << s.message();

  EXPECT_FALSE(ValidatePort(-1, /*allow_ephemeral=*/true).ok());
  EXPECT_FALSE(ValidatePort(0, /*allow_ephemeral=*/false).ok());
  EXPECT_FALSE(ValidatePort(65536, /*allow_ephemeral=*/false).ok());
}

TEST(ValidatePortTest, ListenTcpRefusesPortsAUint16CastWouldTruncate) {
  // 70000 & 0xffff == 4464: the pre-fix behavior silently bound port 4464.
  int actual = -1;
  Result<ScopedFd> fd = ListenTcp("127.0.0.1", 70000, &actual);
  ASSERT_FALSE(fd.ok());
  EXPECT_NE(fd.error().find("out of range"), std::string::npos)
      << fd.error();
  EXPECT_EQ(actual, -1);
}

TEST(ValidatePortTest, ConnectTcpRefusesZeroAndOverlargePorts) {
  Result<ScopedFd> zero = ConnectTcp("127.0.0.1", 0);
  ASSERT_FALSE(zero.ok());
  EXPECT_NE(zero.error().find("out of range"), std::string::npos)
      << zero.error();
  Result<ScopedFd> big = ConnectTcp("127.0.0.1", 65536);
  ASSERT_FALSE(big.ok());
  EXPECT_NE(big.error().find("out of range"), std::string::npos)
      << big.error();
}

// --- WriteAll progress loop -------------------------------------------------

TEST(WriteAllTest, ZeroProgressReportsConnectionClosedNotStaleErrno) {
  // Leave a stale errno lying around: the n == 0 path must not read it.
  errno = EACCES;
  Status s = internal::WriteAllWith(
      [](const char*, size_t) -> ssize_t { return 0; }, "payload");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("connection closed"), std::string::npos)
      << s.message();
  EXPECT_EQ(s.message().find(std::strerror(EACCES)), std::string::npos)
      << "stale errno text leaked into: " << s.message();
}

TEST(WriteAllTest, RetriesEintrAndAssemblesShortWrites) {
  std::string sent;
  int eintr_left = 2;
  Status s = internal::WriteAllWith(
      [&](const char* buf, size_t len) -> ssize_t {
        if (eintr_left > 0) {
          --eintr_left;
          errno = EINTR;
          return -1;
        }
        size_t take = std::min<size_t>(len, 3);  // force short writes
        sent.append(buf, take);
        return static_cast<ssize_t>(take);
      },
      "hello, short writes");
  EXPECT_TRUE(s.ok()) << s.message();
  EXPECT_EQ(sent, "hello, short writes");
}

TEST(WriteAllTest, RealSendFailureCarriesErrno) {
  errno = 0;
  Status s = internal::WriteAllWith(
      [](const char*, size_t) -> ssize_t {
        errno = ECONNRESET;
        return -1;
      },
      "x");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find(std::strerror(ECONNRESET)), std::string::npos)
      << s.message();
}

TEST(WriteAllTest, EmptyPayloadIsTriviallyOk) {
  Status s = internal::WriteAllWith(
      [](const char*, size_t) -> ssize_t {
        ADD_FAILURE() << "send_fn called for empty payload";
        return -1;
      },
      "");
  EXPECT_TRUE(s.ok());
}

// --- LineDecoder boundary behavior ------------------------------------------

std::vector<std::pair<LineDecoder::Event, std::string>> DrainAll(
    LineDecoder* decoder) {
  std::vector<std::pair<LineDecoder::Event, std::string>> events;
  std::string line;
  for (;;) {
    LineDecoder::Event ev = decoder->Next(&line);
    if (ev == LineDecoder::Event::kNone) break;
    events.emplace_back(ev, line);
    if (ev == LineDecoder::Event::kEof) break;
  }
  return events;
}

TEST(LineDecoderTest, LineOfExactlyMaxBytesWithNewlineIsALine) {
  LineDecoder decoder(/*max_line_bytes=*/8);
  const std::string line(8, 'a');
  const std::string input = line + "\n";
  decoder.Feed(input.data(), input.size());
  auto events = DrainAll(&decoder);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].first, LineDecoder::Event::kLine);
  EXPECT_EQ(events[0].second, line);
}

TEST(LineDecoderTest, LineOfExactlyMaxBytesWithoutNewlineNeedsEof) {
  LineDecoder decoder(/*max_line_bytes=*/8);
  const std::string line(8, 'b');
  decoder.Feed(line.data(), line.size());
  // Without EOF the decoder cannot know the line ended: kNone, not
  // kOversized — exactly max bytes might still grow a '\n' next Feed.
  std::string out;
  EXPECT_EQ(decoder.Next(&out), LineDecoder::Event::kNone);
  decoder.SignalEof();
  auto events = DrainAll(&decoder);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].first, LineDecoder::Event::kLine);
  EXPECT_EQ(events[0].second, line);
  EXPECT_EQ(events[1].first, LineDecoder::Event::kEof);
}

TEST(LineDecoderTest, OneByteOverMaxIsOversizedTerminatedOrNot) {
  {
    LineDecoder decoder(/*max_line_bytes=*/8);
    const std::string input = std::string(9, 'c') + "\n";
    decoder.Feed(input.data(), input.size());
    auto events = DrainAll(&decoder);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].first, LineDecoder::Event::kOversized);
  }
  {
    LineDecoder decoder(/*max_line_bytes=*/8);
    const std::string input(9, 'd');  // unterminated
    decoder.Feed(input.data(), input.size());
    decoder.SignalEof();
    auto events = DrainAll(&decoder);
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].first, LineDecoder::Event::kOversized);
    EXPECT_EQ(events[1].first, LineDecoder::Event::kEof);
  }
}

TEST(LineDecoderTest, StreamStaysUsableAfterAnOversizedLine) {
  LineDecoder decoder(/*max_line_bytes=*/8);
  const std::string input = std::string(100, 'e') + "\nnext\n";
  // Feed byte by byte: the oversized line spans many Feed calls and the
  // decoder must keep its buffered footprint bounded while discarding.
  for (char c : input) decoder.Feed(&c, 1);
  auto events = DrainAll(&decoder);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].first, LineDecoder::Event::kOversized);
  EXPECT_EQ(events[1].first, LineDecoder::Event::kLine);
  EXPECT_EQ(events[1].second, "next");
}

TEST(LineDecoderTest, CrLfAndEmptyLines) {
  LineDecoder decoder(/*max_line_bytes=*/64);
  const std::string input = "one\r\n\ntwo\n";
  decoder.Feed(input.data(), input.size());
  auto events = DrainAll(&decoder);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].second, "one");
  EXPECT_EQ(events[1].second, "");
  EXPECT_EQ(events[2].second, "two");
}

// Regression: the '\r' of a CR-LF terminator used to count against
// max_line_bytes, giving CR-LF clients one byte less budget than LF clients.
// The cap is on line *content*; the terminator — one byte or two — is free.
TEST(LineDecoderTest, CrLfTerminatorDoesNotCountAgainstTheCap) {
  const std::string exact(8, 'a');
  const std::string over(9, 'b');
  struct Case {
    std::string input;
    LineDecoder::Event want;
    std::string want_line;  // checked for kLine only
  };
  const Case cases[] = {
      {exact + "\n", LineDecoder::Event::kLine, exact},
      {exact + "\r\n", LineDecoder::Event::kLine, exact},
      {over + "\n", LineDecoder::Event::kOversized, ""},
      {over + "\r\n", LineDecoder::Event::kOversized, ""},
  };
  for (const Case& c : cases) {
    // All at once: the terminated-line limit check sees the whole line.
    {
      LineDecoder decoder(/*max_line_bytes=*/8);
      decoder.Feed(c.input.data(), c.input.size());
      auto events = DrainAll(&decoder);
      ASSERT_EQ(events.size(), 1u) << c.input;
      EXPECT_EQ(events[0].first, c.want) << c.input;
      if (c.want == LineDecoder::Event::kLine) {
        EXPECT_EQ(events[0].second, c.want_line);
      }
    }
    // Byte by byte: the incremental limit check must not fire early on the
    // pending '\r' either.
    {
      LineDecoder decoder(/*max_line_bytes=*/8);
      std::vector<std::pair<LineDecoder::Event, std::string>> events;
      for (char b : c.input) {
        decoder.Feed(&b, 1);
        auto drained = DrainAll(&decoder);
        events.insert(events.end(), drained.begin(), drained.end());
      }
      ASSERT_EQ(events.size(), 1u) << c.input;
      EXPECT_EQ(events[0].first, c.want) << c.input;
      if (c.want == LineDecoder::Event::kLine) {
        EXPECT_EQ(events[0].second, c.want_line);
      }
    }
  }
}

TEST(LineDecoderTest, UnterminatedEofTailWithCrGetsTheFullCap) {
  // exactly-max content + '\r' + EOF: the trailing '\r' is stripped like a
  // terminator fragment, not charged as content.
  {
    LineDecoder decoder(/*max_line_bytes=*/8);
    const std::string input = std::string(8, 'a') + "\r";
    decoder.Feed(input.data(), input.size());
    std::string out;
    EXPECT_EQ(decoder.Next(&out), LineDecoder::Event::kNone);
    decoder.SignalEof();
    auto events = DrainAll(&decoder);
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].first, LineDecoder::Event::kLine);
    EXPECT_EQ(events[0].second, std::string(8, 'a'));
    EXPECT_EQ(events[1].first, LineDecoder::Event::kEof);
  }
  // max+1 content + '\r' + EOF is still oversized.
  {
    LineDecoder decoder(/*max_line_bytes=*/8);
    const std::string input = std::string(9, 'a') + "\r";
    decoder.Feed(input.data(), input.size());
    decoder.SignalEof();
    auto events = DrainAll(&decoder);
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].first, LineDecoder::Event::kOversized);
    EXPECT_EQ(events[1].first, LineDecoder::Event::kEof);
  }
  // A '\r' that is NOT trailing is ordinary content and counts: 8 content
  // bytes where one is '\r' mid-line stays a line; '\r' + 8 more is over.
  {
    LineDecoder decoder(/*max_line_bytes=*/8);
    const std::string input = "abc\rdefg\n";  // 8 content bytes
    decoder.Feed(input.data(), input.size());
    auto events = DrainAll(&decoder);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].first, LineDecoder::Event::kLine);
    EXPECT_EQ(events[0].second, "abc\rdefg");
  }
}

// --- LineDecoder binary frames ----------------------------------------------

std::string Frame(const std::string& payload) {
  std::string frame(1, LineDecoder::kFrameMarker);
  const uint32_t n = static_cast<uint32_t>(payload.size());
  frame.push_back(static_cast<char>((n >> 24) & 0xff));
  frame.push_back(static_cast<char>((n >> 16) & 0xff));
  frame.push_back(static_cast<char>((n >> 8) & 0xff));
  frame.push_back(static_cast<char>(n & 0xff));
  frame += payload;
  return frame;
}

TEST(LineDecoderTest, BinaryFramesInterleaveWithTextLines) {
  LineDecoder decoder(/*max_line_bytes=*/64);
  decoder.set_allow_binary(true);
  const std::string input =
      "text one\n" + Frame("query d q1") + Frame("") + "text two\r\n";
  // Byte-by-byte feed exercises partial headers and partial payloads.
  std::vector<std::pair<LineDecoder::Event, std::string>> events;
  for (char b : input) {
    decoder.Feed(&b, 1);
    auto drained = DrainAll(&decoder);
    events.insert(events.end(), drained.begin(), drained.end());
  }
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].first, LineDecoder::Event::kLine);
  EXPECT_EQ(events[0].second, "text one");
  EXPECT_EQ(events[1].first, LineDecoder::Event::kFrame);
  EXPECT_EQ(events[1].second, "query d q1");
  EXPECT_EQ(events[2].first, LineDecoder::Event::kFrame);
  EXPECT_EQ(events[2].second, "");
  EXPECT_EQ(events[3].first, LineDecoder::Event::kLine);
  EXPECT_EQ(events[3].second, "text two");
}

TEST(LineDecoderTest, FramePayloadIsVerbatimIncludingNewlinesAndNuls) {
  LineDecoder decoder(/*max_line_bytes=*/64);
  decoder.set_allow_binary(true);
  const std::string payload = std::string("a\nb\r\n\0c", 7);
  const std::string input = Frame(payload);
  decoder.Feed(input.data(), input.size());
  auto events = DrainAll(&decoder);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].first, LineDecoder::Event::kFrame);
  EXPECT_EQ(events[0].second, payload);
}

TEST(LineDecoderTest, FrameDeclaringMoreThanMaxLineBytesIsBadFrame) {
  LineDecoder decoder(/*max_line_bytes=*/64);
  decoder.set_allow_binary(true);
  std::string header(1, LineDecoder::kFrameMarker);
  header += std::string("\xff\xff\xff\xff", 4);  // 4 GiB declared
  decoder.Feed(header.data(), header.size());
  std::string out;
  EXPECT_EQ(decoder.Next(&out), LineDecoder::Event::kBadFrame);
  EXPECT_NE(out.find("4294967295"), std::string::npos) << out;
}

TEST(LineDecoderTest, FrameTruncatedByEofIsBadFrameNotAHang) {
  // Truncated mid-header and truncated mid-payload.
  for (size_t keep : {1u, 3u, 7u}) {
    LineDecoder decoder(/*max_line_bytes=*/64);
    decoder.set_allow_binary(true);
    const std::string frame = Frame("payload");
    decoder.Feed(frame.data(), std::min(keep, frame.size()));
    std::string out;
    EXPECT_EQ(decoder.Next(&out), LineDecoder::Event::kNone);
    decoder.SignalEof();
    EXPECT_EQ(decoder.Next(&out), LineDecoder::Event::kBadFrame) << keep;
  }
}

TEST(LineDecoderTest, WithoutOptInAMarkerByteIsJustLineContent) {
  LineDecoder decoder(/*max_line_bytes=*/64);
  const std::string input = std::string("\0abc\n", 5);
  decoder.Feed(input.data(), input.size());
  auto events = DrainAll(&decoder);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].first, LineDecoder::Event::kLine);
  EXPECT_EQ(events[0].second, std::string("\0abc", 4));
}

// --- LineReader (blocking loop over the decoder) ----------------------------

TEST(LineReaderTest, BoundaryLinesAcrossARealPipe) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::string exact(16, 'x');
  const std::string over(17, 'y');
  const std::string payload = exact + "\n" + over + "\n" + exact;  // no '\n'
  ASSERT_EQ(::write(fds[1], payload.data(), payload.size()),
            static_cast<ssize_t>(payload.size()));
  ::close(fds[1]);

  LineReader reader(fds[0], /*max_line_bytes=*/16);
  std::string line, error;
  EXPECT_EQ(reader.ReadLine(&line, &error), LineReader::Event::kLine);
  EXPECT_EQ(line, exact);
  EXPECT_EQ(reader.ReadLine(&line, &error), LineReader::Event::kOversized);
  EXPECT_EQ(reader.ReadLine(&line, &error), LineReader::Event::kLine);
  EXPECT_EQ(line, exact) << "unterminated tail at EOF is still a line";
  EXPECT_EQ(reader.ReadLine(&line, &error), LineReader::Event::kEof);
  ::close(fds[0]);
}

// --- Poller (epoll and the poll(2) fallback) --------------------------------

class PollerTest : public ::testing::TestWithParam<bool> {};

TEST_P(PollerTest, ReportsReadinessTimeoutAndRemoval) {
  Poller poller(/*force_poll=*/GetParam());
  ASSERT_TRUE(poller.ok());
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_TRUE(poller.Add(fds[0]).ok());
  EXPECT_EQ(poller.watched_fds(), 1u);
  EXPECT_FALSE(poller.Add(fds[0]).ok()) << "double-add must be an error";

  std::vector<Poller::Ready> ready;
  Result<int> n = poller.Wait(&ready, /*timeout_ms=*/0);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 0) << "nothing written yet";

  ASSERT_EQ(::write(fds[1], "z", 1), 1);
  n = poller.Wait(&ready, /*timeout_ms=*/1000);
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(n.value(), 1);
  EXPECT_EQ(ready[0].fd, fds[0]);
  EXPECT_TRUE(ready[0].events & Poller::kReadable);

  ASSERT_TRUE(poller.Remove(fds[0]).ok());
  EXPECT_EQ(poller.watched_fds(), 0u);
  n = poller.Wait(&ready, /*timeout_ms=*/0);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 0);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST_P(PollerTest, PeerCloseSurfacesAsReadableSoReadsSeeEof) {
  Poller poller(/*force_poll=*/GetParam());
  ASSERT_TRUE(poller.ok());
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_TRUE(poller.Add(fds[0]).ok());
  ::close(fds[1]);
  std::vector<Poller::Ready> ready;
  Result<int> n = poller.Wait(&ready, /*timeout_ms=*/1000);
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(n.value(), 1);
  // Whether the OS reports it as HUP or plain readable, the reactor's
  // contract is that a read attempt now sees EOF.
  EXPECT_TRUE(ready[0].events & (Poller::kReadable | Poller::kHangup));
  poller.Remove(fds[0]);
  ::close(fds[0]);
}

INSTANTIATE_TEST_SUITE_P(EpollAndPollFallback, PollerTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "ForcePoll" : "Default";
                         });

}  // namespace
}  // namespace net
}  // namespace xpathsat
