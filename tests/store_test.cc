// Persistent snapshot store (src/store/snapshot.h) and the engine's
// SaveSnapshot/LoadSnapshot on top of it. The robustness battery feeds the
// loader every kind of damaged snapshot — truncated, CRC-flipped,
// version-mismatched, fingerprint-forged — and asserts each degrades to a
// counted skip, never a crash, never a trusted record.
#include "src/store/snapshot.h"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/engine/sat_engine.h"
#include "src/sat/compiled_dtd.h"
#include "src/xml/dtd.h"
#include "tests/test_util.h"

namespace xpathsat {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return data;
}

void WriteFile(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  ASSERT_TRUE(out.good()) << path;
}

// Files in `path`'s directory whose names start with `path`'s name + ".tmp":
// the temporaries a writer for `path` may leave behind.
std::vector<std::string> LeftoverTemporaries(const std::string& path) {
  const std::filesystem::path target(path);
  const std::string prefix = target.filename().string() + ".tmp";
  std::vector<std::string> found;
  for (const auto& entry :
       std::filesystem::directory_iterator(target.parent_path())) {
    const std::string name = entry.path().filename().string();
    if (name.compare(0, prefix.size(), prefix) == 0) found.push_back(name);
  }
  return found;
}

// The mid-size schema used throughout: attributes, stars, a disjunction (so
// disjunction_free artifacts and the general-path artifacts both exist).
Dtd MakeCatalogDtd() {
  return ParseDtdOrDie(R"(root catalog
catalog -> section*
section -> heading, item*
heading -> eps
item -> title, (variant + eps), note*
title -> eps
variant -> eps
note -> eps
attrs item: id lang
attrs note: ref
)");
}

// --- Primitive codecs -----------------------------------------------------

TEST(SnapshotCodecTest, Crc32MatchesTheIeeeCheckValue) {
  // The canonical CRC-32 check value: crc32("123456789") = 0xCBF43926.
  const char* check = "123456789";
  EXPECT_EQ(store::Crc32(check, 9), 0xCBF43926u);
  // Seed chaining over discontiguous pieces equals one contiguous pass.
  uint32_t piecewise = store::Crc32(check, 4);
  piecewise = store::Crc32(check + 4, 5, piecewise);
  EXPECT_EQ(piecewise, 0xCBF43926u);
  EXPECT_EQ(store::Crc32("", 0), 0u);
}

TEST(SnapshotCodecTest, PrimitiveRoundTrip) {
  std::string buf;
  store::PutU8(&buf, 0xAB);
  store::PutU32(&buf, 0xDEADBEEFu);
  store::PutU64(&buf, 0x0123456789ABCDEFull);
  store::PutBool(&buf, true);
  store::PutBool(&buf, false);
  store::PutString(&buf, "hello\0world");  // embedded NUL is fine
  store::ByteReader reader(buf);
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  bool b1 = false, b2 = true;
  std::string s;
  EXPECT_TRUE(reader.ReadU8(&u8));
  EXPECT_TRUE(reader.ReadU32(&u32));
  EXPECT_TRUE(reader.ReadU64(&u64));
  EXPECT_TRUE(reader.ReadBool(&b1));
  EXPECT_TRUE(reader.ReadBool(&b2));
  EXPECT_TRUE(reader.ReadString(&s));
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_TRUE(b1);
  EXPECT_FALSE(b2);
  EXPECT_EQ(s, "hello");  // PutString took the C-string up to the NUL
  EXPECT_TRUE(reader.AtEnd());
}

TEST(SnapshotCodecTest, ByteReaderLatchesOnUnderflow) {
  std::string buf;
  store::PutU32(&buf, 7);
  store::ByteReader reader(buf);
  uint64_t v = 0;
  EXPECT_FALSE(reader.ReadU64(&v));  // only 4 bytes present
  EXPECT_FALSE(reader.ok());
  EXPECT_FALSE(reader.AtEnd());
  uint32_t u = 0;
  EXPECT_FALSE(reader.ReadU32(&u));  // latched: nothing reads after a miss
}

// --- File writer / reader -------------------------------------------------

TEST(SnapshotFileTest, WriteReadRoundTrip) {
  const std::string path = TempPath("snap_roundtrip.xpsnap");
  store::SnapshotWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  ASSERT_TRUE(
      writer.Append(store::RecordTag::kSchema, "payload-one").ok());
  ASSERT_TRUE(writer.Append(store::RecordTag::kMemoEntry, "").ok());
  ASSERT_TRUE(writer.Commit().ok());

  store::SnapshotReader reader;
  store::SnapshotOpenError err;
  ASSERT_TRUE(reader.Open(path, &err)) << err.detail;
  uint8_t tag = 0;
  std::string payload;
  EXPECT_EQ(reader.Next(&tag, &payload),
            store::SnapshotReader::Outcome::kRecord);
  EXPECT_EQ(tag, static_cast<uint8_t>(store::RecordTag::kSchema));
  EXPECT_EQ(payload, "payload-one");
  EXPECT_EQ(reader.Next(&tag, &payload),
            store::SnapshotReader::Outcome::kRecord);
  EXPECT_EQ(tag, static_cast<uint8_t>(store::RecordTag::kMemoEntry));
  EXPECT_EQ(payload, "");
  EXPECT_EQ(reader.Next(&tag, &payload), store::SnapshotReader::Outcome::kEof);
  std::remove(path.c_str());
}

TEST(SnapshotFileTest, CommitIsAtomicViaRename) {
  const std::string path = TempPath("snap_atomic.xpsnap");
  WriteFile(path, "previous contents");
  {
    // Abandoned writer (no Commit): the existing file must survive.
    store::SnapshotWriter writer;
    ASSERT_TRUE(writer.Open(path).ok());
    ASSERT_TRUE(writer.Append(store::RecordTag::kMemoEntry, "x").ok());
  }
  EXPECT_EQ(ReadFile(path), "previous contents");
  // And the temporary was removed.
  EXPECT_TRUE(LeftoverTemporaries(path).empty());
  // A committed writer leaves no temporary either.
  store::SnapshotWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  ASSERT_TRUE(writer.Commit().ok());
  EXPECT_TRUE(LeftoverTemporaries(path).empty());
  std::remove(path.c_str());
}

// Two engines holding different schemas save to one path at the same time,
// round after round. Each writer has its own temporary, so every save
// succeeds and every committed file is one writer's whole snapshot: the
// load reads it clean, with exactly one engine's schema and memo.
TEST(SnapshotFileTest, ConcurrentSavesToOnePathEachCommitWholeFiles) {
  const std::string path = TempPath("snap_concurrent.xpsnap");
  SatEngine engines[2];
  const Dtd schemas[2] = {MakeCatalogDtd(),
                          ParseDtdOrDie("root r\nr -> D*\nD -> eps\n")};
  for (int i = 0; i < 2; ++i) {
    SatRequest r;
    r.query = i == 0 ? "**/item" : "D";
    r.dtd = engines[i].RegisterDtd(schemas[i]);
    ASSERT_TRUE(engines[i].Run(r).status.ok());
  }
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> ready{0};
    SnapshotSaveResult saved[2];
    std::vector<std::thread> savers;
    for (int i = 0; i < 2; ++i) {
      savers.emplace_back([&, i] {
        ready.fetch_add(1);
        while (ready.load() < 2) {
        }
        saved[i] = engines[i].SaveSnapshot(path);
      });
    }
    for (std::thread& t : savers) t.join();
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(saved[i].status.ok())
          << "round " << round << ": " << saved[i].status.message();
    }
    SatEngine reader;
    SnapshotLoadResult loaded = reader.LoadSnapshot(path);
    ASSERT_TRUE(loaded.status.ok()) << "round " << round;
    EXPECT_EQ(loaded.corrupt_records, 0u) << "round " << round;
    EXPECT_EQ(loaded.rejected_records, 0u) << "round " << round;
    EXPECT_FALSE(loaded.truncated) << "round " << round;
    EXPECT_EQ(loaded.dtds_loaded, 1u) << "round " << round;
    EXPECT_EQ(loaded.memos_loaded, 1u) << "round " << round;
  }
  EXPECT_TRUE(LeftoverTemporaries(path).empty());
  std::remove(path.c_str());
}

TEST(SnapshotFileTest, MissingFileIsAnIoOpenError) {
  store::SnapshotReader reader;
  store::SnapshotOpenError err;
  EXPECT_FALSE(reader.Open(TempPath("snap_nonexistent.xpsnap"), &err));
  EXPECT_EQ(err.kind, store::SnapshotOpenError::Kind::kIo);
}

TEST(SnapshotFileTest, BadMagicIsRejected) {
  const std::string path = TempPath("snap_badmagic.xpsnap");
  WriteFile(path, "NOTASNAP\x01\x00\x00\x00");
  store::SnapshotReader reader;
  store::SnapshotOpenError err;
  EXPECT_FALSE(reader.Open(path, &err));
  EXPECT_EQ(err.kind, store::SnapshotOpenError::Kind::kBadMagic);
  std::remove(path.c_str());
}

TEST(SnapshotFileTest, NewerFormatVersionIsRejectedWithTheClaimedVersion) {
  const std::string path = TempPath("snap_badversion.xpsnap");
  store::SnapshotWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  ASSERT_TRUE(writer.Commit().ok());
  const std::string current = ReadFile(path);
  ASSERT_GE(current.size(), 12u);
  // Patch the version field (bytes 8..11, little-endian) to a future value,
  // and to v1, whose records carried compiled artifacts: a reader accepts
  // its own version only.
  for (uint32_t version : {99u, 1u}) {
    std::string data = current;
    data[8] = static_cast<char>(version);
    data[9] = data[10] = data[11] = 0;
    WriteFile(path, data);

    store::SnapshotReader reader;
    store::SnapshotOpenError err;
    EXPECT_FALSE(reader.Open(path, &err)) << "v" << version;
    EXPECT_EQ(err.kind, store::SnapshotOpenError::Kind::kBadVersion)
        << "v" << version;
    EXPECT_EQ(err.file_version, version);
  }
  std::remove(path.c_str());
}

TEST(SnapshotFileTest, FlippedPayloadByteIsCorruptAndScanContinues) {
  const std::string path = TempPath("snap_crcflip.xpsnap");
  store::SnapshotWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  ASSERT_TRUE(writer.Append(store::RecordTag::kMemoEntry, "aaaa").ok());
  ASSERT_TRUE(writer.Append(store::RecordTag::kMemoEntry, "bbbb").ok());
  ASSERT_TRUE(writer.Commit().ok());
  // Flip one byte inside the FIRST record's payload (header is 12 bytes,
  // record head is 5: tag + u32 len).
  std::string data = ReadFile(path);
  data[12 + 5] ^= 0x40;
  WriteFile(path, data);

  store::SnapshotReader reader;
  store::SnapshotOpenError err;
  ASSERT_TRUE(reader.Open(path, &err)) << err.detail;
  uint8_t tag = 0;
  std::string payload;
  EXPECT_EQ(reader.Next(&tag, &payload),
            store::SnapshotReader::Outcome::kCorrupt);
  // The damage is contained: the second record still reads clean.
  EXPECT_EQ(reader.Next(&tag, &payload),
            store::SnapshotReader::Outcome::kRecord);
  EXPECT_EQ(payload, "bbbb");
  EXPECT_EQ(reader.Next(&tag, &payload), store::SnapshotReader::Outcome::kEof);
  std::remove(path.c_str());
}

TEST(SnapshotFileTest, TruncatedFileStopsTheScan) {
  const std::string path = TempPath("snap_trunc.xpsnap");
  store::SnapshotWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  ASSERT_TRUE(writer.Append(store::RecordTag::kMemoEntry, "aaaa").ok());
  ASSERT_TRUE(
      writer.Append(store::RecordTag::kMemoEntry, "bbbbbbbb").ok());
  ASSERT_TRUE(writer.Commit().ok());
  // Cut the file mid-way through the second record's payload.
  std::string data = ReadFile(path);
  WriteFile(path, data.substr(0, data.size() - 6));

  store::SnapshotReader reader;
  store::SnapshotOpenError err;
  ASSERT_TRUE(reader.Open(path, &err)) << err.detail;
  uint8_t tag = 0;
  std::string payload;
  EXPECT_EQ(reader.Next(&tag, &payload),
            store::SnapshotReader::Outcome::kRecord);
  EXPECT_EQ(payload, "aaaa");
  EXPECT_EQ(reader.Next(&tag, &payload),
            store::SnapshotReader::Outcome::kTruncated);
  // Terminal: further calls report eof, not another truncation.
  EXPECT_EQ(reader.Next(&tag, &payload), store::SnapshotReader::Outcome::kEof);
  std::remove(path.c_str());
}

TEST(SnapshotFileTest, AbsurdLengthFieldIsCorruptionNotAnAllocation) {
  const std::string path = TempPath("snap_hugelen.xpsnap");
  store::SnapshotWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  ASSERT_TRUE(writer.Append(store::RecordTag::kMemoEntry, "aaaa").ok());
  ASSERT_TRUE(writer.Commit().ok());
  // Overwrite the length field with ~4GiB; the reader must refuse to
  // allocate and treat the scan as unrecoverable from here.
  std::string data = ReadFile(path);
  data[13] = data[14] = data[15] = data[16] = '\xff';
  WriteFile(path, data);

  store::SnapshotReader reader;
  store::SnapshotOpenError err;
  ASSERT_TRUE(reader.Open(path, &err)) << err.detail;
  uint8_t tag = 0;
  std::string payload;
  EXPECT_EQ(reader.Next(&tag, &payload),
            store::SnapshotReader::Outcome::kCorrupt);
  EXPECT_EQ(reader.Next(&tag, &payload), store::SnapshotReader::Outcome::kEof);
  std::remove(path.c_str());
}

// --- Record codecs --------------------------------------------------------

TEST(SchemaRecordTest, RoundTripsSchemaAndFingerprint) {
  Dtd dtd = MakeCatalogDtd();
  Result<Dtd> decoded =
      store::DecodeSchemaRecord(store::EncodeSchemaRecord(dtd, dtd.Fingerprint()));
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_TRUE(decoded.value().EquivalentTo(dtd));
  EXPECT_EQ(decoded.value().Fingerprint(), dtd.Fingerprint());
}

TEST(SchemaRecordTest, ForgedFingerprintIsRejected) {
  // A well-formed record whose claimed key does not derive from its own
  // schema: the decoder must reject it even though every CRC passes.
  Dtd dtd = MakeCatalogDtd();
  EXPECT_FALSE(store::DecodeSchemaRecord(
                   store::EncodeSchemaRecord(dtd, dtd.Fingerprint() ^ 0x1))
                   .ok());
}

TEST(SchemaRecordTest, TruncatedPayloadIsRejected) {
  Dtd dtd = MakeCatalogDtd();
  std::string payload = store::EncodeSchemaRecord(dtd, dtd.Fingerprint());
  for (size_t cut : {payload.size() - 1, payload.size() / 2, size_t{3}}) {
    EXPECT_FALSE(store::DecodeSchemaRecord(payload.substr(0, cut)).ok())
        << "cut at " << cut;
  }
  EXPECT_FALSE(store::DecodeSchemaRecord(payload + "x").ok())
      << "trailing bytes";
}

TEST(MemoRecordTest, RoundTripsWithAndWithoutWitness) {
  store::MemoRecord record;
  record.canonical_query = "catalog/section/item[title]";
  record.dtd_fingerprint = 0x1122334455667788ull;
  record.options_digest = 0x99AABBCCDDEEFF00ull;
  record.algorithm = "thm-6.8(1)";
  record.verdict = SatVerdict::kSat;
  record.note = "memoized";
  record.has_witness = true;
  int root = record.witness.CreateRoot("catalog");
  int section = record.witness.AddChild(root, "section");
  int item = record.witness.AddChild(section, "item");
  record.witness.SetAttr(item, "id", "1");
  record.witness.AddChild(item, "title");

  Result<store::MemoRecord> decoded =
      store::DecodeMemoRecord(store::EncodeMemoRecord(record));
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_EQ(decoded.value().canonical_query, record.canonical_query);
  EXPECT_EQ(decoded.value().dtd_fingerprint, record.dtd_fingerprint);
  EXPECT_EQ(decoded.value().options_digest, record.options_digest);
  EXPECT_EQ(decoded.value().algorithm, record.algorithm);
  EXPECT_EQ(decoded.value().verdict, record.verdict);
  EXPECT_EQ(decoded.value().note, record.note);
  ASSERT_TRUE(decoded.value().has_witness);
  EXPECT_EQ(decoded.value().witness.ToString(), record.witness.ToString());

  record.has_witness = false;
  record.verdict = SatVerdict::kUnsat;
  decoded = store::DecodeMemoRecord(store::EncodeMemoRecord(record));
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_FALSE(decoded.value().has_witness);
  EXPECT_EQ(decoded.value().verdict, SatVerdict::kUnsat);
}

TEST(MemoRecordTest, GarbagePayloadIsRejectedNotCrashed) {
  EXPECT_FALSE(store::DecodeMemoRecord("").ok());
  EXPECT_FALSE(store::DecodeMemoRecord("garbage").ok());
  std::string bad;
  store::PutString(&bad, "q");
  EXPECT_FALSE(store::DecodeMemoRecord(bad).ok());
}

// --- Engine save / load ---------------------------------------------------

TEST(EngineSnapshotTest, SaveLoadRoundTripWarmsCachesAndMemo) {
  const std::string path = TempPath("snap_engine_roundtrip.xpsnap");
  Dtd dtd = MakeCatalogDtd();
  uint64_t saved_dtds = 0;
  {
    SatEngine engine;
    DtdHandle handle = engine.RegisterDtd(dtd);
    for (const char* q : {"section/item", "**/item", "section/missing"}) {
      SatRequest r;
      r.query = q;
      r.dtd = handle;
      SatResponse resp = engine.Run(r);
      ASSERT_TRUE(resp.status.ok()) << q;
    }
    SnapshotSaveResult saved = engine.SaveSnapshot(path);
    ASSERT_TRUE(saved.status.ok()) << saved.status.message();
    EXPECT_EQ(saved.dtds_saved, 1u);
    EXPECT_EQ(saved.memos_saved, 3u);
    saved_dtds = saved.dtds_saved;
  }
  {
    // A fresh engine (a restarted process, as far as the store can tell).
    SatEngine engine;
    SnapshotLoadResult loaded = engine.LoadSnapshot(path);
    ASSERT_TRUE(loaded.status.ok()) << loaded.status.message();
    EXPECT_EQ(loaded.dtds_loaded, saved_dtds);
    EXPECT_EQ(loaded.memos_loaded, 3u);
    EXPECT_EQ(loaded.corrupt_records, 0u);
    EXPECT_EQ(loaded.rejected_records, 0u);
    EXPECT_FALSE(loaded.truncated);

    SatEngineStats stats = engine.stats();
    EXPECT_EQ(stats.store_dtds_loaded, 1u);
    EXPECT_EQ(stats.store_memos_loaded, 3u);
    EXPECT_EQ(stats.store_records_corrupt, 0u);
    EXPECT_EQ(stats.store_records_rejected, 0u);

    // The first request after a warm load: DTD compilation is a cache hit
    // and the verdict comes straight from the warmed memo.
    DtdHandle handle = engine.RegisterDtd(dtd);
    SatRequest r;
    r.query = "**/item";
    r.dtd = handle;
    SatResponse resp = engine.Run(r);
    ASSERT_TRUE(resp.status.ok());
    EXPECT_TRUE(resp.report.sat());
    EXPECT_TRUE(resp.memo_hit);
    stats = engine.stats();
    EXPECT_EQ(stats.dtd_cache_hits, 1u);
    EXPECT_EQ(stats.dtd_cache_misses, 0u);
    EXPECT_EQ(stats.memo_hits, 1u);
    // And the verdicts agree with a cold engine on all three queries.
    for (const auto& [q, want_sat] :
         std::map<std::string, bool>{{"section/item", true},
                                     {"**/item", true},
                                     {"section/missing", false}}) {
      SatRequest probe;
      probe.query = q;
      probe.dtd = handle;
      SatResponse got = engine.Run(probe);
      ASSERT_TRUE(got.status.ok()) << q;
      EXPECT_EQ(got.report.sat(), want_sat) << q;
    }
  }
  std::remove(path.c_str());
}

void ExpectLabelGraphEq(const LabelGraph& a, const LabelGraph& b) {
  EXPECT_EQ(a.names, b.names);
  EXPECT_EQ(a.words, b.words);
  EXPECT_EQ(a.terminating, b.terminating);
  EXPECT_EQ(a.edges, b.edges);
  EXPECT_EQ(a.closure, b.closure);
}

// A snapshot carries no derived artifacts: what a warm engine serves after
// a load is its own compile of the saved schema, equal field for field to a
// fresh CompiledDtd::Compile, and registering the schema is a cache hit.
TEST(EngineSnapshotTest, LoadedArtifactsEqualAFreshCompile) {
  const std::string path = TempPath("snap_engine_artifacts.xpsnap");
  Dtd dtd = MakeCatalogDtd();
  {
    SatEngine engine;
    SatRequest r;
    r.query = "**/item";
    r.dtd = engine.RegisterDtd(dtd);
    ASSERT_TRUE(engine.Run(r).status.ok());
    ASSERT_TRUE(engine.SaveSnapshot(path).status.ok());
  }
  SatEngine engine;
  ASSERT_TRUE(engine.LoadSnapshot(path).status.ok());
  std::shared_ptr<const CompiledDtd> fresh = CompiledDtd::Compile(dtd);
  std::shared_ptr<const CompiledDtd> loaded =
      engine.RegisterDtd(dtd).compiled();
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(engine.stats().dtd_cache_hits, 1u);
  EXPECT_EQ(engine.stats().dtd_cache_misses, 0u);

  const CompiledDtd& out = *loaded;
  EXPECT_TRUE(out.dtd.EquivalentTo(fresh->dtd));
  EXPECT_EQ(out.fingerprint, fresh->fingerprint);
  EXPECT_EQ(out.disjunction_free, fresh->disjunction_free);
  ASSERT_NE(out.shared_dtd, nullptr);
  EXPECT_TRUE(out.shared_dtd->EquivalentTo(fresh->dtd));
  ExpectLabelGraphEq(out.graph, fresh->graph);
  ExpectLabelGraphEq(out.norm_graph, fresh->norm_graph);
  EXPECT_EQ(out.min_sizes, fresh->min_sizes);
  EXPECT_TRUE(out.norm.dtd.EquivalentTo(fresh->norm.dtd));
  EXPECT_EQ(out.norm.new_types, fresh->norm.new_types);
  ASSERT_EQ(out.content_nfas.size(), fresh->content_nfas.size());
  for (const auto& kv : fresh->content_nfas) {
    auto it = out.content_nfas.find(kv.first);
    ASSERT_NE(it, out.content_nfas.end()) << kv.first;
    EXPECT_EQ(it->second.num_states, kv.second.num_states);
    EXPECT_EQ(it->second.start, kv.second.start);
    EXPECT_EQ(it->second.accepting, kv.second.accepting);
    EXPECT_EQ(it->second.trans, kv.second.trans);
  }
  std::remove(path.c_str());
}

TEST(EngineSnapshotTest, LoadDegradesOnDamageWithCounters) {
  const std::string path = TempPath("snap_engine_damaged.xpsnap");
  Dtd dtd = MakeCatalogDtd();
  {
    SatEngine engine;
    DtdHandle handle = engine.RegisterDtd(dtd);
    SatRequest r;
    r.query = "**/item";
    r.dtd = handle;
    ASSERT_TRUE(engine.Run(r).status.ok());
    ASSERT_TRUE(engine.SaveSnapshot(path).status.ok());
  }
  // Flip a byte inside the first record (the lone schema record): the DTD
  // is lost, and the memo that depends on it must then be rejected — a memo
  // never attaches to a schema that did not verify from the same file.
  std::string data = ReadFile(path);
  data[12 + 5] ^= 0x01;
  WriteFile(path, data);
  {
    SatEngine engine;
    SnapshotLoadResult loaded = engine.LoadSnapshot(path);
    ASSERT_TRUE(loaded.status.ok());  // damage degrades; it never fails
    EXPECT_EQ(loaded.dtds_loaded, 0u);
    EXPECT_EQ(loaded.memos_loaded, 0u);
    EXPECT_EQ(loaded.corrupt_records, 1u);
    EXPECT_EQ(loaded.rejected_records, 1u);
    SatEngineStats stats = engine.stats();
    EXPECT_EQ(stats.store_records_corrupt, 1u);
    EXPECT_EQ(stats.store_records_rejected, 1u);
    // The engine still works cold.
    DtdHandle handle = engine.RegisterDtd(dtd);
    SatRequest r;
    r.query = "**/item";
    r.dtd = handle;
    SatResponse resp = engine.Run(r);
    ASSERT_TRUE(resp.status.ok());
    EXPECT_TRUE(resp.report.sat());
    EXPECT_FALSE(resp.memo_hit);
  }
  std::remove(path.c_str());
}

TEST(EngineSnapshotTest, LoadRejectsNewerVersionAndStartsCold) {
  const std::string path = TempPath("snap_engine_version.xpsnap");
  {
    SatEngine engine;
    ASSERT_TRUE(engine.SaveSnapshot(path).status.ok());
  }
  std::string data = ReadFile(path);
  ASSERT_GE(data.size(), 12u);
  data[8] = static_cast<char>(store::kSnapshotFormatVersion + 1);
  WriteFile(path, data);
  SatEngine engine;
  SnapshotLoadResult loaded = engine.LoadSnapshot(path);
  EXPECT_FALSE(loaded.status.ok());
  EXPECT_EQ(loaded.error_kind, SnapshotLoadResult::ErrorKind::kVersion);
  EXPECT_EQ(loaded.file_version, store::kSnapshotFormatVersion + 1);
  EXPECT_EQ(engine.stats().store_version_rejects, 1u);
  std::remove(path.c_str());
}

TEST(EngineSnapshotTest, LoadRejectsForgedFingerprintRecords) {
  const std::string path = TempPath("snap_engine_forged.xpsnap");
  Dtd dtd = MakeCatalogDtd();
  const uint64_t forged = dtd.Fingerprint() ^ 0xF00D;
  // Hand-write a snapshot holding the forged schema record plus a memo
  // claiming the forged fingerprint: both must be rejected (the memo's
  // fingerprint resolves to no VERIFIED schema), and nothing reaches the
  // caches.
  store::SnapshotWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  ASSERT_TRUE(writer
                  .Append(store::RecordTag::kSchema,
                          store::EncodeSchemaRecord(dtd, forged))
                  .ok());
  store::MemoRecord memo;
  memo.canonical_query = "**/item";
  memo.dtd_fingerprint = forged;
  memo.algorithm = "forged";
  memo.verdict = SatVerdict::kSat;
  ASSERT_TRUE(writer
                  .Append(store::RecordTag::kMemoEntry,
                          store::EncodeMemoRecord(memo))
                  .ok());
  ASSERT_TRUE(writer.Commit().ok());

  SatEngine engine;
  SnapshotLoadResult loaded = engine.LoadSnapshot(path);
  ASSERT_TRUE(loaded.status.ok());
  EXPECT_EQ(loaded.dtds_loaded, 0u);
  EXPECT_EQ(loaded.memos_loaded, 0u);
  EXPECT_EQ(loaded.rejected_records, 2u);
  EXPECT_EQ(engine.stats().store_records_rejected, 2u);
  // No poisoning: the forged memo's verdict never surfaces.
  DtdHandle handle = engine.RegisterDtd(dtd);
  SatRequest r;
  r.query = "**/item";
  r.dtd = handle;
  SatResponse resp = engine.Run(r);
  ASSERT_TRUE(resp.status.ok());
  EXPECT_FALSE(resp.memo_hit);
  std::remove(path.c_str());
}

TEST(EngineSnapshotTest, UnknownRecordTagsAreSkippedAndCounted) {
  const std::string path = TempPath("snap_engine_unknown.xpsnap");
  store::SnapshotWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  ASSERT_TRUE(
      writer.Append(static_cast<store::RecordTag>(250), "future kind").ok());
  ASSERT_TRUE(writer.Commit().ok());
  SatEngine engine;
  SnapshotLoadResult loaded = engine.LoadSnapshot(path);
  ASSERT_TRUE(loaded.status.ok());
  EXPECT_EQ(loaded.rejected_records, 1u);
  std::remove(path.c_str());
}

TEST(EngineSnapshotTest, MemoDisabledEngineLoadsSchemasOnly) {
  const std::string path = TempPath("snap_engine_nomemo.xpsnap");
  Dtd dtd = MakeCatalogDtd();
  {
    SatEngine engine;
    DtdHandle handle = engine.RegisterDtd(dtd);
    SatRequest r;
    r.query = "**/item";
    r.dtd = handle;
    ASSERT_TRUE(engine.Run(r).status.ok());
    ASSERT_TRUE(engine.SaveSnapshot(path).status.ok());
  }
  SatEngineOptions opt;
  opt.memo_capacity = 0;
  SatEngine engine(opt);
  SnapshotLoadResult loaded = engine.LoadSnapshot(path);
  ASSERT_TRUE(loaded.status.ok());
  EXPECT_EQ(loaded.dtds_loaded, 1u);
  EXPECT_EQ(loaded.memos_loaded, 0u);
  EXPECT_EQ(loaded.rejected_records, 0u);  // not a data problem
  std::remove(path.c_str());
}

// A memo entry pins only its schema's source Dtd. When the artifacts have
// left the DTD cache, save writes that Dtd, so the memo record still has a
// verified schema in the same file, and compiles nothing.
TEST(EngineSnapshotTest, MemoWhoseSchemaWasEvictedStillRoundTrips) {
  const std::string path = TempPath("snap_engine_evicted_memo.xpsnap");
  Dtd a = MakeCatalogDtd();
  Dtd b = ParseDtdOrDie("root r\nr -> D*\nD -> eps\n");
  SatResponse cold;
  {
    SatEngineOptions opt;
    opt.num_threads = 1;  // a Run drains the worker's queued frees first
    opt.dtd_cache_capacity = 1;
    SatEngine engine(opt);
    SatRequest r;
    r.query = "section/item[variant]";
    r.dtd = engine.RegisterDtd(a);
    cold = engine.Run(r);
    ASSERT_TRUE(cold.status.ok());
    r.query = "D";
    r.dtd = engine.RegisterDtd(b);  // evicts A
    ASSERT_TRUE(engine.Run(r).status.ok());
    ASSERT_EQ(engine.live_compiled_artifacts(), 1u);

    SnapshotSaveResult saved = engine.SaveSnapshot(path);
    ASSERT_TRUE(saved.status.ok()) << saved.status.message();
    EXPECT_EQ(saved.dtds_saved, 2u);  // B resident, A pinned by its memo
    EXPECT_EQ(saved.memos_saved, 2u);
    EXPECT_EQ(engine.live_compiled_artifacts(), 1u) << "save compiled A";
  }
  SatEngine engine;
  SnapshotLoadResult loaded = engine.LoadSnapshot(path);
  ASSERT_TRUE(loaded.status.ok()) << loaded.status.message();
  EXPECT_EQ(loaded.dtds_loaded, 2u);
  EXPECT_EQ(loaded.memos_loaded, 2u);
  EXPECT_EQ(loaded.rejected_records, 0u);
  SatRequest r;
  r.query = "section/item[variant]";
  r.dtd = engine.RegisterDtd(a);
  SatResponse warm = engine.Run(r);
  ASSERT_TRUE(warm.status.ok());
  EXPECT_TRUE(warm.memo_hit);
  EXPECT_EQ(warm.report.decision.verdict, cold.report.decision.verdict);
  EXPECT_EQ(warm.report.algorithm, cold.report.algorithm);
  EXPECT_EQ(engine.stats().dtd_cache_misses, 0u);  // A came from the file
  std::remove(path.c_str());
}

// A save writes the DTD cache's schemas most recently used first, and a
// load compiles only as many as its DTD cache keeps: the rest stay
// uncompiled Dtds that their memo records pin, so every memo still hits.
TEST(EngineSnapshotTest, LoadCompilesAtMostTheCacheCapacity) {
  const std::string path = TempPath("snap_engine_capacity.xpsnap");
  const std::vector<Dtd> dtds = {
      MakeCatalogDtd(), ParseDtdOrDie("root r\nr -> D*\nD -> eps\n"),
      ParseDtdOrDie("root r\nr -> E, F*\nE -> eps\nF -> eps\n")};
  const std::vector<std::string> queries = {"section/item", "D", "E"};
  {
    SatEngine engine;
    for (size_t i = 0; i < dtds.size(); ++i) {
      SatRequest r;
      r.query = queries[i];
      r.dtd = engine.RegisterDtd(dtds[i]);
      ASSERT_TRUE(engine.Run(r).status.ok()) << queries[i];
    }
    SnapshotSaveResult saved = engine.SaveSnapshot(path);
    ASSERT_TRUE(saved.status.ok()) << saved.status.message();
    EXPECT_EQ(saved.dtds_saved, 3u);
    EXPECT_EQ(saved.memos_saved, 3u);
  }
  SatEngineOptions opt;
  opt.dtd_cache_capacity = 1;
  SatEngine engine(opt);
  SnapshotLoadResult loaded = engine.LoadSnapshot(path);
  ASSERT_TRUE(loaded.status.ok()) << loaded.status.message();
  EXPECT_EQ(loaded.dtds_loaded, 3u);
  EXPECT_EQ(loaded.memos_loaded, 3u);
  const obs::Histogram* compiles =
      engine.metrics().FindHistogram("dtd_compile_ns");
  ASSERT_NE(compiles, nullptr);
  EXPECT_EQ(compiles->TakeSnapshot().count, 1u);
  // The saver's most recently used schema is the one the load cached.
  for (size_t i : {2, 0, 1}) {
    const uint64_t hits_before = engine.stats().dtd_cache_hits;
    SatRequest r;
    r.query = queries[i];
    r.dtd = engine.RegisterDtd(dtds[i]);
    EXPECT_EQ(engine.stats().dtd_cache_hits > hits_before, i == 2) << i;
    SatResponse resp = engine.Run(r);
    ASSERT_TRUE(resp.status.ok()) << queries[i];
    EXPECT_TRUE(resp.memo_hit) << queries[i];
  }
  EXPECT_EQ(compiles->TakeSnapshot().count, 3u);
  std::remove(path.c_str());
}

TEST(EngineSnapshotTest, SaveIntoUnwritableDirectoryFailsCleanly) {
  SatEngine engine;
  SnapshotSaveResult saved =
      engine.SaveSnapshot("/nonexistent-dir/xpathsat.snap");
  EXPECT_FALSE(saved.status.ok());
  EXPECT_EQ(saved.dtds_saved, 0u);
}

}  // namespace
}  // namespace xpathsat
