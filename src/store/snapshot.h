// Persistent snapshot store: the versioned, checksummed on-disk format
// behind `save PATH` / `load PATH` and `--warm-from`.
//
// A snapshot holds what cannot be re-derived cheaply from nothing: the
// schemas the engine serves (DTD text plus fingerprint) and the verdict
// memo, so a restarted server answers memoized queries without re-deciding
// them. The per-DTD artifacts the deciders run on (label graphs, Glushkov
// NFAs, Prop 3.3 normal forms, minimal sizes) are never written: they are
// polynomial-time functions of the schema, and the loader recompiles them.
// So the format knows nothing of their layout.
//
// File layout (all integers little-endian):
//
//   [8-byte magic "XPSTSNAP"][u32 format version]
//   record*   where record = [u8 tag][u32 len][payload: len bytes][u32 crc]
//
// The CRC32 (IEEE, poly 0xEDB88320) covers the tag byte plus the payload.
// Readers never trust a record: a CRC mismatch skips the record and keeps
// scanning (kCorrupt), a short read stops the scan (kTruncated), and a file
// whose format version differs from kSnapshotFormatVersion is rejected
// outright with a structured kBadVersion error — compatibility is explicit,
// never guessed at.
//
// Trust model: a snapshot is operator-supplied input, like a --dtd file.
// The CRC catches accidental corruption (torn writes, bit rot, truncation);
// the loader additionally re-derives every DTD fingerprint from the decoded
// schema text (store::DecodeSchemaRecord), so a record whose claimed
// fingerprint does not match its own schema — forged or drifted — is
// rejected, and memo entries only ever attach to a schema decoded and
// verified from the same file. Derived artifacts are never read from disk,
// so no record can hand the deciders a damaged label graph or automaton.
// The engine's in-memory EquivalentTo hit checks remain in force on top, so
// a fingerprint collision can never serve verdicts for the wrong schema,
// warm-loaded or not.
//
// Writes are atomic at the file level: each SnapshotWriter writes its own
// uniquely named temporary next to `path`, syncs it, and renames it over
// `path` on Commit (then syncs the directory), so a crashed save leaves any
// previous snapshot intact and concurrent saves to one path each commit a
// whole file — the last rename wins.
//
// Versioning policy: kSnapshotFormatVersion bumps on ANY incompatible
// layout change (record payloads included). Readers accept exactly their
// own version and reject older files as they reject newer ones. The README
// "Persistence" section keeps a changelog row per version (enforced by the
// `store-version` rule in tools/lint/check_invariants.py, which also keeps
// src/store/ free of the compiled-artifact headers).
#ifndef XPATHSAT_STORE_SNAPSHOT_H_
#define XPATHSAT_STORE_SNAPSHOT_H_

#include <cstdint>
#include <cstdio>
#include <string>

#include "src/sat/decision.h"
#include "src/util/status.h"
#include "src/xml/dtd.h"
#include "src/xml/tree.h"

namespace xpathsat {
namespace store {

/// First 8 bytes of every snapshot file.
inline constexpr char kSnapshotMagic[8] = {'X', 'P', 'S', 'T',
                                           'S', 'N', 'A', 'P'};
/// Current snapshot format version. Bumping this requires a matching
/// changelog row in the README "Persistence" section (lint rule
/// `store-version`).
inline constexpr uint32_t kSnapshotFormatVersion = 2;

/// Record payloads larger than this are treated as corruption (a flipped
/// length field must not drive a multi-gigabyte allocation).
inline constexpr uint32_t kMaxRecordLen = 64u * 1024 * 1024;

/// Record types. Unknown tags are skipped (forward-compatible within a
/// version for additive record kinds).
enum class RecordTag : uint8_t {
  kSchema = 1,
  kMemoEntry = 2,
};

/// CRC32 (IEEE 802.3, reflected, poly 0xEDB88320) of `len` bytes, starting
/// from `seed` (pass the return value back in to checksum discontiguous
/// pieces). Self-contained table implementation — no zlib dependency.
uint32_t Crc32(const void* data, size_t len, uint32_t seed = 0);

// --- Primitive codecs (little-endian, append-to-string) -------------------

void PutU8(std::string* out, uint8_t v);
void PutU32(std::string* out, uint32_t v);
void PutU64(std::string* out, uint64_t v);
void PutBool(std::string* out, bool v);
/// u32 length prefix + raw bytes.
void PutString(std::string* out, const std::string& s);

/// Sequential reader over an in-memory payload. Every Read* returns false
/// (and latches !ok()) on underflow; decoding code checks ok() once at the
/// end instead of per field.
class ByteReader {
 public:
  explicit ByteReader(const std::string& buf) : buf_(buf) {}

  bool ReadU8(uint8_t* v);
  bool ReadU32(uint32_t* v);
  bool ReadU64(uint64_t* v);
  bool ReadBool(bool* v);
  bool ReadString(std::string* v);

  /// True iff no read has underflowed.
  bool ok() const { return ok_; }
  /// True iff the whole buffer was consumed (and no read underflowed).
  bool AtEnd() const { return ok_ && pos_ == buf_.size(); }

 private:
  const std::string& buf_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// --- File writer ----------------------------------------------------------

/// Writes a snapshot to `path` atomically: records accumulate in a
/// temporary `path.tmp.XXXXXX` unique to this writer, which Commit syncs
/// and renames over `path`. Abandoning the writer (destruction without
/// Commit) removes the temporary.
class SnapshotWriter {
 public:
  SnapshotWriter() = default;
  ~SnapshotWriter();

  SnapshotWriter(const SnapshotWriter&) = delete;
  SnapshotWriter& operator=(const SnapshotWriter&) = delete;

  /// Creates this writer's temporary and writes the header. Fails on I/O
  /// errors.
  Status Open(const std::string& path);
  /// Appends one record (tag + length + payload + CRC).
  Status Append(RecordTag tag, const std::string& payload);
  /// Flushes and fsyncs the temporary, renames it over `path`, and fsyncs
  /// the directory so the rename survives a machine crash.
  Status Commit();

 private:
  void Abandon();

  std::string path_;
  std::string tmp_path_;
  std::FILE* file_ = nullptr;
};

// --- File reader ----------------------------------------------------------

/// Structured open failure: the caller maps kinds onto wire `err` slugs
/// (kIo -> io, kBadMagic -> store-corrupt, kBadVersion -> store-version).
struct SnapshotOpenError {
  enum class Kind { kNone, kIo, kBadMagic, kBadVersion };
  Kind kind = Kind::kNone;
  /// The version the file claims; meaningful for kBadVersion.
  uint32_t file_version = 0;
  std::string detail;
};

/// Sequential scan over a snapshot's records. Never trusts the file: CRC
/// mismatches and oversized lengths are reported per record (kCorrupt) and
/// scanning continues at the next plausible boundary; short reads stop the
/// scan (kTruncated).
class SnapshotReader {
 public:
  enum class Outcome {
    kRecord,     ///< `tag`/`payload` hold a CRC-verified record
    kCorrupt,    ///< record failed its CRC (or had an absurd length); skipped
    kTruncated,  ///< the file ended mid-record; no further records
    kEof,        ///< clean end of file
  };

  SnapshotReader() = default;
  ~SnapshotReader();

  SnapshotReader(const SnapshotReader&) = delete;
  SnapshotReader& operator=(const SnapshotReader&) = delete;

  /// Opens and validates the header. On failure fills `*error` and returns
  /// false; the reader is unusable.
  bool Open(const std::string& path, SnapshotOpenError* error);

  /// Advances to the next record. On kCorrupt the record was skipped and the
  /// scan continues (call Next again); kTruncated and kEof are terminal.
  Outcome Next(uint8_t* tag, std::string* payload);

 private:
  std::FILE* file_ = nullptr;
  bool done_ = false;
};

// --- Record codecs --------------------------------------------------------

/// Serializes one schema as a kSchema payload: its DTD text and the
/// fingerprint memo records name it by.
std::string EncodeSchemaRecord(const Dtd& dtd, uint64_t fingerprint);

/// Decodes a kSchema payload. The schema text must parse, and its
/// recomputed Dtd::Fingerprint() must equal the fingerprint the record
/// claims (rejecting forged or drifted keys). Never trusts the input.
Result<Dtd> DecodeSchemaRecord(const std::string& payload);

/// One memoized verdict, keyed exactly like the engine's in-memory memo.
struct MemoRecord {
  std::string canonical_query;
  uint64_t dtd_fingerprint = 0;
  uint64_t options_digest = 0;
  std::string algorithm;
  SatVerdict verdict = SatVerdict::kUnknown;
  std::string note;
  bool has_witness = false;
  XmlTree witness;  ///< meaningful only when has_witness
};

/// Serializes one memoized verdict as a kMemoEntry payload.
std::string EncodeMemoRecord(const MemoRecord& record);

/// Decodes a kMemoEntry payload (validating the witness tree's structure:
/// parents precede children, node 0 is the root). The fingerprint it names
/// is only a claim — the loader must resolve it against a schema decoded
/// and verified from the same snapshot before trusting the entry.
Result<MemoRecord> DecodeMemoRecord(const std::string& payload);

}  // namespace store
}  // namespace xpathsat

#endif  // XPATHSAT_STORE_SNAPSHOT_H_
