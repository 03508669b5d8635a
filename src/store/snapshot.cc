#include "src/store/snapshot.h"

#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "src/xml/dtd.h"
#include "src/xml/tree.h"

namespace xpathsat {
namespace store {

namespace {

// Lazily built CRC32 lookup table (IEEE 802.3 reflected polynomial).
const uint32_t* Crc32Table() {
  static const uint32_t* table = [] {
    static uint32_t t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

}  // namespace

uint32_t Crc32(const void* data, size_t len, uint32_t seed) {
  const uint32_t* table = Crc32Table();
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

// --- Primitive codecs -----------------------------------------------------

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void PutBool(std::string* out, bool v) { PutU8(out, v ? 1 : 0); }

void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

bool ByteReader::ReadU8(uint8_t* v) {
  if (!ok_ || buf_.size() - pos_ < 1) {
    ok_ = false;
    return false;
  }
  *v = static_cast<uint8_t>(buf_[pos_++]);
  return true;
}

bool ByteReader::ReadU32(uint32_t* v) {
  if (!ok_ || buf_.size() - pos_ < 4) {
    ok_ = false;
    return false;
  }
  uint32_t r = 0;
  for (int i = 0; i < 4; ++i) {
    r |= static_cast<uint32_t>(static_cast<uint8_t>(buf_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  *v = r;
  return true;
}

bool ByteReader::ReadU64(uint64_t* v) {
  if (!ok_ || buf_.size() - pos_ < 8) {
    ok_ = false;
    return false;
  }
  uint64_t r = 0;
  for (int i = 0; i < 8; ++i) {
    r |= static_cast<uint64_t>(static_cast<uint8_t>(buf_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  *v = r;
  return true;
}

bool ByteReader::ReadBool(bool* v) {
  uint8_t b = 0;
  if (!ReadU8(&b)) return false;
  *v = (b != 0);
  return true;
}

bool ByteReader::ReadString(std::string* v) {
  uint32_t len = 0;
  if (!ReadU32(&len)) return false;
  if (buf_.size() - pos_ < len) {
    ok_ = false;
    return false;
  }
  v->assign(buf_, pos_, len);
  pos_ += len;
  return true;
}

// --- File writer ----------------------------------------------------------

SnapshotWriter::~SnapshotWriter() { Abandon(); }

void SnapshotWriter::Abandon() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
    std::remove(tmp_path_.c_str());
  }
}

Status SnapshotWriter::Open(const std::string& path) {
  if (file_ != nullptr) return Status::Error("writer already open");
  path_ = path;
  tmp_path_ = path + ".tmp";
  file_ = std::fopen(tmp_path_.c_str(), "wb");
  if (file_ == nullptr) {
    return Status::Error("cannot create " + tmp_path_);
  }
  std::string header(kSnapshotMagic, sizeof(kSnapshotMagic));
  PutU32(&header, kSnapshotFormatVersion);
  if (std::fwrite(header.data(), 1, header.size(), file_) != header.size()) {
    Abandon();
    return Status::Error("write failed on " + tmp_path_);
  }
  return Status::Ok();
}

Status SnapshotWriter::Append(RecordTag tag, const std::string& payload) {
  if (file_ == nullptr) return Status::Error("writer not open");
  if (payload.size() > kMaxRecordLen) {
    return Status::Error("record exceeds kMaxRecordLen");
  }
  std::string framed;
  framed.reserve(payload.size() + 9);
  PutU8(&framed, static_cast<uint8_t>(tag));
  PutU32(&framed, static_cast<uint32_t>(payload.size()));
  framed.append(payload);
  uint32_t crc = Crc32(&tag, 1);
  crc = Crc32(payload.data(), payload.size(), crc);
  PutU32(&framed, crc);
  if (std::fwrite(framed.data(), 1, framed.size(), file_) != framed.size()) {
    Abandon();
    return Status::Error("write failed on " + tmp_path_);
  }
  return Status::Ok();
}

Status SnapshotWriter::Commit() {
  if (file_ == nullptr) return Status::Error("writer not open");
  bool ok = (std::fflush(file_) == 0);
  ok = (std::fclose(file_) == 0) && ok;
  file_ = nullptr;
  if (!ok) {
    std::remove(tmp_path_.c_str());
    return Status::Error("flush failed on " + tmp_path_);
  }
  if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    std::remove(tmp_path_.c_str());
    return Status::Error("rename failed: " + tmp_path_ + " -> " + path_);
  }
  return Status::Ok();
}

// --- File reader ----------------------------------------------------------

SnapshotReader::~SnapshotReader() {
  if (file_ != nullptr) std::fclose(file_);
}

bool SnapshotReader::Open(const std::string& path, SnapshotOpenError* error) {
  *error = SnapshotOpenError{};
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) {
    error->kind = SnapshotOpenError::Kind::kIo;
    error->detail = "cannot open " + path;
    return false;
  }
  char header[12];
  if (std::fread(header, 1, sizeof(header), file_) != sizeof(header)) {
    error->kind = SnapshotOpenError::Kind::kBadMagic;
    error->detail = "file shorter than the snapshot header";
    std::fclose(file_);
    file_ = nullptr;
    return false;
  }
  if (std::memcmp(header, kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    error->kind = SnapshotOpenError::Kind::kBadMagic;
    error->detail = "bad magic (not a snapshot file)";
    std::fclose(file_);
    file_ = nullptr;
    return false;
  }
  uint32_t version = 0;
  for (int i = 0; i < 4; ++i) {
    version |= static_cast<uint32_t>(static_cast<uint8_t>(header[8 + i]))
               << (8 * i);
  }
  if (version != kSnapshotFormatVersion) {
    error->kind = SnapshotOpenError::Kind::kBadVersion;
    error->file_version = version;
    error->detail = "snapshot format v" + std::to_string(version) +
                    ", this build reads v" +
                    std::to_string(kSnapshotFormatVersion);
    std::fclose(file_);
    file_ = nullptr;
    return false;
  }
  return true;
}

SnapshotReader::Outcome SnapshotReader::Next(uint8_t* tag,
                                             std::string* payload) {
  if (file_ == nullptr || done_) return Outcome::kEof;
  unsigned char head[5];
  size_t n = std::fread(head, 1, sizeof(head), file_);
  if (n == 0) {
    done_ = true;
    return Outcome::kEof;
  }
  if (n < sizeof(head)) {
    done_ = true;
    return Outcome::kTruncated;
  }
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<uint32_t>(head[1 + i]) << (8 * i);
  }
  if (len > kMaxRecordLen) {
    // A length this absurd means the framing itself is gone; there is no
    // trustworthy next-record boundary, so report the corruption and end
    // the scan on the following call.
    done_ = true;
    return Outcome::kCorrupt;
  }
  std::string body(len, '\0');
  if (len > 0 && std::fread(&body[0], 1, len, file_) != len) {
    done_ = true;
    return Outcome::kTruncated;
  }
  unsigned char crc_bytes[4];
  if (std::fread(crc_bytes, 1, sizeof(crc_bytes), file_) !=
      sizeof(crc_bytes)) {
    done_ = true;
    return Outcome::kTruncated;
  }
  uint32_t stored_crc = 0;
  for (int i = 0; i < 4; ++i) {
    stored_crc |= static_cast<uint32_t>(crc_bytes[i]) << (8 * i);
  }
  uint32_t crc = Crc32(head, 1);
  crc = Crc32(body.data(), body.size(), crc);
  if (crc != stored_crc) return Outcome::kCorrupt;
  *tag = head[0];
  payload->swap(body);
  return Outcome::kRecord;
}

// --- Artifact record codecs ----------------------------------------------

namespace {

void PutStringSet(std::string* out, const std::set<std::string>& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  for (const std::string& v : s) PutString(out, v);
}

bool ReadStringSet(ByteReader* r, std::set<std::string>* s) {
  uint32_t n = 0;
  if (!r->ReadU32(&n)) return false;
  s->clear();
  for (uint32_t i = 0; i < n; ++i) {
    std::string v;
    if (!r->ReadString(&v)) return false;
    s->insert(std::move(v));
  }
  return true;
}

void PutStringSetMap(std::string* out,
                     const std::map<std::string, std::set<std::string>>& m) {
  PutU32(out, static_cast<uint32_t>(m.size()));
  for (const auto& kv : m) {
    PutString(out, kv.first);
    PutStringSet(out, kv.second);
  }
}

bool ReadStringSetMap(ByteReader* r,
                      std::map<std::string, std::set<std::string>>* m) {
  uint32_t n = 0;
  if (!r->ReadU32(&n)) return false;
  m->clear();
  for (uint32_t i = 0; i < n; ++i) {
    std::string k;
    std::set<std::string> v;
    if (!r->ReadString(&k) || !ReadStringSet(r, &v)) return false;
    (*m)[std::move(k)] = std::move(v);
  }
  return true;
}

void PutLabelGraph(std::string* out, const LabelGraph& g) {
  PutStringSet(out, g.terminating);
  PutStringSetMap(out, g.edges);
  PutStringSetMap(out, g.closure);
}

bool ReadLabelGraph(ByteReader* r, LabelGraph* g) {
  return ReadStringSet(r, &g->terminating) && ReadStringSetMap(r, &g->edges) &&
         ReadStringSetMap(r, &g->closure);
}

void PutNfa(std::string* out, const Nfa& nfa) {
  PutU32(out, static_cast<uint32_t>(nfa.num_states));
  PutU32(out, static_cast<uint32_t>(nfa.start));
  PutU32(out, static_cast<uint32_t>(nfa.accepting.size()));
  for (bool a : nfa.accepting) PutBool(out, a);
  PutU32(out, static_cast<uint32_t>(nfa.trans.size()));
  for (const auto& edges : nfa.trans) {
    PutU32(out, static_cast<uint32_t>(edges.size()));
    for (const auto& e : edges) {
      PutString(out, e.first);
      PutU32(out, static_cast<uint32_t>(e.second));
    }
  }
}

bool ReadNfa(ByteReader* r, Nfa* nfa) {
  uint32_t num_states = 0, start = 0, num_acc = 0, num_trans = 0;
  if (!r->ReadU32(&num_states) || !r->ReadU32(&start)) return false;
  // Structural validation: a decoded automaton must be internally
  // consistent or the sibling decider would index out of bounds.
  if (num_states > kMaxRecordLen) return false;
  if (num_states > 0 && start >= num_states) return false;
  if (!r->ReadU32(&num_acc) || num_acc != num_states) return false;
  nfa->num_states = static_cast<int>(num_states);
  nfa->start = static_cast<int>(start);
  nfa->accepting.assign(num_states, false);
  for (uint32_t i = 0; i < num_acc; ++i) {
    bool a = false;
    if (!r->ReadBool(&a)) return false;
    nfa->accepting[i] = a;
  }
  if (!r->ReadU32(&num_trans) || num_trans != num_states) return false;
  nfa->trans.assign(num_states, {});
  for (uint32_t i = 0; i < num_trans; ++i) {
    uint32_t num_edges = 0;
    if (!r->ReadU32(&num_edges)) return false;
    nfa->trans[i].reserve(num_edges);
    for (uint32_t j = 0; j < num_edges; ++j) {
      std::string sym;
      uint32_t target = 0;
      if (!r->ReadString(&sym) || !r->ReadU32(&target)) return false;
      if (target >= num_states) return false;
      nfa->trans[i].emplace_back(std::move(sym), static_cast<int>(target));
    }
  }
  return true;
}

void PutWitness(std::string* out, const XmlTree& tree) {
  PutU32(out, static_cast<uint32_t>(tree.size()));
  for (int id = 0; id < tree.size(); ++id) {
    const XmlNode& node = tree.node(id);
    PutString(out, node.label);
    // Node 0 is the root (parent kNullNode); every later node's parent
    // precedes it, so replaying AddChild in id order reconstructs the tree.
    if (id > 0) PutU32(out, static_cast<uint32_t>(node.parent));
    PutU32(out, static_cast<uint32_t>(node.attrs.size()));
    for (const auto& attr : node.attrs) {
      PutString(out, attr.first);
      PutString(out, attr.second);
    }
  }
}

bool ReadWitness(ByteReader* r, XmlTree* tree) {
  uint32_t num_nodes = 0;
  if (!r->ReadU32(&num_nodes)) return false;
  if (num_nodes == 0 || num_nodes > kMaxRecordLen) return false;
  for (uint32_t id = 0; id < num_nodes; ++id) {
    std::string label;
    if (!r->ReadString(&label)) return false;
    if (id == 0) {
      tree->CreateRoot(label);
    } else {
      uint32_t parent = 0;
      if (!r->ReadU32(&parent) || parent >= id) return false;
      tree->AddChild(static_cast<NodeId>(parent), label);
    }
    uint32_t num_attrs = 0;
    if (!r->ReadU32(&num_attrs)) return false;
    for (uint32_t a = 0; a < num_attrs; ++a) {
      std::string name, value;
      if (!r->ReadString(&name) || !r->ReadString(&value)) return false;
      tree->SetAttr(static_cast<NodeId>(id), name, value);
    }
  }
  return true;
}

void PutMinSizes(std::string* out,
                 const std::map<std::string, long long>& sizes) {
  PutU32(out, static_cast<uint32_t>(sizes.size()));
  for (const auto& kv : sizes) {
    PutString(out, kv.first);
    PutU64(out, static_cast<uint64_t>(kv.second));
  }
}

bool ReadMinSizes(ByteReader* r, std::map<std::string, long long>* sizes) {
  uint32_t n = 0;
  if (!r->ReadU32(&n)) return false;
  sizes->clear();
  for (uint32_t i = 0; i < n; ++i) {
    std::string k;
    uint64_t v = 0;
    if (!r->ReadString(&k) || !r->ReadU64(&v)) return false;
    (*sizes)[std::move(k)] = static_cast<long long>(v);
  }
  return true;
}

}  // namespace

std::string EncodeCompiledDtdRecord(const CompiledDtd& compiled) {
  std::string out;
  PutString(&out, compiled.dtd.ToString());
  PutU64(&out, compiled.fingerprint);
  PutBool(&out, compiled.disjunction_free);
  PutLabelGraph(&out, compiled.graph);
  PutMinSizes(&out, compiled.min_sizes);
  PutU32(&out, static_cast<uint32_t>(compiled.content_nfas.size()));
  for (const auto& kv : compiled.content_nfas) {
    PutString(&out, kv.first);
    PutNfa(&out, kv.second);
  }
  PutString(&out, compiled.norm.dtd.ToString());
  PutStringSet(&out, compiled.norm.new_types);
  PutLabelGraph(&out, compiled.norm_graph);
  return out;
}

Result<std::shared_ptr<const CompiledDtd>> DecodeCompiledDtdRecord(
    const std::string& payload) {
  using R = Result<std::shared_ptr<const CompiledDtd>>;
  ByteReader r(payload);

  std::string dtd_text;
  uint64_t fingerprint = 0;
  if (!r.ReadString(&dtd_text) || !r.ReadU64(&fingerprint)) {
    return R::Error("short compiled-DTD record");
  }
  Result<Dtd> dtd = Dtd::Parse(dtd_text);
  if (!dtd.ok()) {
    return R::Error("embedded DTD does not parse: " + dtd.error());
  }
  // The collision-verification anchor: the fingerprint this record is keyed
  // by must be derivable from its own schema text. A forged or drifted key
  // is rejected here, so memo entries resolved against this record can rely
  // on the fingerprint meaning what it claims.
  auto compiled = std::make_shared<CompiledDtd>(std::move(dtd).value());
  if (compiled->fingerprint != fingerprint) {
    return R::Error("fingerprint does not match the embedded DTD");
  }

  if (!r.ReadBool(&compiled->disjunction_free) ||
      !ReadLabelGraph(&r, &compiled->graph) ||
      !ReadMinSizes(&r, &compiled->min_sizes)) {
    return R::Error("short compiled-DTD record");
  }
  uint32_t num_nfas = 0;
  if (!r.ReadU32(&num_nfas)) return R::Error("short compiled-DTD record");
  for (uint32_t i = 0; i < num_nfas; ++i) {
    std::string type;
    Nfa nfa;
    if (!r.ReadString(&type) || !ReadNfa(&r, &nfa)) {
      return R::Error("malformed content-model automaton");
    }
    compiled->content_nfas[std::move(type)] = std::move(nfa);
  }
  std::string norm_text;
  if (!r.ReadString(&norm_text)) return R::Error("short compiled-DTD record");
  Result<Dtd> norm = Dtd::Parse(norm_text);
  if (!norm.ok()) {
    return R::Error("embedded normal form does not parse: " + norm.error());
  }
  compiled->norm.dtd = std::move(norm).value();
  if (!ReadStringSet(&r, &compiled->norm.new_types) ||
      !ReadLabelGraph(&r, &compiled->norm_graph) || !r.AtEnd()) {
    return R::Error("short compiled-DTD record");
  }
  return R(std::shared_ptr<const CompiledDtd>(std::move(compiled)));
}

std::string EncodeMemoRecord(const MemoRecord& record) {
  std::string out;
  PutString(&out, record.canonical_query);
  PutU64(&out, record.dtd_fingerprint);
  PutU64(&out, record.options_digest);
  PutString(&out, record.algorithm);
  PutU8(&out, static_cast<uint8_t>(record.verdict));
  PutString(&out, record.note);
  PutBool(&out, record.has_witness);
  if (record.has_witness) PutWitness(&out, record.witness);
  return out;
}

Result<MemoRecord> DecodeMemoRecord(const std::string& payload) {
  using R = Result<MemoRecord>;
  ByteReader r(payload);
  MemoRecord record;
  uint8_t verdict = 0;
  if (!r.ReadString(&record.canonical_query) ||
      !r.ReadU64(&record.dtd_fingerprint) ||
      !r.ReadU64(&record.options_digest) || !r.ReadString(&record.algorithm) ||
      !r.ReadU8(&verdict) || !r.ReadString(&record.note) ||
      !r.ReadBool(&record.has_witness)) {
    return R::Error("short memo record");
  }
  if (verdict > static_cast<uint8_t>(SatVerdict::kUnknown)) {
    return R::Error("unknown verdict code");
  }
  record.verdict = static_cast<SatVerdict>(verdict);
  if (record.has_witness && !ReadWitness(&r, &record.witness)) {
    return R::Error("malformed witness tree");
  }
  if (!r.AtEnd()) return R::Error("trailing bytes in memo record");
  return R(std::move(record));
}

}  // namespace store
}  // namespace xpathsat
