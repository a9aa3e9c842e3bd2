#include "tests/fuzz/fuzz_harness.h"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "src/common/random.h"
#include "src/common/strings.h"
#include "src/core/sql_translator.h"
#include "src/core/xpath.h"
#include "src/core/xpath_eval.h"
#include "src/server/client.h"
#include "src/server/server.h"
#include "src/xml/xml_generator.h"
#include "src/xml/xml_parser.h"
#include "src/xml/xml_writer.h"
#include "tests/fuzz/dom_oracle.h"

namespace oxml {
namespace fuzz {
namespace {

constexpr OrderEncoding kEncodings[] = {
    OrderEncoding::kGlobal, OrderEncoding::kLocal, OrderEncoding::kDewey};

// ------------------------------------------------------------- text utils

std::string Quote(std::string_view s) {
  std::string out = "\"";
  for (char ch : s) {
    unsigned char c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\x%02x", c);
          out += buf;
        } else {
          out.push_back(ch);
        }
    }
  }
  out.push_back('"');
  return out;
}

/// Splits one repro line into tokens; double-quoted tokens are unescaped.
Result<std::vector<std::string>> Tokenize(std::string_view line) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < line.size()) {
    if (line[i] == ' ') {
      ++i;
      continue;
    }
    std::string tok;
    if (line[i] == '"') {
      ++i;
      bool closed = false;
      while (i < line.size()) {
        char c = line[i];
        if (c == '"') {
          closed = true;
          ++i;
          break;
        }
        if (c == '\\' && i + 1 < line.size()) {
          char e = line[i + 1];
          i += 2;
          switch (e) {
            case 'n':
              tok.push_back('\n');
              break;
            case 'r':
              tok.push_back('\r');
              break;
            case 't':
              tok.push_back('\t');
              break;
            case 'x': {
              if (i + 2 > line.size()) {
                return Status::ParseError("truncated \\x escape");
              }
              int v = std::stoi(std::string(line.substr(i, 2)), nullptr, 16);
              tok.push_back(static_cast<char>(v));
              i += 2;
              break;
            }
            default:
              tok.push_back(e);
          }
        } else {
          tok.push_back(c);
          ++i;
        }
      }
      if (!closed) return Status::ParseError("unterminated quoted token");
    } else {
      while (i < line.size() && line[i] != ' ') tok.push_back(line[i++]);
    }
    out.push_back(std::move(tok));
  }
  return out;
}

std::string PathToString(const std::vector<size_t>& path) {
  if (path.empty()) return ".";
  std::string out;
  for (size_t i = 0; i < path.size(); ++i) {
    if (i > 0) out.push_back('.');
    out += std::to_string(path[i]);
  }
  return out;
}

Result<std::vector<size_t>> PathFromString(const std::string& s) {
  std::vector<size_t> out;
  if (s == ".") return out;
  for (const std::string& part : Split(s, '.')) {
    if (part.empty()) return Status::ParseError("bad node path: " + s);
    for (char c : part) {
      if (c < '0' || c > '9') {
        return Status::ParseError("bad node path: " + s);
      }
    }
    out.push_back(static_cast<size_t>(std::stoull(part)));
  }
  return out;
}

const char* PosToString(InsertPosition pos) {
  switch (pos) {
    case InsertPosition::kBefore:
      return "before";
    case InsertPosition::kAfter:
      return "after";
    case InsertPosition::kFirstChild:
      return "firstchild";
    case InsertPosition::kLastChild:
      return "lastchild";
  }
  return "?";
}

Result<InsertPosition> PosFromString(const std::string& s) {
  if (s == "before") return InsertPosition::kBefore;
  if (s == "after") return InsertPosition::kAfter;
  if (s == "firstchild") return InsertPosition::kFirstChild;
  if (s == "lastchild") return InsertPosition::kLastChild;
  return Status::ParseError("bad insert position: " + s);
}

std::string Truncate(std::string_view s, size_t n = 160) {
  if (s.size() <= n) return std::string(s);
  return std::string(s.substr(0, n)) + "...(" + std::to_string(s.size()) +
         " bytes)";
}

/// Context around the first differing byte of two strings.
std::string DiffContext(const std::string& a, const std::string& b) {
  size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  size_t lo = i > 40 ? i - 40 : 0;
  return "first difference at byte " + std::to_string(i) + ": expected ..." +
         Truncate(std::string_view(a).substr(lo, 80)) + "... got ..." +
         Truncate(std::string_view(b).substr(lo, 80)) + "...";
}

}  // namespace

// ---------------------------------------------------------------- structs

DatabaseOptions DbToggles::ToDatabaseOptions() const {
  DatabaseOptions opts;
  opts.enable_structural_join = structural_join;
  opts.enable_merge_join = merge_join;
  opts.enable_sort_elision = sort_elision;
  opts.plan_cache_capacity = plan_cache ? 128 : 0;
  return opts;
}

std::string DbToggles::ToString() const {
  std::string out;
  out += "sj=" + std::to_string(structural_join ? 1 : 0);
  out += " mj=" + std::to_string(merge_join ? 1 : 0);
  out += " se=" + std::to_string(sort_elision ? 1 : 0);
  out += " pc=" + std::to_string(plan_cache ? 1 : 0);
  return out;
}

std::string FuzzOp::ToString() const {
  switch (kind) {
    case Kind::kQuery:
      return "op query " + Quote(xpath);
    case Kind::kInsert:
      return "op insert " + PathToString(path) + " " +
             std::string(PosToString(pos)) +
             (text_payload ? " text " + Quote(text)
                           : " elem " + Quote(payload_xml));
    case Kind::kDelete:
      return "op delete " + PathToString(path);
    case Kind::kMove:
      return "op move " + PathToString(path) + " " +
             std::string(PosToString(pos)) + " " + PathToString(ref_path);
    case Kind::kSetText:
      return "op settext " + PathToString(path) + " " + Quote(text);
    case Kind::kSetAttr:
      return "op setattr " + PathToString(path) + " " + attr_name + " " +
             Quote(text);
    case Kind::kCrashRecover:
      return "op crashrecover";
    case Kind::kBulkReload:
      return "op bulkreload";
    case Kind::kSnapshotRead:
      return "op snapshotread " + PathToString(path) + " " + Quote(xpath);
    case Kind::kCancel:
      return "op cancel " + Quote(xpath);
  }
  return "op ?";
}

std::string FuzzFailure::Describe() const {
  return "op #" + std::to_string(op_index) + " [" + encoding + "] " + message;
}

// ------------------------------------------------------------- generation

namespace {

void CollectTree(XmlNode* n, std::vector<XmlNode*>* out) {
  out->push_back(n);
  for (const auto& c : n->children()) CollectTree(c.get(), out);
}

bool IsRootElement(const XmlNode* n) {
  return n->parent() == nullptr ||
         n->parent()->kind() == XmlNodeKind::kDocument;
}

std::string RandomWords(Random* rng, int max_words) {
  int n = static_cast<int>(rng->Uniform(1, max_words));
  std::string out;
  for (int i = 0; i < n; ++i) {
    if (i > 0) out.push_back(' ');
    out += rng->Word(2, 7);
  }
  return out;
}

std::string RandomTag(Random* rng, const DocParams& doc) {
  return "tag" + std::to_string(rng->Uniform(0, doc.vocab - 1));
}

std::unique_ptr<XmlNode> GenSubtree(Random* rng, const DocParams& doc,
                                    int depth, int* budget) {
  auto elem = XmlNode::Element(RandomTag(rng, doc));
  --*budget;
  if (rng->Chance(0.3)) {
    elem->SetAttribute("id", "f" + std::to_string(rng->Uniform(0, 9999)));
  }
  if (depth < 3) {
    int fanout = static_cast<int>(rng->Uniform(0, 3));
    for (int i = 0; i < fanout && *budget > 0; ++i) {
      if (rng->Chance(0.4)) {
        elem->AppendChild(XmlNode::Text(RandomWords(rng, 4)));
        --*budget;
      } else {
        elem->AppendChild(GenSubtree(rng, doc, depth + 1, budget));
      }
    }
  }
  if (elem->children().empty() && rng->Chance(0.6)) {
    elem->AppendChild(XmlNode::Text(RandomWords(rng, 4)));
    --*budget;
  }
  return elem;
}

std::string GenPredicate(Random* rng, const DocParams& doc) {
  switch (rng->Uniform(0, 8)) {
    case 0:
      return "[" + std::to_string(rng->Uniform(1, 4)) + "]";
    case 1:
      return "[last()]";
    case 2:
      return "[position() >= " + std::to_string(rng->Uniform(2, 4)) + "]";
    case 3:
      return "[position() <= " + std::to_string(rng->Uniform(1, 3)) + "]";
    case 4:
      return "[position() < " + std::to_string(rng->Uniform(1, 4)) + "]";
    case 5:
      return "[position() = " + std::to_string(rng->Uniform(1, 3)) + "]";
    case 6:
      return "[@id]";
    case 7:
      return "[@id != 'n" +
             std::to_string(rng->Uniform(0, doc.nodes / 4)) + "']";
    default:
      return "[@id = 'n" +
             std::to_string(rng->Uniform(0, doc.nodes / 4)) + "']";
  }
}

std::string GenQuery(Random* rng, const DocParams& doc) {
  int nsteps = static_cast<int>(rng->Uniform(1, 3));
  std::string out;
  for (int i = 0; i < nsteps; ++i) {
    bool last = (i == nsteps - 1);
    bool axis_step = i > 0 && rng->Chance(0.15);
    out += (!axis_step && rng->Chance(0.45)) ? "//" : "/";
    if (axis_step) {
      switch (rng->Uniform(0, 3)) {
        case 0:
          out += "following-sibling::";
          break;
        case 1:
          out += "preceding-sibling::";
          break;
        case 2:
          out += "ancestor::";
          break;
        default:
          out += "parent::";
      }
    }
    // Node test. text()/@attr only as a trailing step: the engine's subset
    // requires the first step to use the child or descendant axis.
    if (last && i > 0 && rng->Chance(0.12)) {
      out += "text()";
      continue;  // no predicates on text()
    }
    if (last && i > 0 && rng->Chance(0.1)) {
      out += "@id";
      continue;
    }
    double r = rng->NextDouble();
    if (i == 0 && !axis_step && rng->Chance(0.3)) {
      out += "root";  // generated documents are rooted at <root>
    } else if (r < 0.75) {
      out += RandomTag(rng, doc);
    } else {
      out += "*";
    }
    if (rng->Chance(0.35)) {
      out += GenPredicate(rng, doc);
      // Two predicates: the second sees the list the first one left.
      if (rng->Chance(0.3)) out += GenPredicate(rng, doc);
    }
  }
  return out;
}

/// Picks a position valid for inserting relative to `ref`.
bool PickInsertPos(Random* rng, const XmlNode* ref, InsertPosition* pos) {
  bool root = IsRootElement(ref);
  if (ref->is_element()) {
    if (root) {
      *pos = rng->Chance(0.5) ? InsertPosition::kFirstChild
                              : InsertPosition::kLastChild;
    } else {
      switch (rng->Uniform(0, 3)) {
        case 0:
          *pos = InsertPosition::kBefore;
          break;
        case 1:
          *pos = InsertPosition::kAfter;
          break;
        case 2:
          *pos = InsertPosition::kFirstChild;
          break;
        default:
          *pos = InsertPosition::kLastChild;
      }
    }
    return true;
  }
  if (root) return false;
  *pos = rng->Chance(0.5) ? InsertPosition::kBefore : InsertPosition::kAfter;
  return true;
}

}  // namespace

FuzzCase GenerateCase(uint64_t seed, size_t num_ops) {
  // Decorrelate the workload stream from the document generator (which is
  // seeded with the raw seed).
  Random rng(seed * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL);
  FuzzCase c;
  c.doc.seed = seed;
  c.doc.nodes = static_cast<int>(rng.Uniform(60, 180));
  c.doc.depth = static_cast<int>(rng.Uniform(3, 6));
  c.doc.fanout = static_cast<int>(rng.Uniform(2, 6));
  c.doc.vocab = static_cast<int>(rng.Uniform(3, 8));
  constexpr int64_t kGaps[] = {1, 2, 4, 8, 32};
  c.doc.gap = kGaps[rng.Uniform(0, 4)];
  for (DbToggles& t : c.toggles) {
    t.structural_join = rng.Chance(0.5);
    t.merge_join = rng.Chance(0.5);
    t.sort_elision = rng.Chance(0.5);
    t.plan_cache = rng.Chance(0.5);
  }
  // A quarter of all cases run file-backed with the WAL on, so crash
  // recovery and the no-steal buffer pool see the same op distribution the
  // memory-resident path does.
  c.durable = rng.Chance(0.25);
  // A third of all cases run with an execution pool, so loads fan out over
  // it, with a worker count drawn wide enough to cover both the degenerate
  // 1-thread fan-out and real contention.
  if (rng.Chance(0.33)) {
    c.load_threads = static_cast<size_t>(rng.Uniform(1, 4));
  }
  // A fifth of all cases run with a generous default deadline: never
  // expected to trip, but every statement then exercises the
  // deadline-check machinery (stride-sampled clock reads) end to end.
  if (rng.Chance(0.2)) {
    c.timeout_ms = 10000;
  }

  XmlGeneratorOptions gopts;
  gopts.seed = c.doc.seed;
  gopts.target_nodes = static_cast<size_t>(c.doc.nodes);
  gopts.max_depth = c.doc.depth;
  gopts.max_fanout = c.doc.fanout;
  gopts.tag_vocabulary = c.doc.vocab;
  auto doc = GenerateXml(gopts);
  DomOracle oracle(*doc);

  c.ops.reserve(num_ops);
  while (c.ops.size() < num_ops) {
    FuzzOp op;
    double r = rng.NextDouble();
    if (r < 0.45) {
      op.kind = FuzzOp::Kind::kQuery;
      op.xpath = GenQuery(&rng, c.doc);
      c.ops.push_back(std::move(op));
      continue;
    }
    if (c.durable && r < 0.50) {  // ~5% of a durable case's ops
      op.kind = FuzzOp::Kind::kCrashRecover;
      c.ops.push_back(std::move(op));
      continue;
    }
    if (r >= 0.50 && r < 0.53) {  // ~3%: reload through the parallel path
      op.kind = FuzzOp::Kind::kBulkReload;
      c.ops.push_back(std::move(op));
      continue;
    }

    std::vector<XmlNode*> all;
    CollectTree(oracle.root_element(), &all);

    if (r < 0.56) {  // snapshot read: query under an open foreign txn
      std::vector<XmlNode*> cands;
      for (XmlNode* n : all) {
        if (!IsRootElement(n)) cands.push_back(n);
      }
      if (cands.empty()) continue;
      XmlNode* target =
          cands[rng.Uniform(0, static_cast<int64_t>(cands.size()) - 1)];
      op.kind = FuzzOp::Kind::kSnapshotRead;
      op.path = oracle.PathOf(target);
      op.xpath = GenQuery(&rng, c.doc);
      // The oracle is NOT mutated: the uncommitted delete rolls back.
      c.ops.push_back(std::move(op));
    } else if (r < 0.58) {  // cancellation race against an in-flight query
      op.kind = FuzzOp::Kind::kCancel;
      op.xpath = GenQuery(&rng, c.doc);
      c.ops.push_back(std::move(op));
    } else if (r < 0.65) {  // insert
      XmlNode* ref = all[rng.Uniform(0, static_cast<int64_t>(all.size()) - 1)];
      InsertPosition pos;
      if (!PickInsertPos(&rng, ref, &pos)) continue;
      op.kind = FuzzOp::Kind::kInsert;
      op.path = oracle.PathOf(ref);
      op.pos = pos;
      std::unique_ptr<XmlNode> payload;
      if (rng.Chance(0.25)) {
        op.text_payload = true;
        op.text = RandomWords(&rng, 4);
        payload = XmlNode::Text(op.text);
      } else {
        int budget = static_cast<int>(rng.Uniform(1, 8));
        payload = GenSubtree(&rng, c.doc, 1, &budget);
        op.payload_xml = WriteXml(*payload);
      }
      bool ok = oracle.Insert(ref, pos, std::move(payload));
      if (!ok) continue;
      c.ops.push_back(std::move(op));
    } else if (r < 0.76) {  // delete
      std::vector<XmlNode*> cands;
      for (XmlNode* n : all) {
        if (!IsRootElement(n)) cands.push_back(n);
      }
      if (cands.empty()) continue;
      XmlNode* target =
          cands[rng.Uniform(0, static_cast<int64_t>(cands.size()) - 1)];
      op.kind = FuzzOp::Kind::kDelete;
      op.path = oracle.PathOf(target);
      if (!oracle.Delete(target)) continue;
      c.ops.push_back(std::move(op));
    } else if (r < 0.85) {  // move
      std::vector<XmlNode*> sources;
      for (XmlNode* n : all) {
        if (!IsRootElement(n)) sources.push_back(n);
      }
      if (sources.empty()) continue;
      XmlNode* source =
          sources[rng.Uniform(0, static_cast<int64_t>(sources.size()) - 1)];
      std::vector<XmlNode*> refs;
      for (XmlNode* n : all) {
        if (!DomOracle::InSubtree(n, source)) refs.push_back(n);
      }
      if (refs.empty()) continue;
      XmlNode* ref =
          refs[rng.Uniform(0, static_cast<int64_t>(refs.size()) - 1)];
      InsertPosition pos;
      if (!PickInsertPos(&rng, ref, &pos)) continue;
      op.kind = FuzzOp::Kind::kMove;
      op.path = oracle.PathOf(source);
      op.ref_path = oracle.PathOf(ref);
      op.pos = pos;
      if (!oracle.Move(source, ref, pos)) continue;
      c.ops.push_back(std::move(op));
    } else if (r < 0.94) {  // settext
      std::vector<XmlNode*> texts;
      for (XmlNode* n : all) {
        if (n->is_text()) texts.push_back(n);
      }
      if (texts.empty()) continue;
      XmlNode* target =
          texts[rng.Uniform(0, static_cast<int64_t>(texts.size()) - 1)];
      op.kind = FuzzOp::Kind::kSetText;
      op.path = oracle.PathOf(target);
      op.text = RandomWords(&rng, 5);
      if (!oracle.SetValue(target, op.text)) continue;
      c.ops.push_back(std::move(op));
    } else {  // setattr
      std::vector<XmlNode*> withattrs;
      for (XmlNode* n : all) {
        if (!n->attributes().empty()) withattrs.push_back(n);
      }
      if (withattrs.empty()) continue;
      XmlNode* target = withattrs[rng.Uniform(
          0, static_cast<int64_t>(withattrs.size()) - 1)];
      const auto& attrs = target->attributes();
      op.kind = FuzzOp::Kind::kSetAttr;
      op.path = oracle.PathOf(target);
      op.attr_name =
          attrs[rng.Uniform(0, static_cast<int64_t>(attrs.size()) - 1)].name;
      op.text = rng.Word(1, 8);
      if (!oracle.SetExistingAttribute(target, op.attr_name, op.text)) {
        continue;
      }
      c.ops.push_back(std::move(op));
    }
  }
  return c;
}

// -------------------------------------------------------------- execution

namespace {

struct StoreInstance {
  std::unique_ptr<Database> db;
  std::unique_ptr<OrderedXmlStore> store;
  const char* name = "";
  OrderEncoding encoding = OrderEncoding::kGlobal;
  DatabaseOptions dbopts;  // durable cases reopen from these after a crash
};

/// Unique per-case temp path for a durable store's database file.
std::string FuzzTempPath(const char* enc_name) {
  static uint64_t counter = 0;
  const char* base = std::getenv("TMPDIR");
  return std::string(base != nullptr ? base : "/tmp") + "/oxml_fuzz_" +
         std::to_string(static_cast<long long>(::getpid())) + "_" +
         std::to_string(++counter) + "_" + enc_name + ".db";
}

/// Removes a durable case's database + WAL files when the run ends
/// (declared before the stores so the databases close first).
struct FileCleanup {
  std::vector<std::string> paths;
  ~FileCleanup() {
    for (const std::string& p : paths) {
      std::remove(p.c_str());
      std::remove((p + ".wal").c_str());
    }
  }
};

Result<std::string> StoreSignature(OrderedXmlStore* store,
                                   const StoredNode& n) {
  if (n.kind == XmlNodeKind::kAttribute) {
    return "@" + n.tag + "=" + n.value;
  }
  OXML_ASSIGN_OR_RETURN(std::unique_ptr<XmlNode> subtree,
                        store->ReconstructSubtree(n));
  return WriteXml(*subtree);
}

/// Compares one store result sequence against the oracle's signatures.
std::optional<std::string> CompareResults(
    OrderedXmlStore* store, const std::vector<std::string>& expected,
    const std::vector<StoredNode>& actual, const std::string& mode) {
  if (actual.size() != expected.size()) {
    return mode + ": result count mismatch: oracle " +
           std::to_string(expected.size()) + ", store " +
           std::to_string(actual.size());
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    auto sig = StoreSignature(store, actual[i]);
    if (!sig.ok()) {
      return mode + ": result " + std::to_string(i) +
             " unreconstructable: " + sig.status().ToString();
    }
    if (*sig != expected[i]) {
      return mode + ": result " + std::to_string(i) +
             " mismatch: oracle " + Truncate(expected[i]) + " vs store " +
             Truncate(*sig);
    }
  }
  return std::nullopt;
}

/// Verifies one parsed query against every store, in driver mode and —
/// where the subset allows it — as one translated SQL statement. Safe to
/// call from several threads at once: queries and subtree reconstruction
/// are read-only statements under the database's shared latch, and the
/// oracle's answers are precomputed by the caller.
std::optional<FuzzFailure> VerifyQuery(
    StoreInstance* stores, const FuzzOp& op, size_t op_index,
    const XPathQuery& parsed, const std::vector<std::string>& expected) {
  for (int e = 0; e < 3; ++e) {
    StoreInstance& s = stores[e];
    auto fail = [&](const std::string& msg) {
      return FuzzFailure{op_index, s.name, op.ToString() + ": " + msg};
    };
    // A tripped deadline on a configured-timeout case is a legitimate
    // governance outcome for a read-only statement: skip the comparison
    // (the document is untouched) rather than reporting a divergence.
    bool deadline_configured = s.dbopts.default_statement_timeout_ms > 0;
    auto actual = EvaluateXPath(s.store.get(), parsed);
    if (!actual.ok()) {
      if (deadline_configured && actual.status().IsDeadlineExceeded()) {
        continue;
      }
      return fail("driver error: " + actual.status().ToString());
    }
    if (auto msg =
            CompareResults(s.store.get(), expected, *actual, "driver")) {
      return fail(*msg);
    }
    // Whole-path SQL translation, where the subset allows it.
    auto translated = TranslateXPathToSql(*s.store, parsed);
    if (translated.ok()) {
      auto via = EvaluateXPathViaSql(s.store.get(), parsed);
      if (!via.ok()) {
        if (deadline_configured && via.status().IsDeadlineExceeded()) {
          continue;
        }
        return fail("translated error: " + via.status().ToString());
      }
      if (auto msg =
              CompareResults(s.store.get(), expected, *via, "translated")) {
        return fail(*msg);
      }
    } else if (!translated.status().IsNotImplemented()) {
      return fail("translate: " + translated.status().ToString());
    }
  }
  return std::nullopt;
}

/// Session mode (FuzzCase::sessions > 0): one loopback OxmlServer per
/// store, each exposing the live store to the kXPath frame as "doc", plus
/// a pool of OXWP protocol clients per server. Query batches are then also
/// verified end to end over the wire — handshake, admission, statement
/// dispatch, result framing — against the same precomputed oracle answers
/// the embedded path uses. The servers borrow the stores' databases, so
/// the fleet must be stopped before any op that tears a database down or
/// replaces it (kCrashRecover, kBulkReload) and restarted on the new
/// instances afterwards; RunCase declares the fleet after the stores so it
/// also shuts down first on every early return.
struct SessionFleet {
  size_t n = 0;  // clients per server; 0 = session mode off
  std::unique_ptr<server::OxmlServer> servers[3];
  std::vector<std::unique_ptr<server::OxmlClient>> clients[3];

  /// (Re)starts one server over each store's current database and connects
  /// `n_clients` sessions to each. Returns an error message on failure.
  std::optional<std::string> Start(StoreInstance* stores, size_t n_clients) {
    Stop();
    n = n_clients;
    for (int e = 0; e < 3; ++e) {
      server::ServerOptions sopts;
      sopts.worker_threads = std::max<size_t>(2, std::min<size_t>(n, 8));
      sopts.session.max_sessions = n + 1;
      // Enough slots that n well-behaved clients never see an admission
      // rejection — this mode hunts result divergences, not overflow.
      sopts.session.max_concurrent_statements = n;
      sopts.session.max_queued_statements = 2 * n;
      auto srv = std::make_unique<server::OxmlServer>(stores[e].db.get(),
                                                      sopts);
      Status st = srv->Start();
      if (!st.ok()) {
        return std::string(stores[e].name) +
               ": server start: " + st.ToString();
      }
      srv->RegisterStore("doc", stores[e].store.get());
      servers[e] = std::move(srv);
      for (size_t k = 0; k < n; ++k) {
        server::ClientOptions copts;
        copts.port = servers[e]->port();
        auto cl = server::OxmlClient::Connect(copts);
        if (!cl.ok()) {
          return std::string(stores[e].name) +
                 ": client connect: " + cl.status().ToString();
        }
        clients[e].push_back(std::move(cl).value());
      }
    }
    return std::nullopt;
  }

  void Stop() {
    for (int e = 0; e < 3; ++e) {
      for (auto& c : clients[e]) {
        if (c != nullptr) (void)c->Goodbye();
      }
      clients[e].clear();
      if (servers[e] != nullptr) {
        servers[e]->Stop();
        servers[e].reset();
      }
    }
    n = 0;
  }

  ~SessionFleet() { Stop(); }
};

/// The wire-level counterpart of VerifyQuery: evaluates the query through
/// one protocol client per encoding. The kXPath frame returns the same
/// signature strings the oracle precomputes, so comparison is direct.
/// Thread-safe under the same contract as VerifyQuery as long as each
/// concurrent caller uses a distinct `client_index`.
std::optional<FuzzFailure> VerifyQueryOverWire(
    SessionFleet* fleet, const StoreInstance* stores, size_t client_index,
    const FuzzOp& op, size_t op_index,
    const std::vector<std::string>& expected) {
  for (int e = 0; e < 3; ++e) {
    const StoreInstance& s = stores[e];
    auto fail = [&](const std::string& msg) {
      return FuzzFailure{op_index, s.name, op.ToString() + ": " + msg};
    };
    auto actual =
        fleet->clients[e][client_index]->XPath("doc", op.xpath);
    if (!actual.ok()) {
      if (s.dbopts.default_statement_timeout_ms > 0 &&
          actual.status().IsDeadlineExceeded()) {
        continue;  // tripped deadline = governance outcome, as embedded
      }
      return fail("session query error: " + actual.status().ToString());
    }
    if (actual->size() != expected.size()) {
      return fail("session: result count mismatch: oracle " +
                  std::to_string(expected.size()) + ", session " +
                  std::to_string(actual->size()));
    }
    for (size_t r = 0; r < expected.size(); ++r) {
      if ((*actual)[r] != expected[r]) {
        return fail("session: result " + std::to_string(r) +
                    " mismatch: oracle " + Truncate(expected[r]) +
                    " vs session " + Truncate((*actual)[r]));
      }
    }
  }
  return std::nullopt;
}

}  // namespace

std::optional<FuzzFailure> RunCase(FuzzCase* c) {
  c->skipped_ops = 0;
  XmlGeneratorOptions gopts;
  gopts.seed = c->doc.seed;
  gopts.target_nodes = static_cast<size_t>(c->doc.nodes);
  gopts.max_depth = c->doc.depth;
  gopts.max_fanout = c->doc.fanout;
  gopts.tag_vocabulary = c->doc.vocab;
  auto doc = GenerateXml(gopts);
  DomOracle oracle(*doc);

  FileCleanup cleanup;
  StoreInstance stores[3];
  for (int e = 0; e < 3; ++e) {
    OrderEncoding enc = kEncodings[e];
    stores[e].name = OrderEncodingToString(enc);
    stores[e].encoding = enc;
    auto failure = [&](const std::string& msg) {
      return FuzzFailure{0, stores[e].name, msg};
    };
    stores[e].dbopts = c->toggles[e].ToDatabaseOptions();
    stores[e].dbopts.default_statement_timeout_ms = c->timeout_ms;
    if (c->load_threads > 0) {
      stores[e].dbopts.enable_parallel_execution = true;
      stores[e].dbopts.num_threads = c->load_threads;
      // Tiny runs force multi-run merges even on the fuzzer's small docs.
      stores[e].dbopts.load_run_bytes = 1024;
    }
    if (c->durable) {
      stores[e].dbopts.file_path = FuzzTempPath(stores[e].name);
      cleanup.paths.push_back(stores[e].dbopts.file_path);
    }
    auto db = Database::Open(stores[e].dbopts);
    if (!db.ok()) return failure("open: " + db.status().ToString());
    stores[e].db = std::move(db).value();
    StoreOptions sopts;
    sopts.gap = c->doc.gap;
    auto store = OrderedXmlStore::Create(stores[e].db.get(), enc, sopts);
    if (!store.ok()) return failure("create: " + store.status().ToString());
    stores[e].store = std::move(store).value();
    Status load = stores[e].store->LoadDocument(*doc);
    if (!load.ok()) {
      // A configured deadline tripping during the initial load is a
      // governance outcome, not a divergence; the case just cannot run.
      if (c->timeout_ms > 0 && load.IsDeadlineExceeded()) return std::nullopt;
      return failure("load: " + load.ToString());
    }
    Status valid = stores[e].store->Validate();
    if (!valid.ok()) {
      return failure("invariant violation after load: " + valid.ToString());
    }
  }

  // Session mode: spin up the loopback servers + protocol clients. At
  // least one client per query thread, so concurrent batch workers never
  // share a (single-threaded) client.
  SessionFleet fleet;
  size_t fleet_size = std::max(c->sessions, c->query_threads);
  if (c->sessions > 0) {
    if (auto err = fleet.Start(stores, fleet_size)) {
      return FuzzFailure{0, "", "session fleet start: " + *err};
    }
  }

  for (size_t i = 0; i < c->ops.size(); ++i) {
    const FuzzOp& op = c->ops[i];

    if (op.kind == FuzzOp::Kind::kQuery) {
      // Gather the maximal run of consecutive queries and precompute the
      // oracle's answers serially (the oracle is not latched).
      struct QueryTask {
        size_t op_index;
        XPathQuery parsed;
        std::vector<std::string> expected;
      };
      std::vector<QueryTask> batch;
      size_t j = i;
      for (; j < c->ops.size() && c->ops[j].kind == FuzzOp::Kind::kQuery;
           ++j) {
        auto parsed = ParseXPath(c->ops[j].xpath);
        if (!parsed.ok()) {
          ++c->skipped_ops;
          continue;
        }
        QueryTask t;
        t.op_index = j;
        t.parsed = std::move(parsed).value();
        std::vector<OracleNode> oracle_nodes = oracle.Evaluate(t.parsed);
        t.expected.reserve(oracle_nodes.size());
        for (const OracleNode& n : oracle_nodes) {
          t.expected.push_back(oracle.Signature(n));
        }
        batch.push_back(std::move(t));
      }

      std::optional<FuzzFailure> qfail;
      size_t nthreads = std::min(c->query_threads, batch.size());
      if (nthreads <= 1) {
        for (size_t k = 0; k < batch.size(); ++k) {
          const QueryTask& t = batch[k];
          qfail = VerifyQuery(stores, c->ops[t.op_index], t.op_index,
                              t.parsed, t.expected);
          if (!qfail.has_value() && fleet.n > 0) {
            // Round-robin over the clients so every session serves work.
            qfail = VerifyQueryOverWire(&fleet, stores, k % fleet.n,
                                        c->ops[t.op_index], t.op_index,
                                        t.expected);
          }
          if (qfail.has_value()) break;
        }
      } else {
        // Concurrent-reader mode: N client threads drain the batch.
        // Mutations never overlap the fan-out, so every query sees the
        // same document state as a serial replay would; any divergence is
        // a latching/plan-sharing bug. The earliest-op failure is the one
        // reported, keeping repro files deterministic.
        std::atomic<size_t> next{0};
        std::mutex fail_mu;
        std::vector<std::thread> workers;
        workers.reserve(nthreads);
        for (size_t t = 0; t < nthreads; ++t) {
          workers.emplace_back([&, t]() {
            for (size_t k = next.fetch_add(1); k < batch.size();
                 k = next.fetch_add(1)) {
              const QueryTask& task = batch[k];
              auto f = VerifyQuery(stores, c->ops[task.op_index],
                                   task.op_index, task.parsed,
                                   task.expected);
              if (!f.has_value() && fleet.n > 0) {
                // Each worker owns client index t (clients are
                // single-threaded; the fleet is sized >= nthreads).
                f = VerifyQueryOverWire(&fleet, stores, t,
                                        c->ops[task.op_index],
                                        task.op_index, task.expected);
              }
              if (f.has_value()) {
                std::lock_guard<std::mutex> lock(fail_mu);
                if (!qfail.has_value() || f->op_index < qfail->op_index) {
                  qfail = std::move(f);
                }
              }
            }
          });
        }
        for (std::thread& w : workers) w.join();
      }
      if (qfail.has_value()) return qfail;
      i = j - 1;  // the loop's ++i lands on the first non-query op
      continue;
    }

    if (op.kind == FuzzOp::Kind::kCrashRecover) {
      if (!c->durable) {  // meaningless without a disk to recover from
        ++c->skipped_ops;
        continue;
      }
      std::string oracle_doc = oracle.Serialize();
      // The servers borrow the databases about to be crashed: disconnect
      // every session and stop them first, restart on the reopened ones.
      fleet.Stop();
      for (StoreInstance& s : stores) {
        auto fail = [&](const std::string& msg) {
          return FuzzFailure{i, s.name, op.ToString() + ": " + msg};
        };
        // Kill the process state mid-run: nothing flushes, the WAL stays
        // as-is, and the reopen must replay every committed mutation.
        s.db->SimulateCrashForTesting();
        s.store.reset();
        s.db.reset();
        DatabaseOptions ropts = s.dbopts;
        ropts.open_existing = true;
        auto db = Database::Open(ropts);
        if (!db.ok()) {
          return fail("reopen after crash: " + db.status().ToString());
        }
        s.db = std::move(db).value();
        StoreOptions sopts;
        sopts.gap = c->doc.gap;
        auto store = OrderedXmlStore::Attach(s.db.get(), s.encoding, sopts);
        if (!store.ok()) {
          return fail("attach after crash: " + store.status().ToString());
        }
        s.store = std::move(store).value();
        Status valid = s.store->Validate();
        if (!valid.ok()) {
          return fail("invariant violation after recovery: " +
                      valid.ToString());
        }
        auto rec = s.store->ReconstructDocument();
        if (!rec.ok()) {
          return fail("reconstruction after recovery: " +
                      rec.status().ToString());
        }
        std::string got = WriteXml(**rec);
        if (got != oracle_doc) {
          return fail("recovered document diverged from oracle: " +
                      DiffContext(oracle_doc, got));
        }
      }
      if (c->sessions > 0) {
        if (auto err = fleet.Start(stores, fleet_size)) {
          return FuzzFailure{i, "",
                             "session fleet restart after crash: " + *err};
        }
      }
      continue;
    }

    if (op.kind == FuzzOp::Kind::kBulkReload) {
      // Reload the oracle's current document through the load pipeline
      // into a fresh database, verify the reload, and swap it in for the
      // rest of the op stream. This exercises the
      // partition/shred/merge path against documents shaped by arbitrary
      // prior mutations, not just generator output. The tree is cloned
      // rather than serialized+reparsed: mutations can leave adjacent
      // text-node siblings, which a reparse would merge, silently
      // desynchronizing the store's tree shape from the oracle's.
      std::string oracle_doc = oracle.Serialize();
      XmlDocument snapshot;
      snapshot.root()->AppendChild(oracle.root_element()->Clone());
      // The reload replaces each store's database out from under any
      // running server: stop the fleet, restart it on the fresh stores.
      fleet.Stop();
      for (StoreInstance& s : stores) {
        auto fail = [&](const std::string& msg) {
          return FuzzFailure{i, s.name, op.ToString() + ": " + msg};
        };
        DatabaseOptions ropts = s.dbopts;
        ropts.load_run_bytes = 1024;
        ropts.open_existing = false;
        if (c->durable) {
          ropts.file_path = FuzzTempPath(s.name);
          cleanup.paths.push_back(ropts.file_path);
        }
        auto db = Database::Open(ropts);
        if (!db.ok()) return fail("open: " + db.status().ToString());
        StoreOptions sopts;
        sopts.gap = c->doc.gap;
        auto store =
            OrderedXmlStore::Create(db->get(), s.encoding, sopts);
        if (!store.ok()) {
          return fail("create: " + store.status().ToString());
        }
        Status load = (*store)->LoadDocument(snapshot);
        if (!load.ok()) return fail("bulk reload: " + load.ToString());
        Status valid = (*store)->Validate();
        if (!valid.ok()) {
          return fail("invariant violation after bulk reload: " +
                      valid.ToString());
        }
        auto rec = (*store)->ReconstructDocument();
        if (!rec.ok()) {
          return fail("reconstruction after bulk reload: " +
                      rec.status().ToString());
        }
        std::string got = WriteXml(**rec);
        if (got != oracle_doc) {
          return fail("parallel-loaded document diverged from oracle: " +
                      DiffContext(oracle_doc, got));
        }
        // The reload becomes the live store; drop the old database after
        // the new one is fully verified.
        s.store = std::move(store).value();
        s.db = std::move(db).value();
        s.dbopts = ropts;
      }
      if (c->sessions > 0) {
        if (auto err = fleet.Start(stores, fleet_size)) {
          return FuzzFailure{i, "",
                             "session fleet restart after reload: " + *err};
        }
      }
      continue;
    }

    if (op.kind == FuzzOp::Kind::kSnapshotRead) {
      // MVCC check: each store's database opens a transaction and deletes
      // the subtree at op.path without committing, then a second thread
      // evaluates op.xpath. Joining the reader while the transaction is
      // still open proves it never blocked; its results must match the
      // oracle's committed state exactly. The transaction then rolls
      // back, so the document is unchanged for subsequent ops.
      auto parsed = ParseXPath(op.xpath);
      XmlNode* target = oracle.ResolvePath(op.path);
      if (!parsed.ok() || target == nullptr || IsRootElement(target)) {
        ++c->skipped_ops;
        continue;
      }
      std::vector<OracleNode> oracle_nodes = oracle.Evaluate(*parsed);
      std::vector<std::string> expected;
      expected.reserve(oracle_nodes.size());
      for (const OracleNode& n : oracle_nodes) {
        expected.push_back(oracle.Signature(n));
      }
      std::string oracle_doc = oracle.Serialize();
      for (StoreInstance& s : stores) {
        auto fail = [&](const std::string& msg) {
          return FuzzFailure{i, s.name, op.ToString() + ": " + msg};
        };
        auto ref = s.store->NodeAtPath(op.path);
        if (!ref.ok()) {
          return fail("store could not resolve a path the oracle resolved: " +
                      ref.status().ToString());
        }
        Status begin = s.db->Begin();
        if (!begin.ok()) return fail("begin: " + begin.ToString());
        Status del = s.store->DeleteSubtree(*ref).status();  // rides the txn
        if (!del.ok()) {
          (void)s.db->Rollback();
          return fail("uncommitted delete rejected: " + del.ToString());
        }
        std::string reader_err;
        std::optional<std::string> mismatch;
        std::thread reader([&] {
          auto actual = EvaluateXPath(s.store.get(), *parsed);
          if (!actual.ok()) {
            reader_err = actual.status().ToString();
            return;
          }
          mismatch =
              CompareResults(s.store.get(), expected, *actual, "snapshot");
        });
        reader.join();  // completes while the transaction is still open
        Status rb = s.db->Rollback();
        if (!rb.ok()) return fail("rollback: " + rb.ToString());
        if (!reader_err.empty()) {
          return fail("snapshot read error: " + reader_err);
        }
        if (mismatch.has_value()) return fail(*mismatch);
        Status valid = s.store->Validate();
        if (!valid.ok()) {
          return fail("invariant violation after rollback: " +
                      valid.ToString());
        }
        auto rec = s.store->ReconstructDocument();
        if (!rec.ok()) {
          return fail("reconstruction after rollback: " +
                      rec.status().ToString());
        }
        std::string got = WriteXml(**rec);
        if (got != oracle_doc) {
          return fail("document diverged after rollback: " +
                      DiffContext(oracle_doc, got));
        }
      }
      continue;
    }

    if (op.kind == FuzzOp::Kind::kCancel) {
      // Cancellation race: while this thread evaluates the query, a second
      // thread sweeps Database::Cancel over the statement-id window the
      // evaluation occupies (the driver issues several statements per
      // query, so the sweep re-reads the window each pass). Whatever the
      // interleaving, exactly two outcomes are legal — the complete,
      // oracle-correct result, or kCancelled — and the database must stay
      // fully usable either way.
      auto parsed = ParseXPath(op.xpath);
      if (!parsed.ok()) {
        ++c->skipped_ops;
        continue;
      }
      std::vector<OracleNode> oracle_nodes = oracle.Evaluate(*parsed);
      std::vector<std::string> expected;
      expected.reserve(oracle_nodes.size());
      for (const OracleNode& n : oracle_nodes) {
        expected.push_back(oracle.Signature(n));
      }
      for (StoreInstance& s : stores) {
        auto fail = [&](const std::string& msg) {
          return FuzzFailure{i, s.name, op.ToString() + ": " + msg};
        };
        std::atomic<bool> done{false};
        uint64_t base = s.db->next_statement_id();
        std::thread canceller([&] {
          while (!done.load(std::memory_order_acquire)) {
            uint64_t hi = s.db->next_statement_id();
            for (uint64_t id = base; id <= hi; ++id) {
              (void)s.db->Cancel(id);  // NotFound = raced completion; fine
            }
            std::this_thread::yield();
          }
        });
        auto actual = EvaluateXPath(s.store.get(), *parsed);
        done.store(true, std::memory_order_release);
        canceller.join();
        if (actual.ok()) {
          // Won the race: the result must be complete and correct.
          if (auto msg = CompareResults(s.store.get(), expected, *actual,
                                        "cancel-race")) {
            return fail(*msg);
          }
        } else if (!actual.status().IsCancelled() &&
                   !(c->timeout_ms > 0 &&
                     actual.status().IsDeadlineExceeded())) {
          return fail("expected success or kCancelled, got: " +
                      actual.status().ToString());
        }
        Status valid = s.store->Validate();
        if (!valid.ok()) {
          return fail("invariant violation after cancel race: " +
                      valid.ToString());
        }
        // The database must serve the very next statement normally.
        auto after = EvaluateXPath(s.store.get(), *parsed);
        if (!after.ok()) {
          return fail("statement after cancel race failed: " +
                      after.status().ToString());
        }
        if (auto msg = CompareResults(s.store.get(), expected, *after,
                                      "post-cancel")) {
          return fail(*msg);
        }
      }
      continue;
    }

    // Mutation: check applicability and apply on the oracle first (path
    // resolution is against the pre-op tree on every side).
    bool applied = false;
    std::unique_ptr<XmlNode> payload;
    switch (op.kind) {
      case FuzzOp::Kind::kInsert: {
        XmlNode* ref = oracle.ResolvePath(op.path);
        if (ref == nullptr) break;
        if (op.text_payload) {
          payload = XmlNode::Text(op.text);
        } else {
          auto pdoc = ParseXml(op.payload_xml);
          if (!pdoc.ok() || (*pdoc)->root_element() == nullptr) break;
          payload = (*pdoc)->root_element()->Clone();
        }
        applied = oracle.Insert(ref, op.pos, payload->Clone());
        break;
      }
      case FuzzOp::Kind::kDelete: {
        XmlNode* target = oracle.ResolvePath(op.path);
        applied = target != nullptr && oracle.Delete(target);
        break;
      }
      case FuzzOp::Kind::kMove: {
        XmlNode* source = oracle.ResolvePath(op.path);
        XmlNode* ref = oracle.ResolvePath(op.ref_path);
        applied = source != nullptr && ref != nullptr &&
                  oracle.Move(source, ref, op.pos);
        break;
      }
      case FuzzOp::Kind::kSetText: {
        XmlNode* target = oracle.ResolvePath(op.path);
        applied = target != nullptr && oracle.SetValue(target, op.text);
        break;
      }
      case FuzzOp::Kind::kSetAttr: {
        XmlNode* target = oracle.ResolvePath(op.path);
        applied = target != nullptr &&
                  oracle.SetExistingAttribute(target, op.attr_name, op.text);
        break;
      }
      case FuzzOp::Kind::kQuery:
      case FuzzOp::Kind::kCrashRecover:
      case FuzzOp::Kind::kBulkReload:
      case FuzzOp::Kind::kSnapshotRead:
      case FuzzOp::Kind::kCancel:
        break;
    }
    if (!applied) {
      ++c->skipped_ops;
      continue;
    }

    std::string oracle_doc = oracle.Serialize();
    for (StoreInstance& s : stores) {
      auto fail = [&](const std::string& msg) {
        return FuzzFailure{i, s.name, op.ToString() + ": " + msg};
      };
      auto ref = s.store->NodeAtPath(op.path);
      if (!ref.ok()) {
        return fail("store could not resolve a path the oracle resolved: " +
                    ref.status().ToString());
      }
      Status applied_status = Status::OK();
      switch (op.kind) {
        case FuzzOp::Kind::kInsert:
          applied_status =
              s.store->InsertSubtree(*ref, op.pos, *payload).status();
          break;
        case FuzzOp::Kind::kDelete:
          applied_status = s.store->DeleteSubtree(*ref).status();
          break;
        case FuzzOp::Kind::kMove: {
          auto ref2 = s.store->NodeAtPath(op.ref_path);
          if (!ref2.ok()) {
            return fail("store could not resolve the move destination: " +
                        ref2.status().ToString());
          }
          applied_status = s.store->MoveSubtree(*ref, *ref2, op.pos).status();
          break;
        }
        case FuzzOp::Kind::kSetText:
          applied_status = s.store->UpdateNodeValue(*ref, op.text).status();
          break;
        case FuzzOp::Kind::kSetAttr:
          applied_status =
              s.store->UpdateAttributeValue(*ref, op.attr_name, op.text)
                  .status();
          break;
        case FuzzOp::Kind::kQuery:
        case FuzzOp::Kind::kCrashRecover:
        case FuzzOp::Kind::kBulkReload:
        case FuzzOp::Kind::kSnapshotRead:
        case FuzzOp::Kind::kCancel:
          break;
      }
      if (c->timeout_ms > 0 && applied_status.IsDeadlineExceeded()) {
        // The store rolled the mutation back but the oracle already
        // applied it, so they can no longer be compared. A tripped
        // deadline is a legitimate governance outcome, not a divergence:
        // check the store is still internally consistent, then end the
        // case early.
        Status valid = s.store->Validate();
        if (!valid.ok()) {
          return fail("invariant violation after timed-out mutation: " +
                      valid.ToString());
        }
        return std::nullopt;
      }
      if (!applied_status.ok()) {
        return fail("update rejected: " + applied_status.ToString());
      }
      Status valid = s.store->Validate();
      if (!valid.ok()) {
        return fail("invariant violation: " + valid.ToString());
      }
      auto rec = s.store->ReconstructDocument();
      if (!rec.ok()) {
        return fail("reconstruction failed: " + rec.status().ToString());
      }
      std::string got = WriteXml(**rec);
      if (got != oracle_doc) {
        return fail("document diverged from oracle: " +
                    DiffContext(oracle_doc, got));
      }
    }
  }
  return std::nullopt;
}

// --------------------------------------------------------------- shrinking

FuzzCase ShrinkCase(const FuzzCase& c) {
  FuzzCase cur = c;
  {
    FuzzCase probe = cur;
    if (!RunCase(&probe).has_value()) return cur;  // does not fail: no-op
  }
  size_t chunk = std::max<size_t>(1, cur.ops.size() / 2);
  while (true) {
    bool removed = false;
    for (size_t start = 0; start < cur.ops.size();) {
      FuzzCase trial = cur;
      size_t end = std::min(start + chunk, trial.ops.size());
      trial.ops.erase(trial.ops.begin() + start, trial.ops.begin() + end);
      if (RunCase(&trial).has_value()) {
        cur.ops = std::move(trial.ops);
        removed = true;  // retry the same start against the shorter list
      } else {
        start += chunk;
      }
    }
    if (chunk > 1) {
      chunk = std::max<size_t>(1, chunk / 2);
    } else if (!removed) {
      break;
    }
  }
  return cur;
}

// ----------------------------------------------------------- serialization

std::string SerializeCase(const FuzzCase& c) {
  std::string out = "oxml-fuzz-repro v1\n";
  out += "doc seed=" + std::to_string(c.doc.seed) +
         " nodes=" + std::to_string(c.doc.nodes) +
         " depth=" + std::to_string(c.doc.depth) +
         " fanout=" + std::to_string(c.doc.fanout) +
         " vocab=" + std::to_string(c.doc.vocab) +
         " gap=" + std::to_string(c.doc.gap) + "\n";
  for (int e = 0; e < 3; ++e) {
    out += std::string("toggles ") + OrderEncodingToString(kEncodings[e]) +
           " " + c.toggles[e].ToString() + "\n";
  }
  if (c.durable) out += "durable\n";
  if (c.query_threads > 1) {
    out += "threads " + std::to_string(c.query_threads) + "\n";
  }
  if (c.load_threads > 0) {
    out += "load_threads " + std::to_string(c.load_threads) + "\n";
  }
  if (c.timeout_ms > 0) {
    out += "timeout_ms " + std::to_string(c.timeout_ms) + "\n";
  }
  if (c.sessions > 0) {
    out += "sessions " + std::to_string(c.sessions) + "\n";
  }
  for (const FuzzOp& op : c.ops) out += op.ToString() + "\n";
  out += "end\n";
  return out;
}

namespace {

Result<int64_t> ParseKeyedInt(const std::string& token,
                              const std::string& key) {
  if (!StartsWith(token, key + "=")) {
    return Status::ParseError("expected " + key + "=..., got " + token);
  }
  return static_cast<int64_t>(
      std::stoll(token.substr(key.size() + 1)));
}

Result<FuzzOp> ParseOp(const std::vector<std::string>& tok) {
  FuzzOp op;
  const std::string& kind = tok[1];
  auto need = [&](size_t n) -> Status {
    if (tok.size() != n) {
      return Status::ParseError("bad arity for op " + kind);
    }
    return Status::OK();
  };
  if (kind == "query") {
    OXML_RETURN_NOT_OK(need(3));
    op.kind = FuzzOp::Kind::kQuery;
    op.xpath = tok[2];
  } else if (kind == "insert") {
    OXML_RETURN_NOT_OK(need(6));
    op.kind = FuzzOp::Kind::kInsert;
    OXML_ASSIGN_OR_RETURN(op.path, PathFromString(tok[2]));
    OXML_ASSIGN_OR_RETURN(op.pos, PosFromString(tok[3]));
    if (tok[4] == "text") {
      op.text_payload = true;
      op.text = tok[5];
    } else if (tok[4] == "elem") {
      op.payload_xml = tok[5];
    } else {
      return Status::ParseError("bad insert payload kind: " + tok[4]);
    }
  } else if (kind == "delete") {
    OXML_RETURN_NOT_OK(need(3));
    op.kind = FuzzOp::Kind::kDelete;
    OXML_ASSIGN_OR_RETURN(op.path, PathFromString(tok[2]));
  } else if (kind == "move") {
    OXML_RETURN_NOT_OK(need(5));
    op.kind = FuzzOp::Kind::kMove;
    OXML_ASSIGN_OR_RETURN(op.path, PathFromString(tok[2]));
    OXML_ASSIGN_OR_RETURN(op.pos, PosFromString(tok[3]));
    OXML_ASSIGN_OR_RETURN(op.ref_path, PathFromString(tok[4]));
  } else if (kind == "settext") {
    OXML_RETURN_NOT_OK(need(4));
    op.kind = FuzzOp::Kind::kSetText;
    OXML_ASSIGN_OR_RETURN(op.path, PathFromString(tok[2]));
    op.text = tok[3];
  } else if (kind == "setattr") {
    OXML_RETURN_NOT_OK(need(5));
    op.kind = FuzzOp::Kind::kSetAttr;
    OXML_ASSIGN_OR_RETURN(op.path, PathFromString(tok[2]));
    op.attr_name = tok[3];
    op.text = tok[4];
  } else if (kind == "crashrecover") {
    OXML_RETURN_NOT_OK(need(2));
    op.kind = FuzzOp::Kind::kCrashRecover;
  } else if (kind == "bulkreload") {
    OXML_RETURN_NOT_OK(need(2));
    op.kind = FuzzOp::Kind::kBulkReload;
  } else if (kind == "snapshotread") {
    OXML_RETURN_NOT_OK(need(4));
    op.kind = FuzzOp::Kind::kSnapshotRead;
    OXML_ASSIGN_OR_RETURN(op.path, PathFromString(tok[2]));
    op.xpath = tok[3];
  } else if (kind == "cancel") {
    OXML_RETURN_NOT_OK(need(3));
    op.kind = FuzzOp::Kind::kCancel;
    op.xpath = tok[2];
  } else {
    return Status::ParseError("unknown op kind: " + kind);
  }
  return op;
}

}  // namespace

Result<FuzzCase> ParseCase(std::string_view text) {
  FuzzCase c;
  std::vector<std::string> lines = Split(std::string(text), '\n');
  size_t li = 0;
  auto next_line = [&]() -> std::string* {
    while (li < lines.size()) {
      std::string trimmed = Trim(lines[li]);
      if (trimmed.empty() || trimmed[0] == '#') {
        ++li;
        continue;
      }
      lines[li] = trimmed;
      return &lines[li++];
    }
    return nullptr;
  };

  std::string* line = next_line();
  if (line == nullptr || *line != "oxml-fuzz-repro v1") {
    return Status::ParseError("missing oxml-fuzz-repro v1 header");
  }
  bool saw_end = false;
  int toggle_count = 0;
  while ((line = next_line()) != nullptr) {
    OXML_ASSIGN_OR_RETURN(std::vector<std::string> tok, Tokenize(*line));
    if (tok.empty()) continue;
    if (tok[0] == "end") {
      saw_end = true;
      break;
    }
    if (tok[0] == "doc") {
      if (tok.size() != 7) return Status::ParseError("bad doc line");
      OXML_ASSIGN_OR_RETURN(int64_t seed, ParseKeyedInt(tok[1], "seed"));
      OXML_ASSIGN_OR_RETURN(int64_t nodes, ParseKeyedInt(tok[2], "nodes"));
      OXML_ASSIGN_OR_RETURN(int64_t depth, ParseKeyedInt(tok[3], "depth"));
      OXML_ASSIGN_OR_RETURN(int64_t fanout, ParseKeyedInt(tok[4], "fanout"));
      OXML_ASSIGN_OR_RETURN(int64_t vocab, ParseKeyedInt(tok[5], "vocab"));
      OXML_ASSIGN_OR_RETURN(int64_t gap, ParseKeyedInt(tok[6], "gap"));
      c.doc.seed = static_cast<uint64_t>(seed);
      c.doc.nodes = static_cast<int>(nodes);
      c.doc.depth = static_cast<int>(depth);
      c.doc.fanout = static_cast<int>(fanout);
      c.doc.vocab = static_cast<int>(vocab);
      c.doc.gap = gap;
    } else if (tok[0] == "toggles") {
      if (tok.size() != 6) return Status::ParseError("bad toggles line");
      int enc = -1;
      for (int e = 0; e < 3; ++e) {
        if (tok[1] == OrderEncodingToString(kEncodings[e])) enc = e;
      }
      if (enc < 0) return Status::ParseError("bad encoding: " + tok[1]);
      OXML_ASSIGN_OR_RETURN(int64_t sj, ParseKeyedInt(tok[2], "sj"));
      OXML_ASSIGN_OR_RETURN(int64_t mj, ParseKeyedInt(tok[3], "mj"));
      OXML_ASSIGN_OR_RETURN(int64_t se, ParseKeyedInt(tok[4], "se"));
      OXML_ASSIGN_OR_RETURN(int64_t pc, ParseKeyedInt(tok[5], "pc"));
      c.toggles[enc] = {sj != 0, mj != 0, se != 0, pc != 0};
      ++toggle_count;
    } else if (tok[0] == "durable") {
      if (tok.size() != 1) return Status::ParseError("bad durable line");
      c.durable = true;
    } else if (tok[0] == "threads") {
      if (tok.size() != 2) return Status::ParseError("bad threads line");
      c.query_threads =
          static_cast<size_t>(std::stoull(tok[1]));
      if (c.query_threads == 0) c.query_threads = 1;
    } else if (tok[0] == "load_threads") {
      if (tok.size() != 2) {
        return Status::ParseError("bad load_threads line");
      }
      c.load_threads = static_cast<size_t>(std::stoull(tok[1]));
    } else if (tok[0] == "timeout_ms") {
      if (tok.size() != 2) {
        return Status::ParseError("bad timeout_ms line");
      }
      c.timeout_ms = static_cast<uint64_t>(std::stoull(tok[1]));
    } else if (tok[0] == "sessions") {
      if (tok.size() != 2) {
        return Status::ParseError("bad sessions line");
      }
      c.sessions = static_cast<size_t>(std::stoull(tok[1]));
    } else if (tok[0] == "op") {
      if (tok.size() < 2) return Status::ParseError("bad op line");
      OXML_ASSIGN_OR_RETURN(FuzzOp op, ParseOp(tok));
      c.ops.push_back(std::move(op));
    } else {
      return Status::ParseError("unknown directive: " + tok[0]);
    }
  }
  if (!saw_end) return Status::ParseError("missing end line");
  if (toggle_count != 3) {
    return Status::ParseError("expected 3 toggles lines, found " +
                              std::to_string(toggle_count));
  }
  return c;
}

Result<FuzzCase> LoadCaseFile(const std::string& file_path) {
  std::ifstream in(file_path);
  if (!in.is_open()) {
    return Status::IOError("cannot open repro file: " + file_path);
  }
  std::stringstream ss;
  ss << in.rdbuf();
  return ParseCase(ss.str());
}

}  // namespace fuzz
}  // namespace oxml
