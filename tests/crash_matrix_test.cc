// Crash-point matrix: for every write-class I/O a scripted update workload
// performs, simulate a crash (or a torn write) at exactly that I/O, then
// reopen the database and check that recovery lands on a transaction
// boundary — the store validates cleanly and the reconstructed document is
// byte-equal to the state after some prefix of the committed operations.
// Runs on all three order encodings.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/ordered_store.h"
#include "src/core/xpath_eval.h"
#include "src/relational/fault_injection.h"
#include "src/xml/xml_generator.h"
#include "src/xml/xml_parser.h"
#include "src/xml/xml_writer.h"

namespace oxml {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name + "_" +
         std::to_string(::getpid()) + ".db";
}

void CopyOver(const std::string& from, const std::string& to) {
  std::filesystem::copy_file(from, to,
                             std::filesystem::copy_options::overwrite_existing);
}

// One step of the scripted workload. Each op locates its targets afresh (the
// previous op may have renumbered), mutates, and runs as one transaction via
// the store's public entry points.
using WorkloadOp = std::function<Status(OrderedXmlStore*)>;

Status InsertSection(OrderedXmlStore* store, size_t at, InsertPosition pos,
                     const std::string& id) {
  OXML_ASSIGN_OR_RETURN(std::vector<StoredNode> sections,
                        EvaluateXPath(store, "/nitf/body/section"));
  if (sections.size() <= at) return Status::Internal("workload: section gone");
  OXML_ASSIGN_OR_RETURN(
      auto frag, ParseXml("<section id=\"" + id + "\"><para>fresh text for " +
                          id + "</para><para>second para</para></section>"));
  return store->InsertSubtree(sections[at], pos, *frag->root_element())
      .status();
}

std::vector<WorkloadOp> ScriptedWorkload() {
  return {
      // 1. Sibling insert in the middle: with gap=2 this renumbers.
      [](OrderedXmlStore* s) {
        return InsertSection(s, 1, InsertPosition::kBefore, "w1");
      },
      // 2. Delete a paragraph subtree.
      [](OrderedXmlStore* s) -> Status {
        OXML_ASSIGN_OR_RETURN(std::vector<StoredNode> paras,
                              EvaluateXPath(s, "/nitf/body/section/para"));
        if (paras.empty()) return Status::Internal("workload: no paras");
        return s->DeleteSubtree(paras.front()).status();
      },
      // 3. Rewrite a text node (single-row value update).
      [](OrderedXmlStore* s) -> Status {
        OXML_ASSIGN_OR_RETURN(
            std::vector<StoredNode> texts,
            EvaluateXPath(s, "/nitf/body/section/para/text()"));
        if (texts.empty()) return Status::Internal("workload: no text");
        return s->UpdateNodeValue(texts.front(), "rewritten after load")
            .status();
      },
      // 4. Move the first section behind the last one (delete + insert as
      // ONE transaction: recovery must never observe the halfway state).
      [](OrderedXmlStore* s) -> Status {
        OXML_ASSIGN_OR_RETURN(std::vector<StoredNode> sections,
                              EvaluateXPath(s, "/nitf/body/section"));
        if (sections.size() < 2) return Status::Internal("workload: sections");
        return s->MoveSubtree(sections.front(), sections.back(),
                              InsertPosition::kAfter)
            .status();
      },
      // 5. Append another section at the end.
      [](OrderedXmlStore* s) {
        return InsertSection(s, 0, InsertPosition::kBefore, "w2");
      },
  };
}

Result<std::string> Snapshot(OrderedXmlStore* store) {
  OXML_ASSIGN_OR_RETURN(auto doc, store->ReconstructDocument());
  return WriteXml(*doc);
}

struct CrashFixture {
  std::string path;       // data file; WAL lives at path + ".wal"
  std::string base_data;  // pristine copies taken after the unfaulted setup
  std::string base_wal;
  std::vector<std::string> expected;  // expected[i] = doc after i committed ops
  uint64_t workload_ios = 0;          // write-class I/Os of open + workload

  DatabaseOptions OpenOptions(std::shared_ptr<FaultPlan> plan) const {
    DatabaseOptions o;
    o.file_path = path;
    o.open_existing = true;
    o.wal_checkpoint_threshold_bytes = 0;  // deterministic I/O schedule
    o.fault_plan = std::move(plan);
    return o;
  }

  void RestoreBaseline() const {
    CopyOver(base_data, path);
    CopyOver(base_wal, path + ".wal");
  }
};

class CrashMatrixTest : public ::testing::TestWithParam<OrderEncoding> {
 protected:
  // Builds the baseline database (unfaulted), snapshots the expected state
  // after every committed op by dry-running the workload, and counts the
  // write-class I/Os the faulted runs will sweep over.
  CrashFixture Setup(const std::string& tag) {
    CrashFixture fx;
    fx.path = TempPath("crash_" + tag + "_" +
                       OrderEncodingToString(GetParam()));
    NewsGeneratorOptions gen;
    gen.seed = 42;
    gen.sections = 3;
    gen.paragraphs_per_section = 2;
    auto doc = GenerateNewsXml(gen);
    {
      DatabaseOptions o;
      o.file_path = fx.path;
      o.wal_checkpoint_threshold_bytes = 0;
      auto dbr = Database::Open(o);
      EXPECT_TRUE(dbr.ok()) << dbr.status();
      auto sr = OrderedXmlStore::Create(dbr->get(), GetParam(), {.gap = 2});
      EXPECT_TRUE(sr.ok()) << sr.status();
      EXPECT_TRUE((*sr)->LoadDocument(*doc).ok());
      EXPECT_TRUE((*dbr)->Close().ok());
    }
    fx.base_data = fx.path + ".base";
    fx.base_wal = fx.path + ".wal.base";
    CopyOver(fx.path, fx.base_data);
    CopyOver(fx.path + ".wal", fx.base_wal);

    // Counting pass: same open options as the sweep, fault plan armed to
    // count only. Records the expected snapshot after every committed op.
    auto plan = std::make_shared<FaultPlan>();
    plan->Arm(0, FaultPlan::Mode::kNone);
    auto dbr = Database::Open(fx.OpenOptions(plan));
    EXPECT_TRUE(dbr.ok()) << dbr.status();
    auto sr = OrderedXmlStore::Attach(dbr->get(), GetParam(), {.gap = 2});
    EXPECT_TRUE(sr.ok()) << sr.status();
    auto snap = Snapshot(sr->get());
    EXPECT_TRUE(snap.ok()) << snap.status();
    fx.expected.push_back(*snap);
    for (const WorkloadOp& op : ScriptedWorkload()) {
      Status st = op(sr->get());
      EXPECT_TRUE(st.ok()) << st;
      snap = Snapshot(sr->get());
      EXPECT_TRUE(snap.ok()) << snap.status();
      fx.expected.push_back(*snap);
    }
    fx.workload_ios = plan->io_count;
    (*dbr)->SimulateCrashForTesting();  // leave the baseline files untouched
    return fx;
  }

  // Runs the workload against a database whose k-th write-class I/O fires
  // `mode`; returns how many ops committed successfully (post-fault ops
  // fail). Null result = the fault fired during Database::Open itself.
  Result<size_t> FaultedRun(const CrashFixture& fx, uint64_t k,
                            FaultPlan::Mode mode, uint64_t* faults_fired) {
    fx.RestoreBaseline();
    auto plan = std::make_shared<FaultPlan>();
    plan->Arm(k, mode);
    auto dbr = Database::Open(fx.OpenOptions(plan));
    if (!dbr.ok()) {
      *faults_fired = plan->faults_fired;
      return dbr.status();
    }
    auto sr = OrderedXmlStore::Attach(dbr->get(), GetParam(), {.gap = 2});
    size_t completed = 0;
    if (sr.ok()) {
      for (const WorkloadOp& op : ScriptedWorkload()) {
        if (op(sr->get()).ok()) ++completed;
      }
    }
    *faults_fired = plan->faults_fired;
    (*dbr)->SimulateCrashForTesting();
    return completed;
  }

  // Reopens without any fault plan; the store must validate and match one
  // of the expected post-op snapshots in [lo, hi].
  void VerifyRecovered(const CrashFixture& fx, size_t lo, size_t hi,
                       const std::string& what) {
    auto dbr = Database::Open(fx.OpenOptions(nullptr));
    ASSERT_TRUE(dbr.ok()) << what << ": reopen failed: " << dbr.status();
    auto sr = OrderedXmlStore::Attach(dbr->get(), GetParam(), {.gap = 2});
    ASSERT_TRUE(sr.ok()) << what << ": attach failed: " << sr.status();
    Status valid = (*sr)->Validate();
    EXPECT_TRUE(valid.ok()) << what << ": " << valid;
    auto snap = Snapshot(sr->get());
    ASSERT_TRUE(snap.ok()) << what << ": " << snap.status();
    bool matched = false;
    for (size_t i = lo; i <= hi && i < fx.expected.size(); ++i) {
      if (*snap == fx.expected[i]) {
        matched = true;
        break;
      }
    }
    EXPECT_TRUE(matched) << what << ": recovered document matches no "
                         << "committed prefix in [" << lo << ", " << hi
                         << "]";
  }
};

TEST_P(CrashMatrixTest, EveryCrashPointRecoversToACommittedState) {
  CrashFixture fx = Setup("kill");
  ASSERT_GT(fx.workload_ios, 0u);
  for (uint64_t k = 1; k <= fx.workload_ios; ++k) {
    uint64_t fired = 0;
    auto run = FaultedRun(fx, k, FaultPlan::Mode::kCrash, &fired);
    ASSERT_EQ(fired, 1u) << "crash point " << k << " never fired";
    // A crash during Open recovers to the baseline; a crash mid-workload
    // recovers to the last committed op — or one past it, when the commit
    // record was durable but the process died before reporting success.
    size_t completed = run.ok() ? *run : 0;
    VerifyRecovered(fx, completed, completed + 1,
                    "kill at I/O " + std::to_string(k));
  }
}

TEST_P(CrashMatrixTest, EveryTornWriteRecoversToACommittedState) {
  CrashFixture fx = Setup("torn");
  ASSERT_GT(fx.workload_ios, 0u);
  for (uint64_t k = 1; k <= fx.workload_ios; ++k) {
    uint64_t fired = 0;
    auto run = FaultedRun(fx, k, FaultPlan::Mode::kTornPage, &fired);
    ASSERT_EQ(fired, 1u) << "torn write at I/O " << k << " never fired";
    size_t completed = run.ok() ? *run : 0;
    VerifyRecovered(fx, completed, completed + 1,
                    "torn write at I/O " + std::to_string(k));
  }
}

TEST_P(CrashMatrixTest, TransientEioRollsBackAndTheStoreStaysUsable) {
  CrashFixture fx = Setup("eio");
  ASSERT_GT(fx.workload_ios, 2u);
  for (uint64_t k : {uint64_t{3}, fx.workload_ios / 2, fx.workload_ios}) {
    fx.RestoreBaseline();
    auto plan = std::make_shared<FaultPlan>();
    plan->Arm(k, FaultPlan::Mode::kEIO);
    auto dbr = Database::Open(fx.OpenOptions(plan));
    if (!dbr.ok()) continue;  // EIO hit Open; covered by the sweeps above
    auto sr = OrderedXmlStore::Attach(dbr->get(), GetParam(), {.gap = 2});
    ASSERT_TRUE(sr.ok()) << sr.status();
    size_t failed = 0;
    for (const WorkloadOp& op : ScriptedWorkload()) {
      if (!op(sr->get()).ok()) ++failed;
    }
    // One I/O error fails at most the one transaction it lands in; the
    // rollback leaves the store valid and fully usable in-process.
    EXPECT_LE(failed, 1u) << "EIO at I/O " << k;
    Status valid = (*sr)->Validate();
    EXPECT_TRUE(valid.ok()) << "EIO at I/O " << k << ": " << valid;
    Status extra = InsertSection(sr->get(), 0, InsertPosition::kAfter, "eio");
    EXPECT_TRUE(extra.ok()) << "EIO at I/O " << k << ": " << extra;
    auto before = Snapshot(sr->get());
    ASSERT_TRUE(before.ok());
    ASSERT_TRUE((*dbr)->Close().ok());

    // Everything committed before Close survives a clean reopen.
    dbr = Database::Open(fx.OpenOptions(nullptr));
    ASSERT_TRUE(dbr.ok()) << dbr.status();
    sr = OrderedXmlStore::Attach(dbr->get(), GetParam(), {.gap = 2});
    ASSERT_TRUE(sr.ok());
    auto after = Snapshot(sr->get());
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(*after, *before) << "EIO at I/O " << k;
  }
}

// An explicit transaction whose Commit fails mid-I/O must stay open so the
// caller can roll back; the rollback restores the pre-transaction state,
// a second rollback is a plain error (never a second undo pass), and the
// store stays valid and usable. Sweeps an EIO over every write-class I/O
// of the commit itself.
TEST_P(CrashMatrixTest, CommitFailsThenRollbackRestoresPreTxnState) {
  CrashFixture fx = Setup("cfail");

  // Counting pass: bracket the I/O window of the explicit Commit. The
  // mutation itself performs no write-class I/O (no-steal: pages dirty in
  // memory, the WAL is written at commit), but the bracket stays correct
  // even if allocation ever writes through.
  fx.RestoreBaseline();
  uint64_t before_commit = 0;
  uint64_t after_commit = 0;
  {
    auto plan = std::make_shared<FaultPlan>();
    plan->Arm(0, FaultPlan::Mode::kNone);
    auto dbr = Database::Open(fx.OpenOptions(plan));
    ASSERT_TRUE(dbr.ok()) << dbr.status();
    auto sr = OrderedXmlStore::Attach(dbr->get(), GetParam(), {.gap = 2});
    ASSERT_TRUE(sr.ok()) << sr.status();
    ASSERT_TRUE((*dbr)->Begin().ok());
    ASSERT_TRUE(
        InsertSection(sr->get(), 1, InsertPosition::kBefore, "cf").ok());
    before_commit = plan->io_count;
    ASSERT_TRUE((*dbr)->Commit().ok());
    after_commit = plan->io_count;
    (*dbr)->SimulateCrashForTesting();
  }
  ASSERT_GT(after_commit, before_commit) << "commit performed no I/O";

  for (uint64_t k = before_commit + 1; k <= after_commit; ++k) {
    fx.RestoreBaseline();
    auto plan = std::make_shared<FaultPlan>();
    plan->Arm(k, FaultPlan::Mode::kEIO);
    auto dbr = Database::Open(fx.OpenOptions(plan));
    ASSERT_TRUE(dbr.ok()) << dbr.status();
    auto sr = OrderedXmlStore::Attach(dbr->get(), GetParam(), {.gap = 2});
    ASSERT_TRUE(sr.ok()) << sr.status();
    auto pre = Snapshot(sr->get());
    ASSERT_TRUE(pre.ok()) << pre.status();

    ASSERT_TRUE((*dbr)->Begin().ok());
    ASSERT_TRUE(
        InsertSection(sr->get(), 1, InsertPosition::kBefore, "cf").ok());
    Status c = (*dbr)->Commit();
    ASSERT_FALSE(c.ok()) << "EIO at I/O " << k << " did not fail Commit";
    EXPECT_EQ(plan->faults_fired, 1u);
    EXPECT_TRUE((*dbr)->InTransaction())
        << "EIO at I/O " << k << ": failed Commit closed the transaction";

    Status rb = (*dbr)->Rollback();
    EXPECT_TRUE(rb.ok()) << "EIO at I/O " << k << ": " << rb;
    Status again = (*dbr)->Rollback();
    EXPECT_FALSE(again.ok()) << "EIO at I/O " << k
                             << ": double Rollback must be an error";

    auto post = Snapshot(sr->get());
    ASSERT_TRUE(post.ok()) << "EIO at I/O " << k << ": " << post.status();
    EXPECT_EQ(*post, *pre) << "EIO at I/O " << k;
    Status valid = (*sr)->Validate();
    EXPECT_TRUE(valid.ok()) << "EIO at I/O " << k << ": " << valid;

    // The one-shot fault has fired, so retrying the same mutation commits;
    // the failed attempt must be invisible after a clean reopen.
    Status retry = InsertSection(sr->get(), 1, InsertPosition::kBefore, "cf");
    ASSERT_TRUE(retry.ok()) << "EIO at I/O " << k << ": " << retry;
    auto committed = Snapshot(sr->get());
    ASSERT_TRUE(committed.ok());
    ASSERT_TRUE((*dbr)->Close().ok());

    dbr = Database::Open(fx.OpenOptions(nullptr));
    ASSERT_TRUE(dbr.ok()) << dbr.status();
    sr = OrderedXmlStore::Attach(dbr->get(), GetParam(), {.gap = 2});
    ASSERT_TRUE(sr.ok()) << sr.status();
    auto reopened = Snapshot(sr->get());
    ASSERT_TRUE(reopened.ok());
    EXPECT_EQ(*reopened, *committed) << "EIO at I/O " << k;
  }
}

// Transient write faults (EAGAIN-style blips) swept over every write-class
// I/O must be invisible to the workload: the bounded retry loop absorbs
// them, every op commits, the final document matches the unfaulted run, and
// the retries surface in ExecStats::io_retries.
TEST_P(CrashMatrixTest, TransientFaultsAreAbsorbedByRetry) {
  CrashFixture fx = Setup("transient");
  ASSERT_GT(fx.workload_ios, 0u);
  for (uint64_t k = 1; k <= fx.workload_ios; ++k) {
    fx.RestoreBaseline();
    auto plan = std::make_shared<FaultPlan>();
    plan->ArmTransient(k, 2);
    // Open must absorb blips too: k can land inside recovery I/O.
    auto dbr = Database::Open(fx.OpenOptions(plan));
    ASSERT_TRUE(dbr.ok()) << "transient at I/O " << k << ": " << dbr.status();
    auto sr = OrderedXmlStore::Attach(dbr->get(), GetParam(), {.gap = 2});
    ASSERT_TRUE(sr.ok()) << sr.status();
    for (const WorkloadOp& op : ScriptedWorkload()) {
      Status st = op(sr->get());
      EXPECT_TRUE(st.ok()) << "transient at I/O " << k << ": " << st;
    }
    EXPECT_EQ(plan->faults_fired, 2u) << "transient at I/O " << k;
    EXPECT_GE((*dbr)->stats()->io_retries, 2u) << "transient at I/O " << k;
    Status valid = (*sr)->Validate();
    EXPECT_TRUE(valid.ok()) << "transient at I/O " << k << ": " << valid;
    auto snap = Snapshot(sr->get());
    ASSERT_TRUE(snap.ok()) << snap.status();
    EXPECT_EQ(*snap, fx.expected.back()) << "transient at I/O " << k;
    (*dbr)->SimulateCrashForTesting();
  }
}

// A full disk (persistent ENOSPC on every write-class I/O from the k-th on)
// fails cleanly at every injection point: affected transactions roll back
// and error out, the successes form a prefix of the workload, the store
// stays valid — and once space returns the database is fully writable
// again, with the recovered state surviving a clean reopen.
TEST_P(CrashMatrixTest, EnospcFailsCleanlyAndWritabilityReturns) {
  CrashFixture fx = Setup("enospc");
  ASSERT_GT(fx.workload_ios, 0u);
  for (uint64_t k = 1; k <= fx.workload_ios; ++k) {
    fx.RestoreBaseline();
    auto plan = std::make_shared<FaultPlan>();
    plan->Arm(k, FaultPlan::Mode::kEnospc);
    auto dbr = Database::Open(fx.OpenOptions(plan));
    if (!dbr.ok()) {
      // The disk filled during Open itself. Space returns; the failed
      // attempt must not have corrupted anything.
      plan->Arm(0, FaultPlan::Mode::kNone);
      dbr = Database::Open(fx.OpenOptions(plan));
      ASSERT_TRUE(dbr.ok())
          << "ENOSPC from I/O " << k << ": reopen after space returned: "
          << dbr.status();
      auto sr = OrderedXmlStore::Attach(dbr->get(), GetParam(), {.gap = 2});
      ASSERT_TRUE(sr.ok()) << sr.status();
      EXPECT_TRUE((*sr)->Validate().ok()) << "ENOSPC from I/O " << k;
      Status extra =
          InsertSection(sr->get(), 0, InsertPosition::kAfter, "sp");
      EXPECT_TRUE(extra.ok()) << "ENOSPC from I/O " << k << ": " << extra;
      ASSERT_TRUE((*dbr)->Close().ok());
      continue;
    }
    auto sr = OrderedXmlStore::Attach(dbr->get(), GetParam(), {.gap = 2});
    ASSERT_TRUE(sr.ok()) << sr.status();
    size_t completed = 0;
    bool disk_full_seen = false;
    for (const WorkloadOp& op : ScriptedWorkload()) {
      Status st = op(sr->get());
      if (st.ok()) {
        // The disk stays full until re-armed, so successes must all
        // precede the first failure.
        EXPECT_FALSE(disk_full_seen)
            << "ENOSPC from I/O " << k << ": op succeeded on a full disk";
        ++completed;
      } else {
        if (!disk_full_seen) {
          EXPECT_NE(st.ToString().find("No space left on device"),
                    std::string::npos)
              << "ENOSPC from I/O " << k << ": " << st;
        }
        disk_full_seen = true;
      }
    }
    EXPECT_TRUE(disk_full_seen) << "ENOSPC from I/O " << k << " never fired";
    // Failed transactions rolled back completely: the document is exactly
    // the committed prefix, and the store is internally consistent.
    Status valid = (*sr)->Validate();
    EXPECT_TRUE(valid.ok()) << "ENOSPC from I/O " << k << ": " << valid;
    ASSERT_LT(completed, fx.expected.size());
    auto snap = Snapshot(sr->get());
    ASSERT_TRUE(snap.ok()) << snap.status();
    EXPECT_EQ(*snap, fx.expected[completed]) << "ENOSPC from I/O " << k;

    // Space returns: the very next statement must succeed.
    plan->Arm(0, FaultPlan::Mode::kNone);
    Status extra = InsertSection(sr->get(), 0, InsertPosition::kAfter, "sp");
    EXPECT_TRUE(extra.ok()) << "ENOSPC from I/O " << k << ": " << extra;
    auto before = Snapshot(sr->get());
    ASSERT_TRUE(before.ok());
    ASSERT_TRUE((*dbr)->Close().ok());

    dbr = Database::Open(fx.OpenOptions(nullptr));
    ASSERT_TRUE(dbr.ok()) << dbr.status();
    sr = OrderedXmlStore::Attach(dbr->get(), GetParam(), {.gap = 2});
    ASSERT_TRUE(sr.ok());
    auto after = Snapshot(sr->get());
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(*after, *before) << "ENOSPC from I/O " << k;
  }
}

// Regression: a failed auto-checkpoint must not fail the (already durable)
// commit it rides on, must be retried at the next threshold crossing
// instead of silently dropped, and must leave the WAL replayable the whole
// time. Sweeps an EIO over every write-class I/O of a commit that crosses
// the checkpoint threshold.
TEST_P(CrashMatrixTest, FailedAutoCheckpointIsRetriedAtNextThreshold) {
  std::string path = TempPath(std::string("ckpt_") +
                              OrderEncodingToString(GetParam()));
  NewsGeneratorOptions gen;
  gen.seed = 42;
  gen.sections = 3;
  gen.paragraphs_per_section = 2;
  auto doc = GenerateNewsXml(gen);
  auto open_opts = [&](std::shared_ptr<FaultPlan> plan, bool existing) {
    DatabaseOptions o;
    o.file_path = path;
    o.open_existing = existing;
    o.wal_checkpoint_threshold_bytes = 1;  // every commit crosses it
    o.fault_plan = std::move(plan);
    return o;
  };

  {
    auto dbr = Database::Open(open_opts(nullptr, false));
    ASSERT_TRUE(dbr.ok()) << dbr.status();
    auto sr = OrderedXmlStore::Create(dbr->get(), GetParam(), {.gap = 2});
    ASSERT_TRUE(sr.ok()) << sr.status();
    ASSERT_TRUE((*sr)->LoadDocument(*doc).ok());
    ASSERT_TRUE((*dbr)->Close().ok());
  }
  std::string base_data = path + ".base";
  std::string base_wal = path + ".wal.base";
  CopyOver(path, base_data);
  CopyOver(path + ".wal", base_wal);

  // Counting pass: bracket the write-class I/Os of one committed op (the
  // auto-checkpoint rides inside its commit) and record the expected
  // documents after it and after a follow-up op.
  uint64_t before_op = 0;
  uint64_t after_op = 0;
  std::string expect1;
  std::string expect2;
  {
    auto plan = std::make_shared<FaultPlan>();
    plan->Arm(0, FaultPlan::Mode::kNone);
    auto dbr = Database::Open(open_opts(plan, true));
    ASSERT_TRUE(dbr.ok()) << dbr.status();
    auto sr = OrderedXmlStore::Attach(dbr->get(), GetParam(), {.gap = 2});
    ASSERT_TRUE(sr.ok()) << sr.status();
    before_op = plan->io_count;
    ASSERT_TRUE(
        InsertSection(sr->get(), 1, InsertPosition::kBefore, "c1").ok());
    after_op = plan->io_count;
    auto snap = Snapshot(sr->get());
    ASSERT_TRUE(snap.ok());
    expect1 = *snap;
    ASSERT_TRUE(
        InsertSection(sr->get(), 0, InsertPosition::kBefore, "c2").ok());
    snap = Snapshot(sr->get());
    ASSERT_TRUE(snap.ok());
    expect2 = *snap;
    (*dbr)->SimulateCrashForTesting();
  }
  ASSERT_GT(after_op, before_op) << "the op performed no I/O";

  bool checkpoint_failure_exercised = false;
  for (uint64_t k = before_op + 1; k <= after_op; ++k) {
    CopyOver(base_data, path);
    CopyOver(base_wal, path + ".wal");
    auto plan = std::make_shared<FaultPlan>();
    plan->Arm(k, FaultPlan::Mode::kEIO);
    auto dbr = Database::Open(open_opts(plan, true));
    ASSERT_TRUE(dbr.ok()) << "EIO at I/O " << k << ": " << dbr.status();
    auto sr = OrderedXmlStore::Attach(dbr->get(), GetParam(), {.gap = 2});
    ASSERT_TRUE(sr.ok()) << sr.status();

    Status op1 = InsertSection(sr->get(), 1, InsertPosition::kBefore, "c1");
    if (!op1.ok()) {
      // The EIO landed in the commit itself, not the checkpoint — that
      // path is CommitFailsThenRollbackRestoresPreTxnState's territory.
      (*dbr)->SimulateCrashForTesting();
      continue;
    }
    // The op succeeded, so the injected fault can only have hit the
    // auto-checkpoint; the failure must be tallied, never swallowed.
    ASSERT_EQ(plan->faults_fired, 1u) << "EIO at I/O " << k;
    ExecStats* stats = (*dbr)->stats();
    EXPECT_EQ(stats->checkpoints_failed, 1u) << "EIO at I/O " << k;
    checkpoint_failure_exercised = true;
    auto snap = Snapshot(sr->get());
    ASSERT_TRUE(snap.ok());
    EXPECT_EQ(*snap, expect1) << "EIO at I/O " << k;

    // The WAL is still above the threshold, so the next commit re-enters
    // the checkpoint branch; the fault is spent, so the retry succeeds
    // and the failure tally does not grow.
    Status op2 = InsertSection(sr->get(), 0, InsertPosition::kBefore, "c2");
    ASSERT_TRUE(op2.ok()) << "EIO at I/O " << k << ": " << op2;
    EXPECT_EQ(stats->checkpoints_failed, 1u)
        << "EIO at I/O " << k << ": checkpoint retry failed";
    snap = Snapshot(sr->get());
    ASSERT_TRUE(snap.ok());
    EXPECT_EQ(*snap, expect2) << "EIO at I/O " << k;

    // The WAL stayed replayable through the failed checkpoint: a crash
    // here must recover both commits.
    (*dbr)->SimulateCrashForTesting();
    dbr = Database::Open(open_opts(nullptr, true));
    ASSERT_TRUE(dbr.ok()) << "EIO at I/O " << k
                          << ": recovery failed: " << dbr.status();
    sr = OrderedXmlStore::Attach(dbr->get(), GetParam(), {.gap = 2});
    ASSERT_TRUE(sr.ok()) << sr.status();
    EXPECT_TRUE((*sr)->Validate().ok()) << "EIO at I/O " << k;
    snap = Snapshot(sr->get());
    ASSERT_TRUE(snap.ok());
    EXPECT_EQ(*snap, expect2) << "EIO at I/O " << k << ": after recovery";
    (*dbr)->SimulateCrashForTesting();
  }
  EXPECT_TRUE(checkpoint_failure_exercised)
      << "no I/O in the commit window hit the auto-checkpoint";
}

INSTANTIATE_TEST_SUITE_P(AllEncodings, CrashMatrixTest,
                         ::testing::Values(OrderEncoding::kGlobal,
                                           OrderEncoding::kLocal,
                                           OrderEncoding::kDewey),
                         [](const auto& info) {
                           return OrderEncodingToString(info.param);
                         });

// Regression: LoadDocument publishes rows_shredded / runs_merged /
// load_threads_used only after the install transaction commits. A load
// whose install fails (any write-class I/O, EIO) must leave every load
// counter untouched; the retry then loads and publishes normally. The
// database has an execution pool, so the shred and the index builds fan
// out over it.
TEST(ParallelLoadFaultTest, LoadStatsPublishOnlyAfterInstallCommit) {
  NewsGeneratorOptions gen;
  gen.seed = 7;
  gen.sections = 6;
  gen.paragraphs_per_section = 4;
  auto doc = GenerateNewsXml(gen);

  auto open_options = [](const std::string& path,
                         std::shared_ptr<FaultPlan> plan) {
    DatabaseOptions o;
    o.file_path = path;
    o.wal_checkpoint_threshold_bytes = 0;  // deterministic I/O schedule
    o.enable_parallel_execution = true;
    o.num_threads = 2;
    o.fault_plan = std::move(plan);
    return o;
  };

  // Counting pass: bracket the write-class I/Os of the load itself.
  std::string path = TempPath("pload_stats");
  uint64_t before_load = 0;
  uint64_t after_load = 0;
  {
    auto plan = std::make_shared<FaultPlan>();
    plan->Arm(0, FaultPlan::Mode::kNone);
    auto dbr = Database::Open(open_options(path, plan));
    ASSERT_TRUE(dbr.ok()) << dbr.status();
    auto sr = OrderedXmlStore::Create(dbr->get(), OrderEncoding::kGlobal,
                                      StoreOptions{});
    ASSERT_TRUE(sr.ok()) << sr.status();
    before_load = plan->io_count;
    ASSERT_TRUE((*sr)->LoadDocument(*doc).ok());
    after_load = plan->io_count;
    EXPECT_GT((*dbr)->stats()->rows_shredded, 0u);
    (*dbr)->SimulateCrashForTesting();
  }
  ASSERT_GT(after_load, before_load) << "load performed no I/O";

  for (uint64_t k : {before_load + 1, after_load}) {
    std::filesystem::remove(path);
    std::filesystem::remove(path + ".wal");
    auto plan = std::make_shared<FaultPlan>();
    plan->Arm(k, FaultPlan::Mode::kEIO);
    auto dbr = Database::Open(open_options(path, plan));
    ASSERT_TRUE(dbr.ok()) << dbr.status();
    auto sr = OrderedXmlStore::Create(dbr->get(), OrderEncoding::kGlobal,
                                      StoreOptions{});
    ASSERT_TRUE(sr.ok()) << sr.status();

    auto load = (*sr)->LoadDocument(*doc);
    ASSERT_FALSE(load.ok()) << "EIO at I/O " << k << " did not fail the load";
    EXPECT_EQ(plan->faults_fired, 1u);
    ExecStats* stats = (*dbr)->stats();
    EXPECT_EQ(stats->rows_shredded, 0u) << "EIO at I/O " << k;
    EXPECT_EQ(stats->runs_merged, 0u) << "EIO at I/O " << k;
    EXPECT_EQ(stats->load_threads_used, 0u) << "EIO at I/O " << k;

    // One-shot fault spent: the retry loads and publishes the counters.
    ASSERT_TRUE((*sr)->LoadDocument(*doc).ok()) << "EIO at I/O " << k;
    EXPECT_GT(stats->rows_shredded, 0u) << "EIO at I/O " << k;
    (*dbr)->SimulateCrashForTesting();
  }
}

}  // namespace
}  // namespace oxml
