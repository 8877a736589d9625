// Tests for tools/avcheck, the project-native static analyzer. Each
// rule gets a passing and a violating synthetic fixture fed through the
// same RunChecks() entry point the CLI uses, so the checks themselves —
// not just the plumbing — are pinned. The final test runs the analyzer
// over this repository's real src/ tree and requires it to be clean,
// which is the invariant the ctest `lint` tier enforces.

#include "tools/avcheck.h"

#include <algorithm>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace autoview {
namespace tools {
namespace {

std::vector<Finding> RunOn(const std::vector<SourceFile>& files,
                         const std::vector<std::string>& checks = {}) {
  Result<std::vector<Finding>> r = RunChecks(files, checks);
  EXPECT_TRUE(r.ok()) << r.status().message();
  if (!r.ok()) return {};
  return std::move(r).value();
}

int Count(const std::vector<Finding>& findings, const std::string& check) {
  return static_cast<int>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const Finding& f) { return f.check == check; }));
}

TEST(AvcheckApi, AllCheckNamesNonEmptyAndUnique) {
  std::vector<std::string> names = AllCheckNames();
  ASSERT_FALSE(names.empty());
  std::vector<std::string> sorted = names;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
              sorted.end());
}

TEST(AvcheckApi, UnknownCheckNameIsInvalidArgument) {
  Result<std::vector<Finding>> r =
      RunChecks({{"src/x.cc", "int x;\n"}}, {"not-a-check"});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// lock-order

constexpr char kThreeMutexCycle[] = R"(
namespace autoview {

class PB;
class PC;

class PA {
 public:
  void Left();
  mutable Mutex a_mu_;
  int guarded_ AV_GUARDED_BY(a_mu_) = 0;
  PB* b_ = nullptr;
};

class PB {
 public:
  void Mid();
  mutable Mutex b_mu_;
  int guarded_ AV_GUARDED_BY(b_mu_) = 0;
  PC* c_ = nullptr;
};

class PC {
 public:
  void Back();
  mutable Mutex c_mu_;
  int guarded_ AV_GUARDED_BY(c_mu_) = 0;
  PA* a_ = nullptr;
};

void PA::Left() {
  MutexLock lock(a_mu_);
  MutexLock lock2(b_->b_mu_);
}

void PB::Mid() {
  MutexLock lock(b_mu_);
  MutexLock lock2(c_->c_mu_);
}

void PC::Back() {
  MutexLock lock(c_mu_);
  MutexLock lock2(a_->a_mu_);
}

}  // namespace autoview
)";

TEST(LockOrder, ThreeMutexCycleReportedWithWitnessPath) {
  std::vector<Finding> f =
      RunOn({{"src/core/cycle.cc", kThreeMutexCycle}}, {"lock-order"});
  ASSERT_EQ(Count(f, "lock-order"), 1);
  const std::string& msg = f[0].message;
  // The witness path names every edge of the cycle with its site.
  EXPECT_NE(msg.find("cycle"), std::string::npos) << msg;
  EXPECT_NE(msg.find("PA::a_mu_ -> PB::b_mu_"), std::string::npos) << msg;
  EXPECT_NE(msg.find("PB::b_mu_ -> PC::c_mu_"), std::string::npos) << msg;
  EXPECT_NE(msg.find("PC::c_mu_ -> PA::a_mu_"), std::string::npos) << msg;
  EXPECT_NE(msg.find("src/core/cycle.cc:"), std::string::npos) << msg;
}

TEST(LockOrder, ConsistentHierarchyIsClean) {
  // Same shape, but PC::Back respects the A -> B -> C order.
  std::string fixed = kThreeMutexCycle;
  const std::string bad = "MutexLock lock2(a_->a_mu_);";
  fixed.replace(fixed.find(bad), bad.size(), "int x = 0; (void)x;");
  std::vector<Finding> f = RunOn({{"src/core/ok.cc", fixed}}, {"lock-order"});
  EXPECT_EQ(Count(f, "lock-order"), 0);
}

TEST(LockOrder, SelfDeadlockReported) {
  const char* src = R"(
namespace autoview {
class P {
 public:
  void F();
  mutable Mutex mu_;
  int guarded_ AV_GUARDED_BY(mu_) = 0;
};
void P::F() {
  MutexLock lock(mu_);
  MutexLock again(mu_);
}
}
)";
  std::vector<Finding> f = RunOn({{"src/core/self.cc", src}}, {"lock-order"});
  EXPECT_GE(Count(f, "lock-order"), 1);
}

TEST(LockOrder, StoreToShardMutexHierarchyIsClean) {
  // The serving fast path's locking shape: the store mutates its
  // ViewIndex/RewriteCache under mu_ (store mutex -> shard mutex), and
  // probes take only the shard mutex. One-directional, so no cycle.
  const char* src = R"(
namespace autoview {
class Idx {
 public:
  void Insert();
  void Probe() const;
  struct Shard {
    mutable Mutex mu;
    int buckets AV_GUARDED_BY(mu) = 0;
  };
  Shard shard_;
};
void Idx::Insert() {
  MutexLock lock(shard_.mu);
  shard_.buckets = 1;
}
void Idx::Probe() const {
  MutexLock lock(shard_.mu);
}
class Store {
 public:
  void Install();
  mutable Mutex mu_;
  int by_id_ AV_GUARDED_BY(mu_) = 0;
  Idx index_;
};
void Store::Install() {
  MutexLock lock(mu_);
  by_id_ = 1;
  index_.Insert();
}
}
)";
  std::vector<Finding> f = RunOn({{"src/core/shard.cc", src}},
                                 {"lock-order", "blocking-under-lock"});
  EXPECT_EQ(Count(f, "lock-order"), 0);
  EXPECT_EQ(Count(f, "blocking-under-lock"), 0);
}

// ---------------------------------------------------------------------------
// blocking-under-lock

TEST(BlockingUnderLock, WaitUnderHeldMutexReported) {
  const char* src = R"(
namespace autoview {
void F() {
  Mutex mu;
  MutexLock lock(mu);
  WaitIdle();
}
}
)";
  std::vector<Finding> f =
      RunOn({{"src/core/wait.cc", src}}, {"blocking-under-lock"});
  ASSERT_EQ(Count(f, "blocking-under-lock"), 1);
  EXPECT_NE(f[0].message.find("WaitIdle"), std::string::npos);
}

TEST(BlockingUnderLock, ShardMutexMemberIsTracked) {
  // A sharded structure (view index / rewrite cache shape): the walker
  // must resolve `shard_.mu` to the nested Shard::mu and flag blocking
  // work under it just like a top-level class mutex.
  const char* src = R"(
namespace autoview {
struct Cache {
  void Sweep();
  struct Shard {
    mutable Mutex mu;
    int entries AV_GUARDED_BY(mu) = 0;
  };
  Shard shard_;
};
void Cache::Sweep() {
  MutexLock lock(shard_.mu);
  WaitIdle();
}
}
)";
  std::vector<Finding> f =
      RunOn({{"src/core/shard_block.cc", src}}, {"blocking-under-lock"});
  ASSERT_EQ(Count(f, "blocking-under-lock"), 1);
  EXPECT_NE(f[0].message.find("Shard::mu"), std::string::npos);
}

TEST(BlockingUnderLock, WaitOutsideLockIsClean) {
  const char* src = R"(
namespace autoview {
void F() {
  Mutex mu;
  {
    MutexLock lock(mu);
  }
  WaitIdle();
}
}
)";
  std::vector<Finding> f =
      RunOn({{"src/core/ok.cc", src}}, {"blocking-under-lock"});
  EXPECT_EQ(Count(f, "blocking-under-lock"), 0);
}

TEST(BlockingUnderLock, RationaleCommentSuppresses) {
  const char* src = R"(
namespace autoview {
void F() {
  Mutex mu;
  MutexLock lock(mu);
  // avcheck:allow(blocking-under-lock): fixture rationale — the wait
  // is the whole point of this critical section.
  WaitIdle();
}
}
)";
  std::vector<Finding> f =
      RunOn({{"src/core/ok.cc", src}}, {"blocking-under-lock"});
  EXPECT_EQ(Count(f, "blocking-under-lock"), 0);
}

TEST(BlockingUnderLock, BareMarkerWithoutRationaleDoesNotSuppress) {
  const char* src = R"(
namespace autoview {
void F() {
  Mutex mu;
  MutexLock lock(mu);
  // avcheck:allow(blocking-under-lock):
  WaitIdle();
}
}
)";
  std::vector<Finding> f =
      RunOn({{"src/core/bad.cc", src}}, {"blocking-under-lock"});
  EXPECT_EQ(Count(f, "blocking-under-lock"), 1);
}

// ---------------------------------------------------------------------------
// discarded-status

TEST(DiscardedStatus, BareCallToStatusFunctionReported) {
  const char* src = R"(
namespace autoview {
Status F();
void G() {
  F();
}
}
)";
  std::vector<Finding> f =
      RunOn({{"src/core/disc.cc", src}}, {"discarded-status"});
  ASSERT_EQ(Count(f, "discarded-status"), 1);
  EXPECT_EQ(f[0].line, 5);
}

TEST(DiscardedStatus, HandledAndNonStatusCallsAreClean) {
  const char* src = R"(
namespace autoview {
Status F();
void H();
void G() {
  Status s = F();
  if (!s.ok()) return;
  H();
}
}
)";
  std::vector<Finding> f = RunOn({{"src/core/ok.cc", src}}, {"discarded-status"});
  EXPECT_EQ(Count(f, "discarded-status"), 0);
}

TEST(DiscardedStatus, VoidCastNeedsRationaleComment) {
  const char* bad = R"(
namespace autoview {
Status F();
void G() {
  (void)F();
}
}
)";
  const char* good = R"(
namespace autoview {
Status F();
void G() {
  (void)F();  // best-effort cleanup: failure already logged upstream
}
}
)";
  EXPECT_EQ(Count(RunOn({{"src/core/bad.cc", bad}}, {"discarded-status"}),
                  "discarded-status"),
            1);
  EXPECT_EQ(Count(RunOn({{"src/core/good.cc", good}}, {"discarded-status"}),
                  "discarded-status"),
            0);
}

TEST(DiscardedStatus, MemberCallOnOwnClassReported) {
  const char* src = R"(
namespace autoview {
class K {
 public:
  Status M();
  void N();
};
void K::N() {
  M();
}
}
)";
  std::vector<Finding> f =
      RunOn({{"src/core/member.cc", src}}, {"discarded-status"});
  EXPECT_EQ(Count(f, "discarded-status"), 1);
}

// ---------------------------------------------------------------------------
// atomic-ordering

TEST(AtomicOrdering, ExplicitOrderWithoutDeclRationaleReported) {
  const char* src = R"(
namespace autoview {
std::atomic<int> g_counter{0};
void F() {
  g_counter.store(1, std::memory_order_relaxed);
}
}
)";
  std::vector<Finding> f =
      RunOn({{"src/core/atom.cc", src}}, {"atomic-ordering"});
  ASSERT_EQ(Count(f, "atomic-ordering"), 1);
  EXPECT_NE(f[0].message.find("g_counter"), std::string::npos);
}

TEST(AtomicOrdering, DeclRationaleCommentMakesItClean) {
  const char* src = R"(
namespace autoview {
// Relaxed ordering is enough: the counter is monotonic and no data is
// published through it.
std::atomic<int> g_counter{0};
void F() {
  g_counter.store(1, std::memory_order_relaxed);
}
}
)";
  std::vector<Finding> f = RunOn({{"src/core/ok.cc", src}}, {"atomic-ordering"});
  EXPECT_EQ(Count(f, "atomic-ordering"), 0);
}

// ---------------------------------------------------------------------------
// Ported grep rules. One violating and one passing fixture each; the
// passing side doubles as the path-scoping / lexer-immunity proof.

TEST(PortedRules, NoNakedAbortScopedAwayFromLoggingHeader) {
  const char* src = "void F() {\n  abort();\n}\n";
  EXPECT_EQ(Count(RunOn({{"src/core/x.cc", src}}, {"no-naked-abort"}),
                  "no-naked-abort"),
            1);
  // The one sanctioned abort site is exempt.
  EXPECT_EQ(Count(RunOn({{"src/util/logging.h", src}}, {"no-naked-abort"}),
                  "no-naked-abort"),
            0);
}

TEST(PortedRules, NoAmbientRandomnessExemptsSeededRngImpl) {
  const char* src = "void F() {\n  std::mt19937 gen;\n}\n";
  EXPECT_EQ(Count(RunOn({{"src/core/x.cc", src}}, {"no-ambient-randomness"}),
                  "no-ambient-randomness"),
            1);
  EXPECT_EQ(Count(RunOn({{"src/util/random.h", src}}, {"no-ambient-randomness"}),
                  "no-ambient-randomness"),
            0);
}

TEST(PortedRules, NoCoutIgnoresCommentsAndStrings) {
  // The real lexer must not trip on std::cout inside a comment or a
  // string literal — exactly what the old sed pipeline got wrong in
  // corner cases.
  const char* clean =
      "// std::cout is banned here\n"
      "const char* kMsg = \"std::cout\";\n";
  EXPECT_EQ(Count(RunOn({{"src/core/ok.cc", clean}}, {"no-cout"}), "no-cout"),
            0);
  const char* bad = "void F() {\n  std::cout << 1;\n}\n";
  std::vector<Finding> f = RunOn({{"src/core/bad.cc", bad}}, {"no-cout"});
  ASSERT_EQ(Count(f, "no-cout"), 1);
  EXPECT_EQ(f[0].line, 2);
}

TEST(PortedRules, NoRawMutexExemptsAnnotationsHeader) {
  const char* src = "std::mutex g_mu;\n";
  EXPECT_EQ(Count(RunOn({{"src/core/x.cc", src}}, {"no-raw-mutex"}),
                  "no-raw-mutex"),
            1);
  EXPECT_EQ(Count(RunOn({{"src/util/annotations.h", src}}, {"no-raw-mutex"}),
                  "no-raw-mutex"),
            0);
}

TEST(PortedRules, NoNakedNewAllowsSameLineOwnership) {
  EXPECT_EQ(Count(RunOn({{"src/core/x.cc", "int* p = new int[4];\n"}},
                      {"no-naked-new"}),
                  "no-naked-new"),
            1);
  EXPECT_EQ(
      Count(RunOn({{"src/core/ok.cc",
                  "std::unique_ptr<int> p(new int(3));\n"
                  "auto q = std::make_unique<int>(4);\n"}},
                {"no-naked-new"}),
            "no-naked-new"),
      0);
}

TEST(PortedRules, MutexAnnotatedWindow) {
  const char* bad =
      "class K {\n"
      "  Mutex mu_;\n"
      "  int x = 0;\n"
      "};\n";
  EXPECT_EQ(Count(RunOn({{"src/core/bad.cc", bad}}, {"mutex-annotated"}),
                  "mutex-annotated"),
            1);
  const char* good =
      "class K {\n"
      "  Mutex mu_;\n"
      "  int x AV_GUARDED_BY(mu_) = 0;\n"
      "};\n";
  EXPECT_EQ(Count(RunOn({{"src/core/good.cc", good}}, {"mutex-annotated"}),
                  "mutex-annotated"),
            0);
}

TEST(PortedRules, EngineIoConfinedToWal) {
  const char* src = "void F() {\n  std::fopen(\"x\", \"rb\");\n}\n";
  EXPECT_EQ(Count(RunOn({{"src/engine/other.cc", src}}, {"engine-io-confined"}),
                  "engine-io-confined"),
            1);
  EXPECT_EQ(Count(RunOn({{"src/engine/view_store_log.cc", src}},
                      {"engine-io-confined"}),
                  "engine-io-confined"),
            0);
  // Outside the engine the rule does not apply at all.
  EXPECT_EQ(Count(RunOn({{"src/core/other.cc", src}}, {"engine-io-confined"}),
                  "engine-io-confined"),
            0);
}

TEST(PortedRules, AdvisorClockSeam) {
  const char* src = "void F() {\n  auto t = std::chrono::seconds(1);\n}\n";
  EXPECT_EQ(Count(RunOn({{"src/core/advisor.cc", src}}, {"advisor-clock-seam"}),
                  "advisor-clock-seam"),
            1);
  EXPECT_EQ(Count(RunOn({{"src/core/database.cc", src}}, {"advisor-clock-seam"}),
                  "advisor-clock-seam"),
            0);
}

// ---------------------------------------------------------------------------
// Whole-tree gate: the analyzer over this repository's real sources
// must be clean. This is the exact invariant `ctest -L lint` enforces;
// pinning it here means a finding introduced by a future change fails
// the unit suite too, with the full finding text in the assert message.

TEST(WholeTree, RepositorySourcesAreClean) {
#ifndef AVCHECK_SOURCE_ROOT
  GTEST_SKIP() << "AVCHECK_SOURCE_ROOT not defined by the build";
#else
  Result<std::vector<SourceFile>> tree = LoadSourceTree(AVCHECK_SOURCE_ROOT);
  ASSERT_TRUE(tree.ok()) << tree.status().message();
  ASSERT_GT(tree.value().size(), 50u)
      << "suspiciously small tree — wrong AVCHECK_SOURCE_ROOT?";
  std::vector<Finding> findings = RunOn(tree.value());
  std::string all;
  for (const Finding& f : findings) {
    all += f.file + ":" + std::to_string(f.line) + ": [" + f.check + "] " +
           f.message + "\n";
  }
  EXPECT_TRUE(findings.empty()) << all;
#endif
}

}  // namespace
}  // namespace tools
}  // namespace autoview
