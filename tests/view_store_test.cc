// Budgeted, crash-safe view store: utility-per-byte eviction against a
// brute-force oracle, pin/doom lifecycle, generation hot swap, async
// materialization, and WAL recovery truncated at every record boundary
// (plus mid-record) — the recovered state must always be the committed
// prefix, bit-identical scores included. Ends with a whole-pipeline
// serving run through a budget that admits no view.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/streaming_problem.h"
#include "engine/database.h"
#include "engine/executor.h"
#include "engine/rewriter.h"
#include "engine/view_store.h"
#include "engine/view_store_log.h"
#include "ilp/problem_index.h"
#include "plan/builder.h"
#include "plan/canonical.h"
#include "select/iterview.h"
#include "subquery/clusterer.h"
#include "util/failpoint.h"
#include "util/metrics.h"
#include "util/strings.h"
#include "workload/generator.h"

namespace autoview {
namespace {

std::string ReadFileOrDie(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::string content;
  if (f != nullptr) {
    char chunk[4096];
    size_t n;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
      content.append(chunk, n);
    }
    std::fclose(f);
  }
  return content;
}

void WriteFileOrDie(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(content.data(), 1, content.size(), f),
            content.size());
  ASSERT_EQ(std::fclose(f), 0);
}

class ViewStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    BuildDb(&db_);
    Failpoints::Instance().Clear();
  }

  void TearDown() override { Failpoints::Instance().Clear(); }

  /// Loads the fixture table: k = i appears (i + 1) * 3 times, so the
  /// eight candidate views `WHERE k = i` have strictly growing sizes.
  static void BuildDb(Database* db) {
    std::vector<Row> rows;
    for (int64_t k = 0; k < 8; ++k) {
      for (int64_t n = 0; n < (k + 1) * 3; ++n) {
        rows.push_back({Value(k), Value("payload_" + std::to_string(k) +
                                        "_" + std::to_string(n))});
      }
    }
    ASSERT_TRUE(db->AddTable(TableSchema("t", {{"k", ColumnType::kInt64},
                                               {"v", ColumnType::kString}}),
                             std::move(rows))
                    .ok());
    ASSERT_TRUE(db->ComputeAllStats().ok());
  }

  static PlanNodePtr ViewPlan(const Database& db, int k) {
    PlanBuilder builder(&db.catalog());
    auto plan = builder.BuildFromSql("SELECT k, v FROM t WHERE k = " +
                                     std::to_string(k));
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return plan.ok() ? plan.value() : nullptr;
  }

  /// canonical_key -> plan resolver over the eight fixture candidates.
  static std::function<PlanNodePtr(const std::string&)> Resolver(
      const Database& db) {
    std::vector<PlanNodePtr> plans;
    for (int k = 0; k < 8; ++k) plans.push_back(ViewPlan(db, k));
    return [plans](const std::string& key) -> PlanNodePtr {
      for (const PlanNodePtr& plan : plans) {
        if (CanonicalKey(*plan) == key) return plan;
      }
      return nullptr;
    };
  }

  std::string TempPath(const std::string& name) {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    const std::string path = std::string(::testing::TempDir()) + "/" +
                             info->name() + "_" + name;
    std::remove(path.c_str());
    return path;
  }

  Database db_;
};

TEST_F(ViewStoreTest, WalRecordRoundTrip) {
  ViewLogRecord m;
  m.kind = ViewLogRecord::Kind::kMaterialize;
  m.id = 42;
  m.generation = 7;
  m.byte_size = 12345;
  m.utility = 0.1 + 0.2;  // not exactly representable: %.17g must hold it
  m.canonical_key = "Project(Filter(Scan t) k = 3) with spaces";
  auto line = ViewStateLog::EncodeRecord(m);
  ASSERT_TRUE(line.ok());
  ASSERT_EQ(line.value().back(), '\n');
  auto decoded = ViewStateLog::DecodeRecord(
      line.value().substr(0, line.value().size() - 1));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().id, m.id);
  EXPECT_EQ(decoded.value().generation, m.generation);
  EXPECT_EQ(decoded.value().byte_size, m.byte_size);
  EXPECT_EQ(decoded.value().utility, m.utility);  // bit-exact
  EXPECT_EQ(decoded.value().canonical_key, m.canonical_key);

  ViewLogRecord d;
  d.kind = ViewLogRecord::Kind::kDrop;
  d.id = 9;
  auto dline = ViewStateLog::EncodeRecord(d);
  ASSERT_TRUE(dline.ok());
  auto ddecoded = ViewStateLog::DecodeRecord(
      dline.value().substr(0, dline.value().size() - 1));
  ASSERT_TRUE(ddecoded.ok());
  EXPECT_EQ(ddecoded.value().kind, ViewLogRecord::Kind::kDrop);
  EXPECT_EQ(ddecoded.value().id, 9);

  ViewLogRecord c;
  c.kind = ViewLogRecord::Kind::kCheckpoint;
  c.generation = 3;
  c.next_id = 17;
  auto cline = ViewStateLog::EncodeRecord(c);
  ASSERT_TRUE(cline.ok());
  auto cdecoded = ViewStateLog::DecodeRecord(
      cline.value().substr(0, cline.value().size() - 1));
  ASSERT_TRUE(cdecoded.ok());
  EXPECT_EQ(cdecoded.value().generation, 3u);
  EXPECT_EQ(cdecoded.value().next_id, 17);

  // A flipped byte in the body fails the checksum.
  std::string corrupt = line.value().substr(0, line.value().size() - 1);
  corrupt[corrupt.size() / 2] ^= 0x01;
  EXPECT_FALSE(ViewStateLog::DecodeRecord(corrupt).ok());
  // Keys with newlines would break line framing: rejected at encode.
  ViewLogRecord bad = m;
  bad.canonical_key = "multi\nline";
  EXPECT_FALSE(ViewStateLog::EncodeRecord(bad).ok());
}

TEST_F(ViewStoreTest, BudgetEvictsLowestUtilityPerByteOracle) {
  // Pass 1 (unlimited): measure each candidate's stored size.
  Executor exec(&db_);
  std::vector<uint64_t> bytes(6, 0);
  {
    MaterializedViewStore measure(&db_, ViewStoreOptions{});
    for (int k = 0; k < 6; ++k) {
      auto view = measure.Materialize(ViewPlan(db_, k), exec);
      ASSERT_TRUE(view.ok()) << view.status().ToString();
      bytes[static_cast<size_t>(k)] = view.value()->byte_size;
    }
    ASSERT_TRUE(measure.Clear().ok());
  }
  const std::vector<double> utility = {5.5, 1.25, 9.0, 0.5, 7.75, 3.0};
  uint64_t budget = 0;
  for (int k = 0; k < 6; ++k) budget += bytes[static_cast<size_t>(k)];
  budget = budget / 2;  // roughly half the candidates fit

  // Brute-force oracle: replay the same admission order, evicting the
  // lowest utility-per-byte (ties: lowest id) until each insert fits.
  struct Sim {
    int id;
    uint64_t bytes;
    double utility;
  };
  std::vector<Sim> resident;
  size_t oracle_evictions = 0;
  for (int k = 0; k < 6; ++k) {
    const uint64_t need = bytes[static_cast<size_t>(k)];
    auto used = [&resident] {
      uint64_t total = 0;
      for (const Sim& s : resident) total += s.bytes;
      return total;
    };
    while (used() + need > budget) {
      size_t victim = resident.size();
      double best = 0.0;
      for (size_t i = 0; i < resident.size(); ++i) {
        const double score =
            resident[i].utility / static_cast<double>(resident[i].bytes);
        if (victim == resident.size() || score < best) {
          victim = i;
          best = score;
        }
      }
      ASSERT_LT(victim, resident.size()) << "oracle stuck";
      resident.erase(resident.begin() + static_cast<long>(victim));
      ++oracle_evictions;
    }
    resident.push_back(Sim{k, need, utility[static_cast<size_t>(k)]});
  }

  GlobalViewStore().Reset();
  ViewStoreOptions options;
  options.budget_bytes = budget;
  MaterializedViewStore store(&db_, options);
  for (int k = 0; k < 6; ++k) {
    MaterializeOptions mopts;
    mopts.utility = utility[static_cast<size_t>(k)];
    auto view = store.Materialize(ViewPlan(db_, k), exec, mopts);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
  }
  EXPECT_LE(store.bytes_used(), budget);
  EXPECT_EQ(store.size(), resident.size());
  for (const Sim& s : resident) {
    const std::string key = CanonicalKey(*ViewPlan(db_, s.id));
    EXPECT_NE(store.FindByKey(key), nullptr) << "oracle keeps view " << s.id;
  }
  EXPECT_EQ(GlobalViewStore().Read().evictions, oracle_evictions);
}

TEST_F(ViewStoreTest, PinBlocksEvictionAndDefersDrop) {
  Executor exec(&db_);
  uint64_t ab_bytes = 0;
  {
    MaterializedViewStore measure(&db_, ViewStoreOptions{});
    for (int k = 0; k < 2; ++k) {
      auto view = measure.Materialize(ViewPlan(db_, k), exec);
      ASSERT_TRUE(view.ok());
      ab_bytes += view.value()->byte_size;
    }
    ASSERT_TRUE(measure.Clear().ok());
  }

  GlobalViewStore().Reset();
  ViewStoreOptions options;
  options.budget_bytes = ab_bytes;  // exactly A + B
  MaterializedViewStore store(&db_, options);
  auto a = store.Materialize(ViewPlan(db_, 0), exec);
  auto b = store.Materialize(ViewPlan(db_, 1), exec);
  ASSERT_TRUE(a.ok() && b.ok());

  ViewSetSnapshot pinned = store.PinLive();
  ASSERT_EQ(pinned.views().size(), 2u);

  // Every resident view is pinned: the admission must be rejected, not
  // block or evict from under the snapshot.
  auto c = store.Materialize(ViewPlan(db_, 2), exec);
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GE(GlobalViewStore().Read().admissions_rejected, 1u);
  EXPECT_EQ(store.size(), 2u);

  // Dropping a pinned view is logical-only: invisible to lookups, but
  // the backing table survives until the last unpin.
  const std::string a_table = a.value()->table_name;
  const int64_t a_id = a.value()->id;
  ASSERT_TRUE(store.Drop(a_id).ok());
  EXPECT_EQ(store.FindById(a_id), nullptr);
  EXPECT_TRUE(db_.HasTable(a_table));
  // The pinned snapshot still serves A's descriptor and table.
  EXPECT_EQ(pinned.views()[0]->id, a_id);
  EXPECT_TRUE(db_.GetTable(a_table).ok());

  pinned.Release();
  EXPECT_FALSE(db_.HasTable(a_table));  // deferred drop completed

  // With the pin gone the budget can make room again.
  auto c2 = store.Materialize(ViewPlan(db_, 2), exec);
  EXPECT_TRUE(c2.ok()) << c2.status().ToString();
  EXPECT_LE(store.bytes_used(), ab_bytes);
}

TEST_F(ViewStoreTest, GenerationHotSwapServesOldSetUntilRelease) {
  Executor exec(&db_);
  MaterializedViewStore store(&db_, ViewStoreOptions{});
  auto a = store.Materialize(ViewPlan(db_, 0), exec);
  auto b = store.Materialize(ViewPlan(db_, 1), exec);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(store.current_generation(), 1u);

  ViewSetSnapshot old_set = store.PinLive();
  ASSERT_EQ(old_set.views().size(), 2u);
  EXPECT_EQ(old_set.generation(), 1u);

  // Stage generation 2: one new view, and A survives via re-tag (its
  // id and backing table are reused, never rebuilt).
  const uint64_t staged = store.BeginSwap();
  EXPECT_GT(staged, 1u);
  MaterializeOptions stage_opts;
  stage_opts.generation = staged;
  stage_opts.utility = 4.0;
  auto c = store.Materialize(ViewPlan(db_, 2), exec, stage_opts);
  ASSERT_TRUE(c.ok());
  auto a_again = store.Materialize(ViewPlan(db_, 0), exec, stage_opts);
  ASSERT_TRUE(a_again.ok());
  EXPECT_EQ(a_again.value()->id, a.value()->id);
  EXPECT_EQ(a_again.value()->generation, staged);

  const std::string b_table = b.value()->table_name;
  ASSERT_TRUE(store.CommitSwap(staged).ok());
  EXPECT_EQ(store.current_generation(), staged);

  // B is retired but pinned: the old snapshot keeps serving it.
  EXPECT_EQ(store.size(), 2u);  // A (re-tagged) + C
  EXPECT_TRUE(db_.HasTable(b_table));
  for (const MaterializedView* view : old_set.views()) {
    EXPECT_TRUE(db_.HasTable(view->table_name));
  }

  // New snapshots see exactly the committed new set.
  ViewSetSnapshot new_set = store.PinLive();
  ASSERT_EQ(new_set.views().size(), 2u);
  EXPECT_EQ(new_set.generation(), staged);
  for (const MaterializedView* view : new_set.views()) {
    EXPECT_EQ(view->generation, staged);
  }
  new_set.Release();

  old_set.Release();
  EXPECT_FALSE(db_.HasTable(b_table));  // retirement completed

  // Committing a stale generation is rejected.
  EXPECT_FALSE(store.CommitSwap(staged).ok());
}

TEST_F(ViewStoreTest, AsyncMaterializeDrainsWithWaitIdle) {
  GlobalViewStore().Reset();
  Executor exec(&db_);
  MaterializedViewStore store(&db_, ViewStoreOptions{});
  std::vector<std::future<Status>> futures;
  for (int round = 0; round < 2; ++round) {
    for (int k = 0; k < 4; ++k) {
      futures.push_back(store.MaterializeAsync(ViewPlan(db_, k), exec));
    }
  }
  store.WaitIdle();
  EXPECT_EQ(store.size(), 4u);  // duplicates collapsed
  size_t ok = 0, already = 0;
  for (auto& f : futures) {
    const Status s = f.get();
    if (s.ok()) {
      ++ok;
    } else {
      EXPECT_EQ(s.code(), StatusCode::kAlreadyExists) << s.ToString();
      ++already;
    }
  }
  EXPECT_EQ(ok, 4u);
  EXPECT_EQ(already, 4u);
  EXPECT_GE(GlobalViewStore().Read().async_builds, 8u);
}

/// Oracle fold mirroring the documented WAL semantics: MATERIALIZE
/// upserts by id, DROP erases, CHECKPOINT advances the generation and
/// retires strictly older live views. Independent reimplementation —
/// Recover must agree with this, not with itself.
struct OracleState {
  std::map<int64_t, ViewLogRecord> live;
  uint64_t generation = 1;
};
OracleState FoldRecords(const std::vector<ViewLogRecord>& records) {
  OracleState state;
  for (const ViewLogRecord& record : records) {
    switch (record.kind) {
      case ViewLogRecord::Kind::kMaterialize:
        state.live[record.id] = record;
        break;
      case ViewLogRecord::Kind::kDrop:
        state.live.erase(record.id);
        break;
      case ViewLogRecord::Kind::kCheckpoint: {
        if (record.generation > state.generation) {
          state.generation = record.generation;
        }
        for (auto it = state.live.begin(); it != state.live.end();) {
          it = it->second.generation < state.generation
                   ? state.live.erase(it)
                   : std::next(it);
        }
        break;
      }
    }
  }
  return state;
}

TEST_F(ViewStoreTest, RecoveryAtEveryTruncationPointMatchesCommittedState) {
  const std::string wal = TempPath("history.wal");
  Executor exec(&db_);
  const std::vector<double> utility = {5.5, 1.25, 9.0, 0.5, 7.75};

  // A history exercising every record kind: materialize, drop, a
  // generation swap with a re-tagged survivor, and a post-swap install.
  {
    ViewStoreOptions options;
    options.wal_path = wal;
    MaterializedViewStore store(&db_, options);
    std::vector<int64_t> ids;
    for (int k = 0; k < 3; ++k) {
      MaterializeOptions mopts;
      mopts.utility = utility[static_cast<size_t>(k)];
      auto view = store.Materialize(ViewPlan(db_, k), exec, mopts);
      ASSERT_TRUE(view.ok()) << view.status().ToString();
      ids.push_back(view.value()->id);
    }
    ASSERT_TRUE(store.Drop(ids[1]).ok());
    const uint64_t staged = store.BeginSwap();
    MaterializeOptions stage3;
    stage3.generation = staged;
    stage3.utility = utility[3];
    ASSERT_TRUE(store.Materialize(ViewPlan(db_, 3), exec, stage3).ok());
    MaterializeOptions stage0;
    stage0.generation = staged;
    stage0.utility = utility[0];
    ASSERT_TRUE(store.Materialize(ViewPlan(db_, 0), exec, stage0).ok());
    ASSERT_TRUE(store.CommitSwap(staged).ok());
    MaterializeOptions mopts4;
    mopts4.utility = utility[4];
    ASSERT_TRUE(store.Materialize(ViewPlan(db_, 4), exec, mopts4).ok());
    ASSERT_TRUE(store.Clear().ok());  // drop tables; the WAL is the state
  }

  const std::string full = ReadFileOrDie(wal);
  ASSERT_FALSE(full.empty());

  // Crash points: after every record, and mid-record two bytes short of
  // each boundary (a torn append). Offset 0 = empty log.
  std::vector<size_t> offsets = {0};
  for (size_t pos = full.find('\n'); pos != std::string::npos;
       pos = full.find('\n', pos + 1)) {
    if (pos >= 2) offsets.push_back(pos - 1);  // torn: newline missing
    offsets.push_back(pos + 1);                // clean record boundary
  }

  for (size_t offset : offsets) {
    SCOPED_TRACE(StrFormat("truncated at byte %zu of %zu", offset,
                           full.size()));
    const std::string truncated_path = TempPath("truncated.wal");
    WriteFileOrDie(truncated_path, full.substr(0, offset));

    // The oracle folds the longest valid record prefix of the bytes.
    auto replay = ViewStateLog::Replay(truncated_path);
    ASSERT_TRUE(replay.ok());
    const OracleState oracle = FoldRecords(replay.value().records);

    Database db2;
    BuildDb(&db2);
    Executor exec2(&db2);
    ViewStoreOptions options;
    options.wal_path = truncated_path;
    MaterializedViewStore recovered(&db2, options);
    auto report = recovered.Recover(exec2, Resolver(db2), false);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report.value().committed_views, oracle.live.size());
    EXPECT_EQ(report.value().rematerialized, oracle.live.size());
    EXPECT_EQ(report.value().failed, 0u);
    EXPECT_EQ(recovered.size(), oracle.live.size());
    EXPECT_EQ(recovered.current_generation(), oracle.generation);

    for (const auto& [id, record] : oracle.live) {
      const MaterializedView* view = recovered.FindById(id);
      ASSERT_NE(view, nullptr) << "missing committed view id " << id;
      EXPECT_EQ(view->canonical_key, record.canonical_key);
      EXPECT_EQ(view->generation, record.generation);
      EXPECT_EQ(view->utility, record.utility);  // bit-exact round trip
      EXPECT_EQ(view->byte_size, record.byte_size);  // deterministic build
      // The rebuilt table is bit-identical to executing the plan fresh.
      auto table = db2.GetTable(view->table_name);
      ASSERT_TRUE(table.ok());
      auto fresh = exec2.Execute(*view->plan);
      ASSERT_TRUE(fresh.ok());
      EXPECT_EQ(table.value()->ToString(), fresh.value().table.ToString());
    }

    // Recovery compacted the log: replaying it again yields exactly the
    // committed state with no torn tail.
    auto compacted = ViewStateLog::Replay(truncated_path);
    ASSERT_TRUE(compacted.ok());
    EXPECT_FALSE(compacted.value().torn_tail);
    const OracleState again = FoldRecords(compacted.value().records);
    EXPECT_EQ(again.live.size(), oracle.live.size());
    EXPECT_EQ(again.generation, oracle.generation);
  }
}

TEST_F(ViewStoreTest, TornTailIsDetectedAndDiscarded) {
  const std::string wal = TempPath("torn.wal");
  Executor exec(&db_);
  {
    ViewStoreOptions options;
    options.wal_path = wal;
    MaterializedViewStore store(&db_, options);
    ASSERT_TRUE(store.Materialize(ViewPlan(db_, 0), exec).ok());
    ASSERT_TRUE(store.Materialize(ViewPlan(db_, 1), exec).ok());
    ASSERT_TRUE(store.Clear().ok());
    ASSERT_TRUE(store.Materialize(ViewPlan(db_, 2), exec).ok());
    ASSERT_TRUE(store.Clear().ok());
  }
  // Simulate a crash mid-append: trailing garbage without a newline.
  std::string content = ReadFileOrDie(wal);
  const size_t keep = content.find('\n') + 1;  // first record survives
  WriteFileOrDie(wal, content.substr(0, keep) + "deadbeef M 99 torn");

  GlobalViewStore().Reset();
  Database db2;
  BuildDb(&db2);
  Executor exec2(&db2);
  ViewStoreOptions options;
  options.wal_path = wal;
  MaterializedViewStore recovered(&db2, options);
  auto report = recovered.Recover(exec2, Resolver(db2), false);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report.value().torn_tail);
  EXPECT_EQ(report.value().committed_views, 1u);
  EXPECT_EQ(recovered.size(), 1u);
  EXPECT_GE(GlobalViewStore().Read().torn_wal_tails, 1u);
  EXPECT_GE(GlobalViewStore().Read().recovered_views, 1u);
}

TEST_F(ViewStoreTest, RecoverBackgroundRebuildsOnThePool) {
  const std::string wal = TempPath("background.wal");
  Executor exec(&db_);
  {
    ViewStoreOptions options;
    options.wal_path = wal;
    MaterializedViewStore store(&db_, options);
    for (int k = 0; k < 3; ++k) {
      ASSERT_TRUE(store.Materialize(ViewPlan(db_, k), exec).ok());
    }
    ASSERT_TRUE(store.Clear().ok());
    for (int k = 0; k < 3; ++k) {
      ASSERT_TRUE(store.Materialize(ViewPlan(db_, k), exec).ok());
    }
    // Crash here: leave tables behind in db_? No — use a fresh db.
  }
  Database db2;
  BuildDb(&db2);
  Executor exec2(&db2);
  ViewStoreOptions options;
  options.wal_path = wal;
  MaterializedViewStore recovered(&db2, options);
  auto report = recovered.Recover(exec2, Resolver(db2), true);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().committed_views, 3u);
  EXPECT_EQ(report.value().rematerialized, 3u);  // scheduled
  recovered.WaitIdle();
  EXPECT_EQ(recovered.size(), 3u);
  for (int k = 0; k < 3; ++k) {
    EXPECT_NE(recovered.FindByKey(CanonicalKey(*ViewPlan(db2, k))), nullptr);
  }
}

TEST_F(ViewStoreTest, WalAppendFailureRollsBackTheInstall) {
  const std::string wal = TempPath("append_fail.wal");
  Executor exec(&db_);
  ViewStoreOptions options;
  options.wal_path = wal;
  MaterializedViewStore store(&db_, options);
  ASSERT_TRUE(
      Failpoints::Instance().Configure("viewstore.wal_append=error").ok());
  auto view = store.Materialize(ViewPlan(db_, 0), exec);
  EXPECT_FALSE(view.ok());
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.bytes_used(), 0u);
  EXPECT_FALSE(db_.HasTable("__mv_1"));  // install rolled back

  Failpoints::Instance().Clear();
  auto retry = store.Materialize(ViewPlan(db_, 0), exec);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(store.size(), 1u);
  EXPECT_TRUE(db_.HasTable(retry.value()->table_name));
}

TEST_F(ViewStoreTest, ReplayCorruptionFailpointTriggersTornTail) {
  const std::string wal = TempPath("bitrot.wal");
  Executor exec(&db_);
  {
    ViewStoreOptions options;
    options.wal_path = wal;
    MaterializedViewStore store(&db_, options);
    for (int k = 0; k < 4; ++k) {
      ASSERT_TRUE(store.Materialize(ViewPlan(db_, k), exec).ok());
    }
    ASSERT_TRUE(store.Clear().ok());
    for (int k = 0; k < 4; ++k) {
      ASSERT_TRUE(store.Materialize(ViewPlan(db_, k), exec).ok());
    }
  }
  ASSERT_TRUE(
      Failpoints::Instance().Configure("viewstore.wal_replay=corrupt").ok());
  auto replay = ViewStateLog::Replay(wal);
  Failpoints::Instance().Clear();
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay.value().torn_tail);  // the bit flip ends the prefix
  auto clean = ViewStateLog::Replay(wal);
  ASSERT_TRUE(clean.ok());
  EXPECT_LT(replay.value().records.size(), clean.value().records.size());
}

TEST_F(ViewStoreTest, RematerializeFailureDropsTheViewFromCommittedState) {
  const std::string wal = TempPath("remat_fail.wal");
  Executor exec(&db_);
  {
    ViewStoreOptions options;
    options.wal_path = wal;
    MaterializedViewStore store(&db_, options);
    ASSERT_TRUE(store.Materialize(ViewPlan(db_, 0), exec).ok());
    ASSERT_TRUE(store.Materialize(ViewPlan(db_, 1), exec).ok());
  }
  Database db2;
  BuildDb(&db2);
  Executor exec2(&db2);
  ViewStoreOptions options;
  options.wal_path = wal;
  MaterializedViewStore recovered(&db2, options);
  ASSERT_TRUE(
      Failpoints::Instance().Configure("viewstore.rematerialize=error").ok());
  auto report = recovered.Recover(exec2, Resolver(db2), false);
  Failpoints::Instance().Clear();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().committed_views, 2u);
  EXPECT_EQ(report.value().rematerialized, 0u);
  EXPECT_EQ(report.value().failed, 2u);
  EXPECT_EQ(recovered.size(), 0u);

  // The failed views were dropped from the log: a second recovery into
  // a fresh store converges to the (now empty) committed state.
  Database db3;
  BuildDb(&db3);
  Executor exec3(&db3);
  MaterializedViewStore second(&db3, options);
  auto report2 = second.Recover(exec3, Resolver(db3), false);
  ASSERT_TRUE(report2.ok());
  EXPECT_EQ(report2.value().committed_views, 0u);
  EXPECT_EQ(second.size(), 0u);
}

TEST_F(ViewStoreTest, UnresolvableViewIsDroppedNotFatal) {
  const std::string wal = TempPath("unresolvable.wal");
  Executor exec(&db_);
  {
    ViewStoreOptions options;
    options.wal_path = wal;
    MaterializedViewStore store(&db_, options);
    ASSERT_TRUE(store.Materialize(ViewPlan(db_, 0), exec).ok());
    ASSERT_TRUE(store.Materialize(ViewPlan(db_, 1), exec).ok());
  }
  Database db2;
  BuildDb(&db2);
  Executor exec2(&db2);
  const std::string keep_key = CanonicalKey(*ViewPlan(db2, 0));
  // A resolver with schema drift: only view 0 still resolves.
  auto partial = [&db2, keep_key](const std::string& key) -> PlanNodePtr {
    return key == keep_key ? ViewStoreTest::ViewPlan(db2, 0) : nullptr;
  };
  ViewStoreOptions options;
  options.wal_path = wal;
  MaterializedViewStore recovered(&db2, options);
  auto report = recovered.Recover(exec2, partial, false);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().committed_views, 2u);
  EXPECT_EQ(report.value().rematerialized, 1u);
  EXPECT_EQ(report.value().failed, 1u);
  EXPECT_EQ(recovered.size(), 1u);
  EXPECT_NE(recovered.FindByKey(keep_key), nullptr);
}

TEST_F(ViewStoreTest, CheckpointCompactsTheLog) {
  const std::string wal = TempPath("checkpoint.wal");
  Executor exec(&db_);
  ViewStoreOptions options;
  options.wal_path = wal;
  MaterializedViewStore store(&db_, options);
  std::vector<int64_t> ids;
  for (int k = 0; k < 4; ++k) {
    auto view = store.Materialize(ViewPlan(db_, k), exec);
    ASSERT_TRUE(view.ok());
    ids.push_back(view.value()->id);
  }
  ASSERT_TRUE(store.Drop(ids[0]).ok());
  ASSERT_TRUE(store.Drop(ids[2]).ok());
  auto before = ViewStateLog::Replay(wal);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.value().records.size(), 6u);  // 4 M + 2 D

  ASSERT_TRUE(store.Checkpoint().ok());
  auto after = ViewStateLog::Replay(wal);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().records.size(), 3u);  // C + 2 live M
  const OracleState state = FoldRecords(after.value().records);
  EXPECT_EQ(state.live.size(), 2u);
  EXPECT_TRUE(state.live.count(ids[1]) == 1 && state.live.count(ids[3]) == 1);
}

TEST_F(ViewStoreTest, FromEnvReadsBudget) {
  ASSERT_EQ(setenv("AUTOVIEW_VIEW_BUDGET_BYTES", "123456", 1), 0);
  EXPECT_EQ(ViewStoreOptions::FromEnv().budget_bytes, 123456u);
  ASSERT_EQ(setenv("AUTOVIEW_VIEW_BUDGET_BYTES", "not-a-number", 1), 0);
  EXPECT_EQ(ViewStoreOptions::FromEnv().budget_bytes, 0u);
  ASSERT_EQ(unsetenv("AUTOVIEW_VIEW_BUDGET_BYTES"), 0);
  EXPECT_EQ(ViewStoreOptions::FromEnv().budget_bytes, 0u);
}

TEST_F(ViewStoreTest, FromEnvStrictRejectsMalformedBudget) {
  // The strtoull-era parser silently wrapped "-1" to ~0 (effectively
  // unbounded) and accepted trailing junk; the strict from_chars path
  // is a loud ParseError for anything but a whole-string uint64.
  for (const char* bad : {"-1", "12x", " 64", "not-a-number", "+5",
                          "99999999999999999999999999"}) {
    ASSERT_EQ(setenv("AUTOVIEW_VIEW_BUDGET_BYTES", bad, 1), 0);
    const auto options = ViewStoreOptions::FromEnvStrict();
    ASSERT_FALSE(options.ok()) << bad;
    EXPECT_EQ(options.status().code(), StatusCode::kParseError) << bad;
    // The lenient form logs and stays unlimited instead of failing.
    EXPECT_EQ(ViewStoreOptions::FromEnv().budget_bytes, 0u) << bad;
  }
  ASSERT_EQ(setenv("AUTOVIEW_VIEW_BUDGET_BYTES", "4096", 1), 0);
  const auto valid = ViewStoreOptions::FromEnvStrict();
  ASSERT_TRUE(valid.ok());
  EXPECT_EQ(valid.value().budget_bytes, 4096u);
  ASSERT_EQ(unsetenv("AUTOVIEW_VIEW_BUDGET_BYTES"), 0);
  const auto unset = ViewStoreOptions::FromEnvStrict();
  ASSERT_TRUE(unset.ok());
  EXPECT_EQ(unset.value().budget_bytes, 0u);
}

TEST_F(ViewStoreTest, OversizedViewIsRejectedOutright) {
  GlobalViewStore().Reset();
  Executor exec(&db_);
  ViewStoreOptions options;
  options.budget_bytes = 1;  // nothing fits
  MaterializedViewStore store(&db_, options);
  auto view = store.Materialize(ViewPlan(db_, 0), exec);
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(GlobalViewStore().Read().admissions_rejected, 1u);
}

TEST_F(ViewStoreTest, SnapshotMoveTransfersPins) {
  Executor exec(&db_);
  MaterializedViewStore store(&db_, ViewStoreOptions{});
  auto view = store.Materialize(ViewPlan(db_, 0), exec);
  ASSERT_TRUE(view.ok());
  const std::string table = view.value()->table_name;

  ViewSetSnapshot outer;
  {
    ViewSetSnapshot inner = store.PinLive();
    outer = std::move(inner);  // inner's destructor must not unpin
  }
  ASSERT_TRUE(store.Drop(view.value()->id).ok());
  EXPECT_TRUE(db_.HasTable(table));  // still pinned through `outer`
  outer.Release();
  EXPECT_FALSE(db_.HasTable(table));
}

// ---------------------------------------------------------------------
// Serving a whole workload through a budget that admits no view.

TEST(BudgetedServingTest, BudgetedStoreServesEveryRequestWithinBudget) {
  const GeneratedWorkload workload = GenerateCloudWorkload(Wk1Spec(0.15));
  const Catalog& catalog = workload.db->catalog();
  const auto query_fn = [&](size_t qi) -> PlanNodePtr {
    Result<PlanNodePtr> plan =
        PlanBuilder(&catalog).BuildFromSql(workload.sql[qi]);
    return plan.ok() ? std::move(plan).value() : nullptr;
  };
  const WorkloadAnalysis analysis =
      SubqueryClusterer().AnalyzeStreaming(workload.sql.size(), query_fn);
  const Result<StreamingProblem> problem = BuildStreamingProblem(
      catalog, analysis, query_fn, StreamingProblemOptions{});
  ASSERT_TRUE(problem.ok()) << problem.status().ToString();
  const MvsProblemIndex index(problem.value().compact);
  IterViewSelector::Options select;
  select.iterations = 20;
  select.seed = 12345;
  const Result<MvsSolution> solution =
      IterViewSelector(select).SelectIndexed(index);
  ASSERT_TRUE(solution.ok()) << solution.status().ToString();

  // Nothing fits in one byte: the store rejects every selected view
  // outright, and their queries serve from the base tables.
  GlobalViewStore().Reset();
  ViewStoreOptions options;
  options.budget_bytes = 1;
  MaterializedViewStore store(workload.db.get(), options);
  const Executor executor(workload.db.get());
  uint64_t selected = 0;
  for (size_t j = 0; j < solution.value().z.size(); ++j) {
    if (!solution.value().z[j]) continue;
    ++selected;
    MaterializeOptions mopts;
    mopts.utility = index.ViewUtility(j);
    EXPECT_EQ(store
                  .Materialize(problem.value().candidate_plans[j], executor,
                               mopts)
                  .status()
                  .code(),
              StatusCode::kResourceExhausted);
  }
  ASSERT_GT(selected, 0u);
  EXPECT_EQ(GlobalViewStore().Read().admissions_rejected, selected);

  // Serve every query twice; the second pass finds each rewrite cached,
  // since no swap moved the store's generation in between.
  const Rewriter rewriter(&catalog);
  const RewriteCacheCounters::Snapshot before = GlobalRewriteCache().Read();
  size_t requests = 0;
  size_t failed = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::string& sql : workload.sql) {
      ++requests;
      Result<PlanNodePtr> plan = PlanBuilder(&catalog).BuildFromSql(sql);
      Result<ServingRewrite> serving =
          plan.ok() ? rewriter.RewriteServing(plan.value(), &store)
                    : Result<ServingRewrite>(plan.status());
      if (!serving.ok() ||
          !executor.ExecuteForCost(*serving.value().plan).ok()) {
        ++failed;
        continue;
      }
      EXPECT_EQ(serving.value().num_substitutions, 0u);
    }
  }
  EXPECT_EQ(failed, 0u);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_LE(store.bytes_used(), options.budget_bytes);
  const RewriteCacheCounters::Snapshot after = GlobalRewriteCache().Read();
  EXPECT_EQ((after.hits - before.hits) + (after.misses - before.misses),
            requests);
  EXPECT_GE(after.hits - before.hits, workload.sql.size());
}

}  // namespace
}  // namespace autoview
