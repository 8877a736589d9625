// Golden pins for the SQL -> plan front end. Every WK1-full query
// (Table I scale, 38.6k) and every JOB query is tokenized, parsed and
// planned; one FNV-1a digest per workload covers each plan's ToString(),
// CanonicalKey(), Hash(), and every node's output column names and
// types (pre-order). A change to the tokenizer, parser, builder or the
// PlanNode factories that alters any plan moves these digests. The
// generator feeds the SQL too, so an intended generator change also
// moves them; recapture them only then, never to absorb a front-end
// change.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "plan/builder.h"
#include "plan/canonical.h"
#include "workload/generator.h"

namespace autoview {
namespace {

class Fnv64 {
 public:
  void Bytes(std::string_view s) {
    for (unsigned char c : s) h_ = (h_ ^ c) * 0x100000001b3ULL;
    // Terminator, so adjacent fields cannot run into each other.
    h_ = (h_ ^ 0xffU) * 0x100000001b3ULL;
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xffU)) * 0x100000001b3ULL;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

struct FrontEndDigest {
  size_t planned = 0;
  size_t failed = 0;
  uint64_t digest = 0;
};

FrontEndDigest DigestWorkload(const GeneratedWorkload& workload) {
  PlanBuilder builder(&workload.db->catalog());
  Fnv64 fnv;
  FrontEndDigest out;
  for (const std::string& sql : workload.sql) {
    Result<PlanNodePtr> plan = builder.BuildFromSql(sql);
    if (!plan.ok()) {
      ++out.failed;
      fnv.Bytes(plan.status().ToString());
      continue;
    }
    ++out.planned;
    const PlanNode& root = *plan.value();
    fnv.Bytes(root.ToString());
    fnv.Bytes(CanonicalKey(root));
    fnv.U64(root.Hash());
    for (const PlanNodePtr& node : root.Subtrees()) {
      fnv.U64(node->output().size());
      for (const OutputColumn& col : node->output()) {
        fnv.Bytes(col.name);
        fnv.U64(static_cast<uint64_t>(col.type));
      }
    }
  }
  out.digest = fnv.value();
  return out;
}

TEST(PlanGoldenTest, Wk1FullFrontEndOutputIsPinned) {
  const GeneratedWorkload wk = GenerateCloudWorkload(Wk1FullSpec());
  ASSERT_EQ(wk.sql.size(), 38600u);
  const FrontEndDigest d = DigestWorkload(wk);
  EXPECT_EQ(d.planned, 38600u);
  EXPECT_EQ(d.failed, 0u);
  EXPECT_EQ(d.digest, 0xc6852e9d851b7b9dULL) << std::hex << d.digest;
}

TEST(PlanGoldenTest, JobFrontEndOutputIsPinned) {
  const GeneratedWorkload wk = GenerateJobWorkload(JobWorkloadSpec{});
  const FrontEndDigest d = DigestWorkload(wk);
  EXPECT_EQ(d.planned, wk.sql.size());
  EXPECT_EQ(d.failed, 0u);
  EXPECT_EQ(d.digest, 0x74aed18279b87c2bULL) << std::hex << d.digest;
}

}  // namespace
}  // namespace autoview
