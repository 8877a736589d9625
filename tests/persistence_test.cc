#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/metadata.h"

namespace autoview {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(MetadataStoreTest, WriteLoadRoundTrip) {
  const std::string path = TempPath("meta.tsv");
  MetadataStore store(path);
  std::vector<MetadataRecord> records = {
      {"select a from t", "select a from t where a = 1", "t", 0.5, 1.5, 1.0},
      {"select b from u", "select b from u where b = 2", "t,u", 0.25, 2.0,
       1.75},
  };
  ASSERT_TRUE(store.Write(records).ok());
  auto loaded = store.Load();
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().size(), 2u);
  EXPECT_EQ(loaded.value()[0].query_sql, records[0].query_sql);
  EXPECT_EQ(loaded.value()[1].tables, "t,u");
  EXPECT_DOUBLE_EQ(loaded.value()[1].rewritten_cost, 0.25);
  std::remove(path.c_str());
}

TEST(MetadataStoreTest, AppendAccumulates) {
  const std::string path = TempPath("meta_append.tsv");
  MetadataStore store(path);
  ASSERT_TRUE(store.Write({{"q1", "v1", "t", 1, 2, 3}}).ok());
  ASSERT_TRUE(store.Append({{"q2", "v2", "t", 4, 5, 6}}).ok());
  auto loaded = store.Load();
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().size(), 2u);
  EXPECT_EQ(loaded.value()[1].query_sql, "q2");
  std::remove(path.c_str());
}

TEST(MetadataStoreTest, RejectsFieldsWithSeparators) {
  MetadataStore store(TempPath("meta_bad.tsv"));
  EXPECT_FALSE(store.Write({{"a\tb", "v", "t", 1, 2, 3}}).ok());
  EXPECT_FALSE(store.Write({{"a\nb", "v", "t", 1, 2, 3}}).ok());
}

TEST(MetadataStoreTest, MissingFileIsNotFound) {
  MetadataStore store("/nonexistent/meta.tsv");
  EXPECT_EQ(store.Load().status().code(), StatusCode::kNotFound);
}

TEST(MetadataStoreTest, TornTrailingRecordRejected) {
  const std::string path = TempPath("meta_torn.tsv");
  MetadataStore store(path);
  ASSERT_TRUE(store.Write({{"q1", "v1", "t", 1, 2, 3}}).ok());
  // Simulate a crash mid-append: a final record with no trailing newline.
  FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::fputs("q2\tv2\tt\t4\t5", f);
  std::fclose(f);
  EXPECT_EQ(store.Load().status().code(), StatusCode::kParseError);
  std::remove(path.c_str());
}

TEST(MetadataStoreTest, NonNumericCostFieldRejected) {
  const std::string path = TempPath("meta_nonnum.tsv");
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("q\tv\tt\tBANANA\t2\t3\n", f);
  std::fclose(f);
  MetadataStore store(path);
  EXPECT_EQ(store.Load().status().code(), StatusCode::kParseError);
  std::remove(path.c_str());
}

TEST(MetadataStoreTest, WrongFieldCountRejected) {
  const std::string path = TempPath("meta_fields.tsv");
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("q\tv\tt\t1\t2\n", f);
  std::fclose(f);
  MetadataStore store(path);
  EXPECT_EQ(store.Load().status().code(), StatusCode::kParseError);
  std::remove(path.c_str());
}

TEST(MetadataStoreTest, FailedWriteKeepsPreviousStore) {
  const std::string path = TempPath("meta_atomic.tsv");
  MetadataStore store(path);
  ASSERT_TRUE(store.Write({{"q1", "v1", "t", 1, 2, 3}}).ok());
  // A record that fails validation aborts the temp write; the committed
  // store must be untouched.
  EXPECT_FALSE(store.Write({{"bad\tfield", "v", "t", 4, 5, 6}}).ok());
  auto loaded = store.Load();
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().size(), 1u);
  EXPECT_EQ(loaded.value()[0].query_sql, "q1");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace autoview
