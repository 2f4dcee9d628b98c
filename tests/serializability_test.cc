#include <gtest/gtest.h>

#include "src/analysis/history.h"

namespace mtdb {
namespace {

CommittedTxnRecord Txn(uint64_t id,
                       std::vector<VersionObservation> reads,
                       std::vector<VersionObservation> writes) {
  CommittedTxnRecord record;
  record.txn_id = id;
  record.reads = std::move(reads);
  record.writes = std::move(writes);
  return record;
}

TEST(SerializabilityTest, EmptyHistoryIsSerializable) {
  auto report = analysis::AuditHistories({});
  EXPECT_TRUE(report.serializable);
  EXPECT_EQ(report.num_transactions, 0u);
}

TEST(SerializabilityTest, SingleSiteSequentialWrites) {
  // T1 writes x@1; T2 writes x@2: single ww edge, acyclic.
  auto report = analysis::AuditHistories({{
      Txn(1, {}, {{"x", 1}}),
      Txn(2, {}, {{"x", 2}}),
  }});
  EXPECT_TRUE(report.serializable);
  EXPECT_EQ(report.num_edges, 1u);
}

TEST(SerializabilityTest, WrAndRwEdges) {
  // T1 writes x@1. T2 reads x@1 (wr edge T1->T2). T3 writes x@2
  // (ww T1->T3, rw T2->T3). Acyclic: T1 -> T2 -> T3.
  auto report = analysis::AuditHistories({{
      Txn(1, {}, {{"x", 1}}),
      Txn(2, {{"x", 1}}, {}),
      Txn(3, {}, {{"x", 2}}),
  }});
  EXPECT_TRUE(report.serializable);
  EXPECT_EQ(report.num_edges, 3u);
}

TEST(SerializabilityTest, SingleSiteCycleDetected) {
  // Classic write skew rendered in versions: T1 reads x@0 writes y@1;
  // T2 reads y@0 writes x@1. rw edges both ways -> cycle.
  auto report = analysis::AuditHistories({{
      Txn(1, {{"x", 0}}, {{"y", 1}}),
      Txn(2, {{"y", 0}}, {{"x", 1}}),
  }});
  EXPECT_FALSE(report.serializable);
  EXPECT_EQ(report.cycle.size(), 2u);
}

TEST(SerializabilityTest, PaperSection31AnomalyAcrossSites) {
  // The paper's example: each site is locally serializable, but the union
  // is cyclic. Site 1 serializes T1 before T2; site 2 serializes T2 before
  // T1.
  std::vector<CommittedTxnRecord> site1 = {
      Txn(1, {{"x", 0}}, {{"y", 1}}),  // r1(x) w1(y) first at site 1
      Txn(2, {}, {{"x", 1}}),          // w2(x) after
  };
  std::vector<CommittedTxnRecord> site2 = {
      Txn(2, {{"y", 0}}, {{"x", 1}}),  // r2(y) w2(x) first at site 2
      Txn(1, {}, {{"y", 1}}),          // w1(y) after
  };
  // Per-site checks pass individually...
  EXPECT_TRUE(analysis::AuditHistories({site1}).serializable);
  EXPECT_TRUE(analysis::AuditHistories({site2}).serializable);
  // ...but the global graph has a cycle.
  auto report = analysis::AuditHistories({site1, site2});
  EXPECT_FALSE(report.serializable);
  EXPECT_FALSE(report.cycle.empty());
}

TEST(SerializabilityTest, ReadOwnWriteIsNotACycle) {
  auto report = analysis::AuditHistories({{
      Txn(1, {{"x", 1}}, {{"x", 1}}),
  }});
  EXPECT_TRUE(report.serializable);
  EXPECT_EQ(report.num_edges, 0u);
}

TEST(SerializabilityTest, ReadOfUnknownWriterTolerated) {
  // Version 5 was installed by a bulk load (no recorded writer): only the
  // rw edge to the next writer exists.
  auto report = analysis::AuditHistories({{
      Txn(1, {{"x", 5}}, {}),
      Txn(2, {}, {{"x", 6}}),
  }});
  EXPECT_TRUE(report.serializable);
  EXPECT_EQ(report.num_edges, 1u);
}

TEST(SerializabilityTest, LongChainAcyclic) {
  std::vector<CommittedTxnRecord> history;
  for (uint64_t i = 1; i <= 50; ++i) {
    history.push_back(Txn(i, {{"x", i - 1}}, {{"x", i}}));
  }
  auto report = analysis::AuditHistories({history});
  EXPECT_TRUE(report.serializable);
  EXPECT_EQ(report.num_transactions, 50u);
}

TEST(SerializabilityTest, ThreeTxnCycleAcrossThreeSites) {
  // T1 -> T2 at site A, T2 -> T3 at site B, T3 -> T1 at site C.
  std::vector<CommittedTxnRecord> a = {Txn(1, {}, {{"p", 1}}),
                                       Txn(2, {}, {{"p", 2}})};
  std::vector<CommittedTxnRecord> b = {Txn(2, {}, {{"q", 1}}),
                                       Txn(3, {}, {{"q", 2}})};
  std::vector<CommittedTxnRecord> c = {Txn(3, {}, {{"r", 1}}),
                                       Txn(1, {}, {{"r", 2}})};
  auto report = analysis::AuditHistories({a, b, c});
  EXPECT_FALSE(report.serializable);
  EXPECT_EQ(report.cycle.size(), 3u);
}

TEST(SerializabilityTest, ReportToStringMentionsCycle) {
  auto report = analysis::AuditHistories({{
      Txn(1, {{"x", 0}}, {{"y", 1}}),
      Txn(2, {{"y", 0}}, {{"x", 1}}),
  }});
  std::string text = report.ToString();
  EXPECT_NE(text.find("NOT SERIALIZABLE"), std::string::npos);
  EXPECT_NE(text.find("cycle"), std::string::npos);
}

}  // namespace
}  // namespace mtdb
