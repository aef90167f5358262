// Unit tests for the physical-operator executor: the compiled pipeline's
// operators and its fold over ColumnBatch selections. That every wire format
// of one event stream folds to byte-identical rows is the format-matrix
// differential (differential_test.cc, FormatMatrixTest).

#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/central/executor.h"
#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/plan/physical.h"
#include "src/query/analyzer.h"

namespace scrub {
namespace {

std::string RenderRow(const ResultRow& row) {
  std::string out = StrFormat("w%lld %s c=%.17g",
                              static_cast<long long>(row.window_start),
                              row.ToString().c_str(), row.completeness);
  for (const double b : row.error_bounds) {
    out += StrFormat(" b=%.17g", b);
  }
  return out;
}

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest() {
    bid_schema_ = *EventSchema::Builder("bid")
                       .AddField("user_id", FieldType::kLong)
                       .AddField("price", FieldType::kDouble)
                       .Build();
    imp_schema_ = *EventSchema::Builder("impression")
                       .AddField("line_item_id", FieldType::kLong)
                       .AddField("cost", FieldType::kDouble)
                       .Build();
    EXPECT_TRUE(registry_.Register(bid_schema_).ok());
    EXPECT_TRUE(registry_.Register(imp_schema_).ok());
  }

  // QueryState wired the way ScrubCentral's InstallQuery wires it, with the
  // sink appending full-precision renderings to `transcript`.
  QueryState StateFor(std::string_view text, QueryId id,
                      std::vector<std::string>* transcript) {
    AnalyzerOptions options;
    Result<AnalyzedQuery> aq = ParseAndAnalyze(text, registry_, options);
    EXPECT_TRUE(aq.ok()) << aq.status().ToString();
    Result<QueryPlan> plan = PlanQuery(*aq, id, 0);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    QueryState q;
    q.plan = plan->central;
    q.plan.hosts_targeted = 1;
    q.plan.hosts_sampled = 1;
    q.pipeline = CompilePhysical(q.plan, PipelineRole::kSingleInstance);
    q.sink = [transcript](const ResultRow& row) {
      transcript->push_back(RenderRow(row));
    };
    return q;
  }

  std::vector<Event> RandomBids(int n, uint64_t seed) {
    Rng rng(seed);
    std::vector<Event> events;
    for (int i = 0; i < n; ++i) {
      Event e(bid_schema_, rng.NextUint64(),
              100 + static_cast<TimeMicros>(rng.NextBelow(3'000'000)));
      e.SetField(0, Value(static_cast<int64_t>(rng.NextBelow(6))));
      e.SetField(1, Value(rng.NextDouble() * 5));
      events.push_back(std::move(e));
    }
    return events;
  }

  static std::shared_ptr<const ColumnBatch> ToColumns(
      const SchemaPtr& schema, const std::vector<Event>& events) {
    auto batch = std::make_shared<ColumnBatch>(schema);
    batch->Reserve(events.size());
    for (const Event& e : events) {
      batch->AppendEvent(e);
    }
    return batch;
  }

  // Folds chunks into a fresh QueryState, closes every window in start
  // order, and returns the transcript.
  std::vector<std::string> Run(
      std::string_view text,
      const std::vector<std::pair<HostId, InputChunk>>& chunks) {
    std::vector<std::string> transcript;
    QueryState q = StateFor(text, 1, &transcript);
    Executor executor(&registry_, &config_, &meter_);
    for (const auto& [host, chunk] : chunks) {
      executor.Fold(q, host, chunk, /*source=*/0);
    }
    while (!q.windows.empty()) {
      auto it = q.windows.begin();
      executor.CloseWindow(q, &it->second);
      q.closed_through = it->first;
      q.windows.erase(it);
    }
    EXPECT_FALSE(transcript.empty());
    return transcript;
  }

  SchemaRegistry registry_;
  SchemaPtr bid_schema_;
  SchemaPtr imp_schema_;
  CentralConfig config_;
  CostMeter meter_;
};

TEST_F(ExecutorTest, CompiledPipelineNamesItsOperators) {
  std::vector<std::string> sink;
  const QueryState agg = StateFor(
      "SELECT bid.user_id, COUNT(*) FROM bid GROUP BY bid.user_id "
      "WINDOW 1 s DURATION 4 s;",
      1, &sink);
  const std::string ops = agg.pipeline.ToString();
  EXPECT_NE(ops.find("Decode("), std::string::npos) << ops;
  EXPECT_NE(ops.find("GroupFold("), std::string::npos) << ops;
  EXPECT_NE(ops.find("WindowClose("), std::string::npos) << ops;
  EXPECT_NE(ops.find("Finalize("), std::string::npos) << ops;
  EXPECT_EQ(ops.find("Join("), std::string::npos) << ops;

  const QueryState join = StateFor(
      "SELECT impression.line_item_id, COUNT(*) FROM bid, impression "
      "GROUP BY impression.line_item_id WINDOW 1 s DURATION 4 s;",
      2, &sink);
  EXPECT_NE(join.pipeline.ToString().find("Join("), std::string::npos);

  const QueryState raw = StateFor(
      "SELECT bid.user_id, bid.price FROM bid WINDOW 1 s DURATION 4 s;", 3,
      &sink);
  EXPECT_NE(raw.pipeline.ToString().find("Project("), std::string::npos);
  EXPECT_EQ(raw.pipeline.ToString().find("GroupFold("), std::string::npos);
}

TEST_F(ExecutorTest, ColumnarSelectionFoldsOnlySelectedRows) {
  const char* query =
      "SELECT COUNT(*), SUM(bid.price) FROM bid WINDOW 1 s DURATION 4 s;";
  const std::vector<Event> all = RandomBids(300, 23);
  std::vector<Event> evens;
  std::vector<uint32_t> selection;
  for (size_t i = 0; i < all.size(); i += 2) {
    evens.push_back(all[i]);
    selection.push_back(static_cast<uint32_t>(i));
  }

  const std::vector<std::string> dense_transcript = Run(
      query, {{HostId{0},
               InputChunk::Columns(ToColumns(bid_schema_, evens), nullptr,
                                   0)}});
  const auto batch = ToColumns(bid_schema_, all);
  const std::vector<std::string> selected_transcript = Run(
      query,
      {{HostId{0},
        InputChunk::Columns(batch, selection.data(), selection.size())}});
  EXPECT_EQ(selected_transcript, dense_transcript);
}

}  // namespace
}  // namespace scrub
