// Unit tests for the per-host ScrubAgent: selection, projection, sampling,
// shedding, window counters, flush batching, counters-only frames, and
// self-expiry. Selection runs at flush (vectorized over the staged column
// batches), so selection stats are read after a flush.

#include <gtest/gtest.h>

#include "src/agent/agent.h"
#include "src/event/wire.h"
#include "src/plan/plan.h"
#include "src/query/analyzer.h"

namespace scrub {
namespace {

class AgentTest : public ::testing::Test {
 protected:
  AgentTest() : meter_(), agent_(MakeAgent()) {
    schema_ = *EventSchema::Builder("bid")
                   .AddField("user_id", FieldType::kLong)
                   .AddField("price", FieldType::kDouble)
                   .AddField("country", FieldType::kString)
                   .Build();
    impression_schema_ = *EventSchema::Builder("impression")
                              .AddField("line_item_id", FieldType::kLong)
                              .Build();
    EXPECT_TRUE(registry_.Register(schema_).ok());
    EXPECT_TRUE(registry_.Register(impression_schema_).ok());
  }

  ScrubAgent MakeAgent(size_t staging = 64) {
    AgentConfig config;
    config.staging_capacity = staging;
    return ScrubAgent(/*host=*/3, &meter_, config, /*sampling_seed=*/99);
  }

  HostPlan PlanFor(std::string_view text, TimeMicros submit = 0) {
    Result<AnalyzedQuery> aq = ParseAndAnalyze(text, registry_);
    EXPECT_TRUE(aq.ok()) << aq.status().ToString();
    Result<QueryPlan> plan = PlanQuery(*aq, next_id_++, submit);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return plan->host;
  }

  Event MakeBid(RequestId rid, TimeMicros ts, int64_t user, double price) {
    Event e(schema_, rid, ts);
    e.SetField(0, Value(user));
    e.SetField(1, Value(price));
    e.SetField(2, Value("US"));
    return e;
  }

  Event MakeImpression(RequestId rid, TimeMicros ts, int64_t line_item) {
    Event e(impression_schema_, rid, ts);
    e.SetField(0, Value(line_item));
    return e;
  }

  SchemaRegistry registry_;
  SchemaPtr schema_;
  SchemaPtr impression_schema_;
  CostMeter meter_;
  ScrubAgent agent_;
  QueryId next_id_ = 1;
};

TEST_F(AgentTest, NoQueriesStillChargesLogFloor) {
  const int64_t ns = agent_.LogEvent(MakeBid(1, 10, 5, 1.0));
  EXPECT_GT(ns, 0);
  EXPECT_EQ(meter_.scrub_ns(), ns);
  EXPECT_EQ(agent_.total_events_logged(), 1u);
  // Nothing staged.
  EXPECT_TRUE(agent_.Flush(100).empty());
}

TEST_F(AgentTest, SelectionFiltersAndProjectionNulls) {
  agent_.InstallQuery(PlanFor(
      "SELECT bid.user_id, COUNT(*) FROM bid WHERE bid.price > 2.0 "
      "GROUP BY bid.user_id WINDOW 1 s DURATION 60 s;"));
  agent_.LogEvent(MakeBid(1, 10, 7, 3.0));   // passes
  agent_.LogEvent(MakeBid(2, 11, 8, 1.0));   // filtered
  // log() only stages; selection has not run yet.
  const AgentQueryStats* stats = agent_.StatsFor(1);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->events_considered, 2u);
  EXPECT_EQ(stats->events_filtered, 0u);
  EXPECT_EQ(stats->events_staged, 0u);

  std::vector<EventBatch> batches = agent_.Flush(20);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].format, BatchFormat::kColumnar);
  EXPECT_EQ(batches[0].event_count, 1u);
  Result<ColumnBatch> cols = DecodeColumnBatch(registry_, batches[0].payload);
  ASSERT_TRUE(cols.ok()) << cols.status().ToString();
  ASSERT_EQ(cols->rows(), 1u);
  const Event shipped = cols->MaterializeEvent(0);
  EXPECT_EQ(shipped.GetField("user_id"), Value(int64_t{7}));
  EXPECT_EQ(shipped.GetField("price"), Value(3.0));  // read by WHERE
  EXPECT_TRUE(shipped.GetField("country").is_null());  // projected away

  stats = agent_.StatsFor(1);
  EXPECT_EQ(stats->events_considered, 2u);
  EXPECT_EQ(stats->events_filtered, 1u);
  EXPECT_EQ(stats->events_staged, 1u);
  EXPECT_EQ(stats->events_shipped, 1u);
}

TEST_F(AgentTest, WindowCountersTrackSeenAndSampled) {
  agent_.InstallQuery(PlanFor(
      "SELECT COUNT(*) FROM bid WINDOW 1 s DURATION 10 s;"));
  // 3 events in window [0,1s), 2 in [1s,2s).
  agent_.LogEvent(MakeBid(1, 100, 1, 1.0));
  agent_.LogEvent(MakeBid(2, 200, 1, 1.0));
  agent_.LogEvent(MakeBid(3, 900'000, 1, 1.0));
  agent_.LogEvent(MakeBid(4, 1'100'000, 1, 1.0));
  agent_.LogEvent(MakeBid(5, 1'900'000, 1, 1.0));
  std::vector<EventBatch> batches = agent_.Flush(2'000'000);
  ASSERT_EQ(batches.size(), 1u);
  ASSERT_EQ(batches[0].counters.size(), 2u);
  EXPECT_EQ(batches[0].counters[0].window_start, 0);
  EXPECT_EQ(batches[0].counters[0].seen, 3u);
  EXPECT_EQ(batches[0].counters[0].sampled, 3u);  // no sampling -> all
  EXPECT_EQ(batches[0].counters[1].window_start, 1'000'000);
  EXPECT_EQ(batches[0].counters[1].seen, 2u);
}

TEST_F(AgentTest, EventSamplingReducesShippedShare) {
  agent_.InstallQuery(PlanFor(
      "SELECT COUNT(*) FROM bid WINDOW 60 s DURATION 60 s "
      "SAMPLE EVENTS 10%;"));
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    agent_.LogEvent(MakeBid(static_cast<RequestId>(i), 100 + i, 1, 1.0));
  }
  agent_.Flush(10'000);
  const AgentQueryStats* stats = agent_.StatsFor(1);
  ASSERT_NE(stats, nullptr);
  const double rate =
      static_cast<double>(stats->events_staged + stats->events_dropped) / n;
  EXPECT_NEAR(rate, 0.10, 0.02);
  EXPECT_EQ(stats->events_sampled_out + stats->events_staged +
                stats->events_dropped,
            static_cast<uint64_t>(n));
}

TEST_F(AgentTest, ShedsInsteadOfBlockingWhenStagingFull) {
  ScrubAgent small = MakeAgent(/*staging=*/8);
  small.InstallQuery(PlanFor(
      "SELECT COUNT(*) FROM bid WINDOW 60 s DURATION 60 s;"));
  for (int i = 0; i < 20; ++i) {
    small.LogEvent(MakeBid(static_cast<RequestId>(i), 100, 1, 1.0));
  }
  // Shedding happens at log() time; the staged rows pass selection at flush.
  const AgentQueryStats* stats = small.StatsFor(next_id_ - 1);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->events_dropped, 12u);
  std::vector<EventBatch> batches = small.Flush(200);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].event_count, 8u);
  EXPECT_EQ(stats->events_staged, 8u);
  ASSERT_EQ(batches[0].counters.size(), 1u);
  EXPECT_EQ(batches[0].counters[0].shed, 12u);
  // The flush emptied staging: the next events stage again.
  small.LogEvent(MakeBid(100, 300, 1, 1.0));
  EXPECT_EQ(stats->events_dropped, 12u);
}

TEST_F(AgentTest, StagingByteBudgetShedsAndReleasesAtFlush) {
  const Event probe = MakeBid(0, 100, 1, 1.0);
  AgentConfig config;
  config.staging_budget_bytes = 3 * probe.WireSize();
  ScrubAgent agent(/*host=*/3, &meter_, config, /*sampling_seed=*/99);
  const HostPlan plan = PlanFor(
      "SELECT bid.user_id, COUNT(*) FROM bid GROUP BY bid.user_id "
      "WINDOW 60 s DURATION 60 s;");
  agent.InstallQuery(plan);
  // Staging holds un-projected events, so each one is charged its full
  // wire size: exactly three fit.
  for (int i = 0; i < 5; ++i) {
    agent.LogEvent(MakeBid(static_cast<RequestId>(i), 100, 1, 1.0));
  }
  const AgentQueryStats* stats = agent.StatsFor(plan.query_id);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->events_dropped, 2u);
  std::vector<EventBatch> batches = agent.Flush(200);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].event_count, 3u);
  ASSERT_EQ(batches[0].counters.size(), 1u);
  EXPECT_EQ(batches[0].counters[0].seen, 5u);
  EXPECT_EQ(batches[0].counters[0].shed, 2u);
  // The flush returned the whole charge: three more fit again.
  for (int i = 5; i < 8; ++i) {
    agent.LogEvent(MakeBid(static_cast<RequestId>(i), 300, 1, 1.0));
  }
  EXPECT_EQ(stats->events_dropped, 2u);
  batches = agent.Flush(400);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].event_count, 3u);
}

TEST_F(AgentTest, FlushSplitsLargeBatches) {
  AgentConfig config;
  config.staging_capacity = 4096;
  config.max_batch_events = 100;
  ScrubAgent agent(1, &meter_, config, 1);
  agent.InstallQuery(PlanFor(
      "SELECT COUNT(*) FROM bid WINDOW 60 s DURATION 60 s;"));
  for (int i = 0; i < 250; ++i) {
    agent.LogEvent(MakeBid(static_cast<RequestId>(i), 100, 1, 1.0));
  }
  std::vector<EventBatch> batches = agent.Flush(200);
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[0].event_count, 100u);
  EXPECT_EQ(batches[1].event_count, 100u);
  EXPECT_EQ(batches[2].event_count, 50u);
}

TEST_F(AgentTest, EventsOutsideSpanIgnored) {
  agent_.InstallQuery(PlanFor(
      "SELECT COUNT(*) FROM bid WINDOW 1 s START 10 s DURATION 5 s;"));
  agent_.LogEvent(MakeBid(1, 5 * kMicrosPerSecond, 1, 1.0));    // too early
  agent_.LogEvent(MakeBid(2, 12 * kMicrosPerSecond, 1, 1.0));   // in span
  agent_.LogEvent(MakeBid(3, 16 * kMicrosPerSecond, 1, 1.0));   // too late
  const AgentQueryStats* stats = agent_.StatsFor(1);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->events_considered, 1u);
}

TEST_F(AgentTest, ExpiredQueriesRetireOnFlush) {
  agent_.InstallQuery(PlanFor(
      "SELECT COUNT(*) FROM bid WINDOW 1 s DURATION 2 s;"));
  agent_.LogEvent(MakeBid(1, 100, 1, 1.0));
  std::vector<QueryId> expired;
  std::vector<EventBatch> batches =
      agent_.Flush(3 * kMicrosPerSecond, &expired);
  EXPECT_EQ(batches.size(), 1u);  // final drain still ships
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0], 1u);
  EXPECT_EQ(agent_.active_queries(), 0u);
  // Stats survive retirement.
  EXPECT_NE(agent_.StatsFor(1), nullptr);
}

TEST_F(AgentTest, RemoveQueryStopsCollection) {
  agent_.InstallQuery(PlanFor(
      "SELECT COUNT(*) FROM bid WINDOW 1 s DURATION 60 s;"));
  agent_.RemoveQuery(1);
  agent_.LogEvent(MakeBid(1, 100, 1, 1.0));
  EXPECT_TRUE(agent_.Flush(200).empty());
}

TEST_F(AgentTest, MultipleQueriesProcessIndependently) {
  agent_.InstallQuery(PlanFor(
      "SELECT COUNT(*) FROM bid WHERE bid.price > 5.0 "
      "WINDOW 1 s DURATION 60 s;"));
  agent_.InstallQuery(PlanFor(
      "SELECT COUNT(*) FROM bid WHERE bid.user_id = 1 "
      "WINDOW 1 s DURATION 60 s;"));
  agent_.LogEvent(MakeBid(1, 100, 1, 1.0));   // matches only query 2
  agent_.LogEvent(MakeBid(2, 100, 2, 9.0));   // matches only query 1
  std::vector<EventBatch> batches = agent_.Flush(200);
  ASSERT_EQ(batches.size(), 2u);
  for (const EventBatch& b : batches) {
    EXPECT_EQ(b.event_count, 1u);
  }
  EXPECT_NE(batches[0].query_id, batches[1].query_id);
}

// --- Reliable delivery ------------------------------------------------------

TEST_F(AgentTest, SequenceNumbersAreMonotonePerQuery) {
  const HostPlan p1 = PlanFor("SELECT COUNT(*) FROM bid WINDOW 1 s "
                              "DURATION 60 s;");
  const HostPlan p2 = PlanFor("SELECT COUNT(*) FROM bid WINDOW 1 s "
                              "DURATION 60 s;");
  agent_.InstallQuery(p1);
  agent_.InstallQuery(p2);
  agent_.LogEvent(MakeBid(1, 10, 5, 1.0));
  std::vector<EventBatch> first = agent_.Flush(1000);
  agent_.LogEvent(MakeBid(2, 2000, 5, 1.0));
  std::vector<EventBatch> second = agent_.Flush(3000);
  ASSERT_EQ(first.size(), 2u);
  ASSERT_EQ(second.size(), 2u);
  for (const EventBatch& b : first) {
    EXPECT_EQ(b.seq, 1u);  // each query numbers its own stream
    EXPECT_EQ(b.epoch, 0u);
  }
  for (const EventBatch& b : second) {
    EXPECT_EQ(b.seq, 2u);
  }
}

TEST_F(AgentTest, WireSizeCountsHeaderAndCounters) {
  agent_.InstallQuery(PlanFor("SELECT COUNT(*) FROM bid WINDOW 1 s "
                              "DURATION 60 s;"));
  agent_.LogEvent(MakeBid(1, 10, 5, 1.0));
  std::vector<EventBatch> batches = agent_.Flush(1000);
  ASSERT_EQ(batches.size(), 1u);
  const EventBatch& b = batches[0];
  EXPECT_EQ(b.format, BatchFormat::kColumnar);
  EXPECT_FALSE(b.payload.empty());
  EXPECT_FALSE(b.counters.empty());
  // 36 header bytes plus the one-byte format discriminator.
  EXPECT_EQ(b.WireSize(), b.payload.size() + 32 * b.counters.size() + 37);
}

TEST_F(AgentTest, RetransmitsUntilAcked) {
  AgentConfig config;
  config.retransmit_budget = 60 * kMicrosPerSecond;
  config.retransmit_backoff = 100 * kMicrosPerMilli;
  ScrubAgent agent(/*host=*/3, &meter_, config, /*sampling_seed=*/99);
  const HostPlan plan = PlanFor("SELECT COUNT(*) FROM bid WINDOW 1 s "
                                "DURATION 60 s;");
  agent.InstallQuery(plan);
  agent.LogEvent(MakeBid(1, 10, 5, 1.0));
  std::vector<EventBatch> batches = agent.Flush(1000);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(agent.pending_retransmits(), 1u);

  // Jitter keeps the first retry within +/-25% of the backoff: nothing is
  // due at half the backoff, everything is due at 130%.
  EXPECT_TRUE(agent.Retransmits(1000 + 50 * kMicrosPerMilli).empty());
  std::vector<EventBatch> retries =
      agent.Retransmits(1000 + 130 * kMicrosPerMilli);
  ASSERT_EQ(retries.size(), 1u);
  EXPECT_EQ(retries[0].seq, batches[0].seq);  // identical batch, same seq
  EXPECT_EQ(retries[0].payload, batches[0].payload);
  EXPECT_EQ(agent.StatsFor(plan.query_id)->batches_retransmitted, 1u);
  EXPECT_EQ(agent.pending_retransmits(), 1u);  // still buffered until acked

  agent.OnAck(plan.query_id, batches[0].seq);
  EXPECT_EQ(agent.pending_retransmits(), 0u);
  EXPECT_EQ(agent.StatsFor(plan.query_id)->batches_acked, 1u);
  EXPECT_TRUE(agent.Retransmits(1000 + kMicrosPerSecond).empty());
}

TEST_F(AgentTest, RetransmitBudgetSpentShedsAndCounts) {
  AgentConfig config;
  config.retransmit_budget = 200 * kMicrosPerMilli;
  ScrubAgent agent(/*host=*/3, &meter_, config, /*sampling_seed=*/99);
  const HostPlan plan = PlanFor("SELECT COUNT(*) FROM bid WINDOW 1 s "
                                "DURATION 60 s;");
  agent.InstallQuery(plan);
  agent.LogEvent(MakeBid(1, 10, 5, 1.0));
  ASSERT_EQ(agent.Flush(1000).size(), 1u);
  EXPECT_EQ(agent.pending_retransmits(), 1u);
  // Never acked; once the budget elapses the copy is shed, not re-sent.
  EXPECT_TRUE(agent.Retransmits(1000 + 300 * kMicrosPerMilli).empty());
  EXPECT_EQ(agent.pending_retransmits(), 0u);
  const AgentQueryStats* stats = agent.StatsFor(plan.query_id);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->batches_expired, 1u);
  EXPECT_EQ(stats->events_abandoned, 1u);
}

TEST_F(AgentTest, RetransmitBufferEvictsOldestAtCapacity) {
  AgentConfig config;
  config.retransmit_budget = 60 * kMicrosPerSecond;
  config.retransmit_capacity = 2;
  ScrubAgent agent(/*host=*/3, &meter_, config, /*sampling_seed=*/99);
  const HostPlan plan = PlanFor("SELECT COUNT(*) FROM bid WINDOW 1 s "
                                "DURATION 60 s;");
  agent.InstallQuery(plan);
  for (int i = 0; i < 3; ++i) {
    agent.LogEvent(MakeBid(i + 1, 10 + i, 5, 1.0));
    ASSERT_EQ(agent.Flush(1000 * (i + 1)).size(), 1u);
  }
  EXPECT_EQ(agent.pending_retransmits(), 2u);  // oldest copy gave way
  const AgentQueryStats* stats = agent.StatsFor(plan.query_id);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->batches_evicted, 1u);
  EXPECT_EQ(stats->events_abandoned, 1u);
}

TEST_F(AgentTest, HeartbeatsOnlyWhenOptedIn) {
  // Default config: a flush with nothing staged ships nothing.
  agent_.InstallQuery(PlanFor("SELECT COUNT(*) FROM bid WINDOW 1 s "
                              "DURATION 60 s;"));
  EXPECT_TRUE(agent_.Flush(5000).empty());

  // With heartbeats on, the same silent flush ships a zeroed counter for
  // the current window — "reachable, nothing to report".
  AgentConfig config;
  config.flush_heartbeats = true;
  ScrubAgent beating(/*host=*/3, &meter_, config, /*sampling_seed=*/99);
  beating.InstallQuery(PlanFor("SELECT COUNT(*) FROM bid WINDOW 1 s "
                               "DURATION 60 s;"));
  std::vector<EventBatch> batches = beating.Flush(5000);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].event_count, 0u);
  ASSERT_EQ(batches[0].counters.size(), 1u);
  EXPECT_EQ(batches[0].counters[0].window_start, 0);
  EXPECT_EQ(batches[0].counters[0].seen, 0u);
  EXPECT_EQ(batches[0].counters[0].sampled, 0u);
}

// Counters-only frames are a wire contract: when heartbeats are on and no
// staged row survives selection, the flush ships exactly one empty row batch
// carrying the counters, numbered right after the last data batch.
void ExpectCountersOnlyFrame(const std::vector<EventBatch>& batches,
                             uint64_t expected_seq) {
  ASSERT_EQ(batches.size(), 1u);
  const EventBatch& b = batches[0];
  EXPECT_EQ(b.format, BatchFormat::kRow);
  EXPECT_EQ(b.payload, EncodeBatch({}));
  EXPECT_EQ(b.event_count, 0u);
  EXPECT_FALSE(b.counters.empty());
  EXPECT_EQ(b.WireSize(), 40 + 32 * b.counters.size());
  EXPECT_EQ(b.seq, expected_seq);
}

TEST_F(AgentTest, HeartbeatFrameBytesPinnedForSingleSource) {
  AgentConfig config;
  config.flush_heartbeats = true;
  ScrubAgent agent(/*host=*/3, &meter_, config, /*sampling_seed=*/99);
  agent.InstallQuery(PlanFor(
      "SELECT COUNT(*) FROM bid WHERE bid.price > 2.0 "
      "WINDOW 1 s DURATION 60 s;"));
  agent.LogEvent(MakeBid(1, 10, 7, 3.0));  // survives
  std::vector<EventBatch> data = agent.Flush(1000);
  ASSERT_EQ(data.size(), 1u);
  EXPECT_EQ(data[0].format, BatchFormat::kColumnar);
  EXPECT_EQ(data[0].seq, 1u);

  agent.LogEvent(MakeBid(2, 2000, 7, 1.0));  // filtered at flush
  ExpectCountersOnlyFrame(agent.Flush(3000), /*expected_seq=*/2);
  ExpectCountersOnlyFrame(agent.Flush(5000), /*expected_seq=*/3);  // silent
}

TEST_F(AgentTest, HeartbeatFrameBytesPinnedForJoin) {
  AgentConfig config;
  config.flush_heartbeats = true;
  ScrubAgent agent(/*host=*/3, &meter_, config, /*sampling_seed=*/99);
  agent.InstallQuery(PlanFor(
      "SELECT impression.line_item_id, COUNT(*) FROM bid, impression "
      "WHERE bid.price > 2.0 GROUP BY impression.line_item_id "
      "WINDOW 1 s DURATION 60 s;"));
  agent.LogEvent(MakeBid(1, 10, 7, 3.0));  // survives
  agent.LogEvent(MakeImpression(1, 11, 4));
  std::vector<EventBatch> data = agent.Flush(1000);
  ASSERT_EQ(data.size(), 1u);
  EXPECT_EQ(data[0].format, BatchFormat::kColumnarJoin);
  EXPECT_EQ(data[0].event_count, 2u);
  EXPECT_EQ(data[0].seq, 1u);

  agent.LogEvent(MakeBid(2, 2000, 7, 1.0));  // filtered at flush
  ExpectCountersOnlyFrame(agent.Flush(3000), /*expected_seq=*/2);
  ExpectCountersOnlyFrame(agent.Flush(5000), /*expected_seq=*/3);  // silent
}

TEST_F(AgentTest, PerQueryCostScalesWithActiveQueries) {
  // The marginal cost of logging grows with matching queries — the E7
  // relationship. Verify monotonicity at the agent level.
  const int64_t baseline = agent_.LogEvent(MakeBid(1, 100, 1, 1.0));
  agent_.InstallQuery(PlanFor(
      "SELECT COUNT(*) FROM bid WHERE bid.price > 0.5 "
      "WINDOW 1 s DURATION 60 s;"));
  const int64_t one_query = agent_.LogEvent(MakeBid(2, 101, 1, 1.0));
  for (int i = 0; i < 4; ++i) {
    agent_.InstallQuery(PlanFor(
        "SELECT COUNT(*) FROM bid WHERE bid.price > 0.5 "
        "WINDOW 1 s DURATION 60 s;"));
  }
  const int64_t five_queries = agent_.LogEvent(MakeBid(3, 102, 1, 1.0));
  EXPECT_GT(one_query, baseline);
  EXPECT_GT(five_queries, one_query);
}

}  // namespace
}  // namespace scrub
