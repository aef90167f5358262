// Unit tests for the per-host ScrubAgent: selection, projection, sampling,
// shedding, window counters, flush batching, counters-only frames,
// self-expiry, and shared staging. Selection runs at flush (vectorized over
// each query's staged rows), so selection stats are read after a flush.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>

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

  Event MakeBidFrom(RequestId rid, TimeMicros ts, int64_t user, double price,
                    const char* country) {
    Event e = MakeBid(rid, ts, user, price);
    e.SetField(2, country == nullptr ? Value() : Value(country));
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

TEST_F(AgentTest, ZeroBatchCapShipsOneBatchPerFlush) {
  AgentConfig config;
  config.staging_capacity = 4096;
  config.max_batch_events = 0;  // do not split
  ScrubAgent agent(1, &meter_, config, 1);
  agent.InstallQuery(PlanFor(
      "SELECT COUNT(*) FROM bid WINDOW 60 s DURATION 60 s;"));
  agent.InstallQuery(PlanFor(
      "SELECT impression.line_item_id, COUNT(*) FROM bid, impression "
      "GROUP BY impression.line_item_id WINDOW 60 s DURATION 60 s;"));
  for (int i = 0; i < 250; ++i) {
    agent.LogEvent(MakeBid(static_cast<RequestId>(i), 100, 1, 1.0));
    agent.LogEvent(MakeImpression(static_cast<RequestId>(i), 101, 4));
  }
  std::vector<EventBatch> batches = agent.Flush(200);
  ASSERT_EQ(batches.size(), 2u);
  std::sort(batches.begin(), batches.end(),
            [](const EventBatch& a, const EventBatch& b) {
              return a.query_id < b.query_id;
            });
  EXPECT_EQ(batches[0].query_id, 1u);
  EXPECT_EQ(batches[0].format, BatchFormat::kColumnar);
  EXPECT_EQ(batches[0].event_count, 250u);
  EXPECT_EQ(batches[1].query_id, 2u);
  EXPECT_EQ(batches[1].format, BatchFormat::kColumnarJoin);
  EXPECT_EQ(batches[1].event_count, 500u);
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

// --- Shared staging ---------------------------------------------------------
//
// The agent appends an event to its type's shared staging batch once, however
// many queries accept it, and each query keeps only a selection vector of row
// indices. Sharing must be invisible per query: every query's batches, stats
// and modeled cost equal those of an agent carrying that query alone.

// One step of a scripted host: log an event, flush at a time, or remove a
// query.
struct Step {
  std::optional<Event> event;
  TimeMicros flush_at = -1;
  QueryId remove = 0;
};

void ExpectSameStats(const AgentQueryStats& a, const AgentQueryStats& b) {
  EXPECT_EQ(a.events_considered, b.events_considered);
  EXPECT_EQ(a.events_sampled_out, b.events_sampled_out);
  EXPECT_EQ(a.events_filtered, b.events_filtered);
  EXPECT_EQ(a.events_staged, b.events_staged);
  EXPECT_EQ(a.events_dropped, b.events_dropped);
  EXPECT_EQ(a.events_shipped, b.events_shipped);
  EXPECT_EQ(a.batches_sent, b.batches_sent);
  EXPECT_EQ(a.batches_retransmitted, b.batches_retransmitted);
  EXPECT_EQ(a.batches_acked, b.batches_acked);
  EXPECT_EQ(a.batches_expired, b.batches_expired);
  EXPECT_EQ(a.batches_evicted, b.batches_evicted);
  EXPECT_EQ(a.events_abandoned, b.events_abandoned);
  EXPECT_EQ(a.last_encodings, b.last_encodings);
  EXPECT_EQ(a.source_types, b.source_types);
}

void ExpectSameCounters(const std::vector<WindowCounter>& a,
                        const std::vector<WindowCounter>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].window_start, b[i].window_start);
    EXPECT_EQ(a[i].seen, b[i].seen);
    EXPECT_EQ(a[i].sampled, b[i].sampled);
    EXPECT_EQ(a[i].shed, b[i].shed);
  }
}

// Batches of one scripted run, grouped by query in flush order.
using BatchesByQuery = std::map<QueryId, std::vector<EventBatch>>;

// Runs `steps` through `agent`, returning the LogEvent charge of each logged
// event in order.
std::vector<int64_t> RunScript(ScrubAgent& agent,
                               const std::vector<Step>& steps,
                               BatchesByQuery* out) {
  std::vector<int64_t> charges;
  for (const Step& step : steps) {
    if (step.event.has_value()) {
      charges.push_back(agent.LogEvent(*step.event));
    } else if (step.remove != 0) {
      agent.RemoveQuery(step.remove);
    } else {
      for (EventBatch& b : agent.Flush(step.flush_at)) {
        (*out)[b.query_id].push_back(std::move(b));
      }
    }
  }
  return charges;
}

// Batches one query shipped in a scripted run (empty if none).
const std::vector<EventBatch>& BatchesOf(const BatchesByQuery& batches,
                                         QueryId query_id) {
  static const std::vector<EventBatch> kNone;
  const auto it = batches.find(query_id);
  return it == batches.end() ? kNone : it->second;
}

// Runs `steps` through one agent carrying every plan and through one solo
// agent per plan (a solo agent skips removals of other queries), and expects
// per-query equality of payload bytes, counters, seq, format, event count
// and stats, plus cost neutrality: each logged event's shared charge is the
// log() floor plus every solo agent's charge above that floor, and so is the
// meter total. Returns the shared run's batches in `shared_batches`.
void ExpectSharedMatchesSolo(const AgentConfig& config,
                             const std::vector<HostPlan>& plans,
                             const std::vector<Step>& steps,
                             BatchesByQuery* shared_batches) {
  CostMeter shared_meter;
  ScrubAgent shared(/*host=*/3, &shared_meter, config, /*sampling_seed=*/99);
  for (const HostPlan& plan : plans) {
    shared.InstallQuery(plan);
  }
  const std::vector<int64_t> shared_ns =
      RunScript(shared, steps, shared_batches);

  CostMeter floor_meter;
  ScrubAgent bare(/*host=*/3, &floor_meter, config, /*sampling_seed=*/99);
  BatchesByQuery none;
  const std::vector<int64_t> floor_ns = RunScript(bare, steps, &none);
  EXPECT_TRUE(none.empty());

  std::vector<int64_t> expected_ns = floor_ns;
  int64_t expected_meter = floor_meter.scrub_ns();
  for (const HostPlan& plan : plans) {
    SCOPED_TRACE(testing::Message() << "query " << plan.query_id);
    CostMeter solo_meter;
    ScrubAgent solo(/*host=*/3, &solo_meter, config, /*sampling_seed=*/99);
    solo.InstallQuery(plan);
    std::vector<Step> solo_steps;
    for (const Step& step : steps) {
      if (step.remove == 0 || step.remove == plan.query_id) {
        solo_steps.push_back(step);
      }
    }
    BatchesByQuery solo_batches;
    const std::vector<int64_t> solo_ns =
        RunScript(solo, solo_steps, &solo_batches);
    for (size_t i = 0; i < solo_ns.size(); ++i) {
      expected_ns[i] += solo_ns[i] - floor_ns[i];
    }
    expected_meter += solo_meter.scrub_ns() - floor_meter.scrub_ns();

    const std::vector<EventBatch>& want =
        BatchesOf(solo_batches, plan.query_id);
    const std::vector<EventBatch>& got =
        BatchesOf(*shared_batches, plan.query_id);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "batch " << i);
      EXPECT_EQ(got[i].seq, want[i].seq);
      EXPECT_EQ(got[i].format, want[i].format);
      EXPECT_EQ(got[i].event_count, want[i].event_count);
      EXPECT_EQ(got[i].payload, want[i].payload);
      ExpectSameCounters(got[i].counters, want[i].counters);
    }
    const AgentQueryStats* got_stats = shared.StatsFor(plan.query_id);
    const AgentQueryStats* want_stats = solo.StatsFor(plan.query_id);
    ASSERT_EQ(got_stats == nullptr, want_stats == nullptr);
    if (got_stats != nullptr) {
      ExpectSameStats(*got_stats, *want_stats);
    }
  }
  EXPECT_EQ(shared_ns, expected_ns);
  EXPECT_EQ(shared_meter.scrub_ns(), expected_meter);
}

// Expects the query's single flush to report `shed` events shed.
void ExpectShed(const BatchesByQuery& batches, QueryId query_id,
                uint64_t shed) {
  const std::vector<EventBatch>& shipped = BatchesOf(batches, query_id);
  ASSERT_EQ(shipped.size(), 1u);
  ASSERT_EQ(shipped[0].counters.size(), 1u);
  EXPECT_EQ(shipped[0].counters[0].shed, shed);
}

Step Log(Event e) { return Step{std::move(e), -1, 0}; }
Step FlushAt(TimeMicros t) { return Step{std::nullopt, t, 0}; }
Step Remove(QueryId id) { return Step{std::nullopt, -1, id}; }

TEST_F(AgentTest, SharedStagingMatchesSoloAgents) {
  const std::vector<HostPlan> plans = {
      PlanFor("SELECT bid.user_id, COUNT(*) FROM bid WHERE bid.price > 2.0 "
              "GROUP BY bid.user_id WINDOW 1 s DURATION 60 s;"),
      // A different predicate, projection and span (retires mid-script).
      PlanFor("SELECT bid.country, SUM(bid.price) FROM bid "
              "WHERE bid.user_id = 7 GROUP BY bid.country "
              "WINDOW 1 s START 2 s DURATION 6 s;"),
      // No predicate; projects nothing.
      PlanFor("SELECT COUNT(*) FROM bid WINDOW 2 s DURATION 60 s;"),
      // A join sharing its bid source with the single-source queries. Its
      // span opens later, so its rows are not a prefix of the shared batch.
      PlanFor("SELECT impression.line_item_id, COUNT(*) FROM bid, impression "
              "WHERE bid.price > 2.0 GROUP BY impression.line_item_id "
              "WINDOW 1 s START 1 s DURATION 59 s;"),
      PlanFor("SELECT impression.line_item_id, COUNT(*) FROM impression "
              "WHERE impression.line_item_id > 0 "
              "GROUP BY impression.line_item_id WINDOW 1 s DURATION 60 s;"),
  };
  const char* countries[] = {"US", "DE", "FR", nullptr};
  std::vector<Step> steps;
  for (int i = 0; i < 60; ++i) {
    const TimeMicros ts = i * 200 * kMicrosPerMilli;
    const auto rid = static_cast<RequestId>(i / 2 + 1);
    steps.push_back(Log(MakeBidFrom(rid, ts, 5 + i % 4, 0.75 * (i % 7),
                                    countries[i % 4])));
    if (i % 3 == 0) {
      steps.push_back(Log(MakeImpression(rid, ts + 1, i % 5)));
    }
    if (i == 20 || i == 45) {
      steps.push_back(FlushAt(ts + 2));
    }
  }
  steps.push_back(FlushAt(15 * kMicrosPerSecond));
  AgentConfig config;
  config.max_batch_events = 5;  // chunking, join chunks included
  BatchesByQuery batches;
  ExpectSharedMatchesSolo(config, plans, steps, &batches);
  // Every query shipped data; the join shipped columnar join chunks.
  for (const HostPlan& plan : plans) {
    EXPECT_FALSE(BatchesOf(batches, plan.query_id).empty());
  }
  ASSERT_FALSE(BatchesOf(batches, plans[3].query_id).empty());
  EXPECT_EQ(BatchesOf(batches, plans[3].query_id)[0].format,
            BatchFormat::kColumnarJoin);
}

TEST_F(AgentTest, SharedStagingShedsPerQuery) {
  const std::vector<HostPlan> plans = {
      PlanFor("SELECT bid.user_id, COUNT(*) FROM bid GROUP BY bid.user_id "
              "WINDOW 60 s DURATION 60 s;"),
      // Its span opens later, so it stages fewer rows than the first query.
      PlanFor("SELECT COUNT(*) FROM bid WINDOW 30 s START 1 s DURATION 59 s;"),
  };
  std::vector<Step> steps;
  for (int i = 0; i < 8; ++i) {
    steps.push_back(Log(MakeBid(static_cast<RequestId>(i + 1),
                                i * 300 * kMicrosPerMilli, 1, 1.0)));
  }
  steps.push_back(FlushAt(3 * kMicrosPerSecond));

  // Row cap: five rows each.
  AgentConfig rows;
  rows.staging_capacity = 5;
  BatchesByQuery batches;
  ExpectSharedMatchesSolo(rows, plans, steps, &batches);
  ExpectShed(batches, plans[0].query_id, 3);
  ExpectShed(batches, plans[1].query_id, 0);

  // Byte budget: three full-size events each.
  AgentConfig bytes;
  bytes.staging_budget_bytes = 3 * MakeBid(1, 0, 1, 1.0).WireSize();
  batches.clear();
  ExpectSharedMatchesSolo(bytes, plans, steps, &batches);
  ExpectShed(batches, plans[0].query_id, 5);
  ExpectShed(batches, plans[1].query_id, 1);
}

TEST_F(AgentTest, SharedStagingRestartsAfterFlush) {
  const std::vector<HostPlan> plans = {
      PlanFor("SELECT bid.user_id, COUNT(*) FROM bid GROUP BY bid.user_id "
              "WINDOW 1 s DURATION 60 s;"),
      PlanFor("SELECT bid.country, COUNT(*) FROM bid GROUP BY bid.country "
              "WINDOW 1 s DURATION 60 s;"),
  };
  // Both queries stage every bid, yet each bid is held once.
  for (const HostPlan& plan : plans) {
    agent_.InstallQuery(plan);
  }
  for (int i = 1; i <= 3; ++i) {
    agent_.LogEvent(MakeBid(static_cast<RequestId>(i), 10 + i, i, 1.0));
  }
  EXPECT_EQ(agent_.shared_staged_events(), 3u);
  EXPECT_EQ(agent_.Flush(1000).size(), 2u);
  EXPECT_EQ(agent_.shared_staged_events(), 0u);

  std::vector<Step> steps;
  for (int i = 1; i <= 3; ++i) {
    steps.push_back(Log(MakeBid(static_cast<RequestId>(i), 10 + i, i, 1.0)));
  }
  steps.push_back(FlushAt(1000));
  for (int i = 4; i <= 5; ++i) {
    steps.push_back(
        Log(MakeBid(static_cast<RequestId>(i), 2000 + i, i, 1.0)));
  }
  steps.push_back(FlushAt(3000));
  BatchesByQuery batches;
  ExpectSharedMatchesSolo({}, plans, steps, &batches);
  for (const HostPlan& plan : plans) {
    const std::vector<EventBatch>& shipped = BatchesOf(batches, plan.query_id);
    ASSERT_EQ(shipped.size(), 2u);
    // The second flush ships only the events logged since the first.
    Result<ColumnBatch> second = DecodeColumnBatch(registry_,
                                                   shipped[1].payload);
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    ASSERT_EQ(second->rows(), 2u);
    EXPECT_EQ(second->request_id(0), 4u);
    EXPECT_EQ(second->request_id(1), 5u);
  }
}

TEST_F(AgentTest, RemoveQueryKeepsOtherQueriesStaged) {
  const std::vector<HostPlan> plans = {
      PlanFor("SELECT bid.user_id, COUNT(*) FROM bid GROUP BY bid.user_id "
              "WINDOW 1 s DURATION 60 s;"),
      PlanFor("SELECT impression.line_item_id, COUNT(*) FROM bid, impression "
              "WHERE bid.price > 2.0 GROUP BY impression.line_item_id "
              "WINDOW 1 s DURATION 60 s;"),
      PlanFor("SELECT bid.country, COUNT(*) FROM bid GROUP BY bid.country "
              "WINDOW 1 s DURATION 60 s;"),
  };
  std::vector<Step> steps;
  for (int i = 1; i <= 6; ++i) {
    steps.push_back(Log(MakeBid(static_cast<RequestId>(i), 10 + i, i, i)));
    steps.push_back(Log(MakeImpression(static_cast<RequestId>(i), 20 + i, i)));
  }
  steps.push_back(Remove(plans[0].query_id));
  steps.push_back(FlushAt(1000));
  BatchesByQuery batches;
  ExpectSharedMatchesSolo({}, plans, steps, &batches);
  EXPECT_TRUE(BatchesOf(batches, plans[0].query_id).empty());
  ASSERT_EQ(BatchesOf(batches, plans[1].query_id).size(), 1u);
  EXPECT_EQ(BatchesOf(batches, plans[1].query_id)[0].event_count, 10u);
  ASSERT_EQ(BatchesOf(batches, plans[2].query_id).size(), 1u);
  EXPECT_EQ(BatchesOf(batches, plans[2].query_id)[0].event_count, 6u);
}

TEST_F(AgentTest, SchemaDriftInSharedColumnKeepsDecodedRows) {
  // The drifted value (a string where the schema declares a double) is
  // staged only for `early`: it falls outside `late`'s span. It still boxes
  // the shared price column, so `late` encodes that column generically —
  // different bytes, the same decoded rows as its solo agent.
  const HostPlan early = PlanFor(
      "SELECT bid.user_id, COUNT(*) FROM bid GROUP BY bid.user_id "
      "WINDOW 1 s DURATION 5 s;");
  const HostPlan late = PlanFor(
      "SELECT bid.user_id, SUM(bid.price) FROM bid WHERE bid.price > 2.0 "
      "GROUP BY bid.user_id WINDOW 1 s START 5 s DURATION 10 s;");
  Event drifted = MakeBid(1, kMicrosPerSecond, 1, 0.0);
  drifted.SetField(1, Value("not-a-price"));
  const std::vector<Event> events = {
      drifted,
      MakeBid(2, 6 * kMicrosPerSecond, 2, 3.0),
      MakeBid(3, 6 * kMicrosPerSecond + 1, 3, 1.0),  // filtered
      MakeBid(4, 7 * kMicrosPerSecond, 4, 4.5),
  };

  CostMeter shared_meter;
  ScrubAgent shared(/*host=*/3, &shared_meter, AgentConfig{}, 99);
  shared.InstallQuery(early);
  shared.InstallQuery(late);
  CostMeter solo_meter;
  ScrubAgent solo(/*host=*/3, &solo_meter, AgentConfig{}, 99);
  solo.InstallQuery(late);
  for (const Event& e : events) {
    shared.LogEvent(e);
    solo.LogEvent(e);
  }
  const EventBatch* got = nullptr;
  std::vector<EventBatch> shared_batches = shared.Flush(8 * kMicrosPerSecond);
  for (const EventBatch& b : shared_batches) {
    if (b.query_id == late.query_id) {
      got = &b;
    }
  }
  std::vector<EventBatch> solo_batches = solo.Flush(8 * kMicrosPerSecond);
  ASSERT_NE(got, nullptr);
  ASSERT_EQ(solo_batches.size(), 1u);
  const EventBatch& want = solo_batches[0];
  EXPECT_EQ(got->event_count, 2u);
  EXPECT_EQ(got->event_count, want.event_count);
  EXPECT_NE(got->payload, want.payload);  // generic vs. plain double column

  Result<ColumnBatch> got_rows = DecodeColumnBatch(registry_, got->payload);
  Result<ColumnBatch> want_rows = DecodeColumnBatch(registry_, want.payload);
  ASSERT_TRUE(got_rows.ok()) << got_rows.status().ToString();
  ASSERT_TRUE(want_rows.ok()) << want_rows.status().ToString();
  ASSERT_EQ(got_rows->rows(), want_rows->rows());
  for (size_t r = 0; r < got_rows->rows(); ++r) {
    EXPECT_EQ(got_rows->request_id(r), want_rows->request_id(r));
    EXPECT_EQ(got_rows->timestamp(r), want_rows->timestamp(r));
    for (size_t f = 0; f < got_rows->column_count(); ++f) {
      EXPECT_EQ(got_rows->ValueAt(f, r), want_rows->ValueAt(f, r))
          << "row " << r << " field " << f;
    }
  }
  ExpectSameStats(*shared.StatsFor(late.query_id),
                  *solo.StatsFor(late.query_id));
}

}  // namespace
}  // namespace scrub
