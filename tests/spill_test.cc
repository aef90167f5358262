// Chaos stress suite for graceful degradation under memory pressure
// (DESIGN.md §13): budgeted window state, lossless defer-and-replay spill,
// and honest shed accounting.
//
// The contract under test, from strongest to weakest rung of the ladder:
//
//  1. Spill is LOSSLESS: with a spill directory configured, a state budget
//     of half or an eighth of the unbounded run's working set produces a
//     byte-identical result transcript — same rows, same order, same float
//     bits — because deferred events replay through the ordinary fold path
//     in arrival order at window close.
//  2. Shed is HONEST: when spill is unavailable (no directory), exhausted
//     (byte cap), or failing (injected I/O faults), events are counted shed
//     and every affected window's rows carry fidelity < 1 — never a crash,
//     never a silently wrong answer presented as complete.
//  3. Degradation is DETERMINISTIC: transcripts stay byte-identical across
//     worker counts with spill engaged, because budget charges use logical
//     event sizes, not container capacities, and a spilled run still
//     matches the naive oracle in tests/reference_executor.h.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/bidsim/schemas.h"
#include "src/central/central.h"
#include "src/central/sharded_central.h"
#include "src/common/rng.h"
#include "src/common/spill.h"
#include "src/common/strings.h"
#include "src/event/wire.h"
#include "src/query/analyzer.h"
#include "src/scrub/scrub_system.h"
#include "tests/reference_executor.h"

namespace scrub {
namespace {

// Full-precision rendering: any divergence in values, order, completeness
// or fidelity fails loudly.
std::string RenderRow(const ResultRow& row) {
  return StrFormat("q%llu %s c=%.17g f=%.17g",
                   static_cast<unsigned long long>(row.query_id),
                   row.ToString().c_str(), row.completeness, row.fidelity);
}

// A per-test-case scratch directory under the gtest temp root; SpillManager
// mkdir -p's it on Configure.
std::string SpillDir(const std::string& label) {
  return ::testing::TempDir() + "scrub_spill_" + label;
}

// ---------------------------------------------------------------------------
// ScrubCentral directly: high-cardinality GROUP BY plus an equi-join, the
// two state shapes the accountant charges.
// ---------------------------------------------------------------------------

class SpillCentralTest : public ::testing::Test {
 protected:
  SpillCentralTest() {
    bid_schema_ = *EventSchema::Builder("bid")
                       .AddField("user_id", FieldType::kLong)
                       .AddField("price", FieldType::kDouble)
                       .Build();
    imp_schema_ = *EventSchema::Builder("impression")
                       .AddField("cost", FieldType::kDouble)
                       .Build();
    EXPECT_TRUE(registry_.Register(bid_schema_).ok());
    EXPECT_TRUE(registry_.Register(imp_schema_).ok());
  }

  CentralPlan PlanFor(std::string_view text, QueryId id) {
    Result<AnalyzedQuery> aq = ParseAndAnalyze(text, registry_);
    EXPECT_TRUE(aq.ok()) << aq.status().ToString();
    Result<QueryPlan> plan = PlanQuery(*aq, id, 0);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    CentralPlan central = plan->central;
    central.hosts_targeted = 1;
    central.hosts_sampled = 1;
    return central;
  }

  struct RunOutcome {
    std::vector<std::string> transcript;
    size_t group_peak = 0;       // accountant peak of the grouped query
    size_t join_peak = 0;        // accountant peak of the join query
    CentralQueryStats group_stats;
    CentralQueryStats join_stats;
    SpillStats spill;
  };

  // One deterministic multi-host, multi-tick workload: ~1500 distinct group
  // keys per window plus matched join pairs, interleaved with ticks so
  // window closes race ingestion.
  RunOutcome Run(CentralConfig config) {
    config.track_state_bytes = true;  // always measure, optionally budget
    ScrubCentral central(&registry_, config);
    const CentralPlan grouped = PlanFor(
        "SELECT bid.user_id, COUNT(*), SUM(bid.price), AVG(bid.price) "
        "FROM bid GROUP BY bid.user_id WINDOW 1 s DURATION 10 s;",
        1);
    const CentralPlan joined = PlanFor(
        "SELECT COUNT(*), SUM(impression.cost) FROM bid, impression "
        "WINDOW 1 s DURATION 10 s;",
        2);
    RunOutcome out;
    auto sink = [&out](const ResultRow& row) {
      out.transcript.push_back(RenderRow(row));
    };
    EXPECT_TRUE(central.InstallQuery(grouped, sink).ok());
    EXPECT_TRUE(central.InstallQuery(joined, sink).ok());

    Rng rng(42);
    uint64_t seq = 1;
    RequestId rid = 1;
    for (int tick = 0; tick < 8; ++tick) {
      const TimeMicros now = (tick + 1) * 500 * kMicrosPerMilli;
      for (HostId host = 0; host < 4; ++host) {
        std::vector<Event> group_events;
        std::vector<Event> join_events;
        for (int i = 0; i < 60; ++i) {
          const TimeMicros ts = tick * 500 * kMicrosPerMilli +
                                static_cast<TimeMicros>(rng.NextBelow(500'000));
          Event e(bid_schema_, rng.NextUint64(), ts);
          e.SetField(0, Value(static_cast<int64_t>(rng.NextBelow(1500))));
          e.SetField(1, Value(rng.NextDouble() * 5));
          group_events.push_back(std::move(e));
          if (i % 3 == 0) {  // matched pair on a fresh request id
            Event b(bid_schema_, rid, ts);
            b.SetField(0, Value(static_cast<int64_t>(rng.NextBelow(1500))));
            b.SetField(1, Value(rng.NextDouble() * 5));
            join_events.push_back(std::move(b));
            Event m(imp_schema_, rid, ts);
            m.SetField(0, Value(rng.NextDouble() * 0.01));
            join_events.push_back(std::move(m));
            ++rid;
          }
        }
        for (auto* events : {&group_events, &join_events}) {
          EventBatch batch;
          batch.query_id =
              events == &group_events ? grouped.query_id : joined.query_id;
          batch.host = host;
          batch.seq = seq++;
          batch.event_count = events->size();
          batch.payload = EncodeBatch(*events);
          EXPECT_TRUE(central.IngestBatch(batch, now).ok());
        }
      }
      central.OnTick(now);
      // Peaks persist in the accountant, but sample mid-run anyway so the
      // numbers reflect live-window state, not only the final close.
      out.group_peak =
          std::max(out.group_peak, central.accountant().peak(grouped.query_id));
      out.join_peak =
          std::max(out.join_peak, central.accountant().peak(joined.query_id));
    }
    central.OnTick(60 * kMicrosPerSecond);
    out.group_peak =
        std::max(out.group_peak, central.accountant().peak(grouped.query_id));
    out.join_peak =
        std::max(out.join_peak, central.accountant().peak(joined.query_id));
    const CentralQueryStats* gs = central.StatsFor(grouped.query_id);
    const CentralQueryStats* js = central.StatsFor(joined.query_id);
    EXPECT_NE(gs, nullptr);
    EXPECT_NE(js, nullptr);
    if (gs != nullptr) {
      out.group_stats = *gs;
    }
    if (js != nullptr) {
      out.join_stats = *js;
    }
    out.spill = central.spill_stats();
    EXPECT_FALSE(out.transcript.empty());
    return out;
  }

  SchemaRegistry registry_;
  SchemaPtr bid_schema_;
  SchemaPtr imp_schema_;
};

TEST_F(SpillCentralTest, SpillIsByteIdenticalAtHalfAndEighthBudget) {
  const RunOutcome unbounded = Run(CentralConfig{});
  ASSERT_GT(unbounded.group_peak, 0u);
  ASSERT_GT(unbounded.join_peak, 0u);
  EXPECT_EQ(unbounded.group_stats.events_spilled, 0u);
  EXPECT_EQ(unbounded.group_stats.events_shed, 0u);
  EXPECT_DOUBLE_EQ(unbounded.group_stats.fidelity_min, 1.0);

  const size_t working_set =
      std::max(unbounded.group_peak, unbounded.join_peak);
  for (const size_t divisor : {size_t{2}, size_t{8}}) {
    CentralConfig config;
    config.query_state_budget_bytes = working_set / divisor;
    config.spill_dir = SpillDir(StrFormat("identity_%zu", divisor));
    config.spill_instance = StrFormat("central_d%zu", divisor);
    const RunOutcome budgeted = Run(config);
    EXPECT_EQ(budgeted.transcript, unbounded.transcript)
        << "budget = 1/" << divisor << " of working set";
    // Pressure really engaged, losslessly: spilled yes, shed no.
    EXPECT_GT(budgeted.group_stats.events_spilled, 0u)
        << "budget = 1/" << divisor;
    EXPECT_EQ(budgeted.group_stats.events_shed, 0u);
    EXPECT_EQ(budgeted.join_stats.events_shed, 0u);
    EXPECT_DOUBLE_EQ(budgeted.group_stats.fidelity_min, 1.0);
    EXPECT_EQ(budgeted.group_stats.windows_lossy, 0u);
    // Every run opened was replayed and discarded; no files leak.
    EXPECT_EQ(budgeted.spill.runs_opened, budgeted.spill.runs_discarded);
    EXPECT_EQ(budgeted.spill.records_written,
              budgeted.spill.records_replayed);
    EXPECT_EQ(budgeted.spill.write_failures, 0u);
    EXPECT_EQ(budgeted.spill.read_failures, 0u);
  }
}

// The join query's batches are mixed-type kRow payloads, decoded to
// per-type columnar sections; its spill records are EncodeEvent rows
// replayed through one-row columnar chunks. Budgeting at the JOIN's own
// working set (the grouped query's is larger, so the test above may not
// push the join at all) must still reproduce the unbudgeted transcript.
TEST_F(SpillCentralTest, RowFedJoinSpillIsByteIdenticalAtHalfAndEighthBudget) {
  const RunOutcome unbounded = Run(CentralConfig{});
  ASSERT_GT(unbounded.join_peak, 0u);
  for (const size_t divisor : {size_t{2}, size_t{8}}) {
    CentralConfig config;
    config.query_state_budget_bytes = unbounded.join_peak / divisor;
    config.spill_dir = SpillDir(StrFormat("join_identity_%zu", divisor));
    config.spill_instance = StrFormat("central_j%zu", divisor);
    const RunOutcome budgeted = Run(config);
    EXPECT_EQ(budgeted.transcript, unbounded.transcript)
        << "budget = 1/" << divisor << " of the join's working set";
    EXPECT_GT(budgeted.join_stats.events_spilled, 0u)
        << "budget = 1/" << divisor;
    EXPECT_EQ(budgeted.join_stats.events_shed, 0u);
    EXPECT_EQ(budgeted.join_stats.tuples_joined,
              unbounded.join_stats.tuples_joined);
    EXPECT_EQ(budgeted.join_stats.join_orphans,
              unbounded.join_stats.join_orphans);
    EXPECT_EQ(budgeted.spill.records_written,
              budgeted.spill.records_replayed);
  }
}

TEST_F(SpillCentralTest, NoSpillDirectoryDegradesToCountedShed) {
  const RunOutcome unbounded = Run(CentralConfig{});
  CentralConfig config;
  config.query_state_budget_bytes =
      std::max(unbounded.group_peak, unbounded.join_peak) / 8;
  // No spill_dir: the ladder bottoms out at counted shed.
  const RunOutcome shed = Run(config);
  EXPECT_GT(shed.group_stats.events_shed, 0u);
  EXPECT_GT(shed.group_stats.windows_lossy, 0u);
  EXPECT_LT(shed.group_stats.fidelity_min, 1.0);
  EXPECT_EQ(shed.group_stats.events_spilled, 0u);
  // The lossy windows advertise it on their rows.
  bool saw_fidelity_marker = false;
  for (const std::string& row : shed.transcript) {
    saw_fidelity_marker |= row.find("[fidelity") != std::string::npos;
  }
  EXPECT_TRUE(saw_fidelity_marker);
}

TEST_F(SpillCentralTest, InjectedWriteFailuresBecomeCountedShed) {
  const RunOutcome unbounded = Run(CentralConfig{});
  CentralConfig config;
  config.query_state_budget_bytes =
      std::max(unbounded.group_peak, unbounded.join_peak) / 8;
  config.spill_dir = SpillDir("write_fault");
  config.spill_faults.write_fail = 0.5;
  config.spill_seed = 77;
  const RunOutcome faulty = Run(config);
  // Both rungs active at once: some records spilled and replayed, the
  // injected failures counted shed — never a crash, never silent loss.
  EXPECT_GT(faulty.spill.write_failures, 0u);
  EXPECT_GT(faulty.group_stats.spill_write_failures +
                faulty.join_stats.spill_write_failures,
            0u);
  EXPECT_GT(faulty.group_stats.events_spilled, 0u);
  EXPECT_GT(faulty.group_stats.events_shed, 0u);
  EXPECT_LT(faulty.group_stats.fidelity_min, 1.0);
  EXPECT_GT(faulty.group_stats.windows_lossy, 0u);
}

TEST_F(SpillCentralTest, InjectedReadFailuresShedTheLostRemainder) {
  const RunOutcome unbounded = Run(CentralConfig{});
  CentralConfig config;
  config.query_state_budget_bytes =
      std::max(unbounded.group_peak, unbounded.join_peak) / 8;
  config.spill_dir = SpillDir("read_fault");
  config.spill_faults.read_fail = 1.0;  // every replay dies on record one
  config.spill_seed = 78;
  const RunOutcome faulty = Run(config);
  EXPECT_GT(faulty.spill.read_failures, 0u);
  EXPECT_GT(faulty.group_stats.spill_read_failures +
                faulty.join_stats.spill_read_failures,
            0u);
  // Everything written was lost at replay and counted shed.
  EXPECT_GT(faulty.group_stats.events_spilled, 0u);
  EXPECT_GE(faulty.group_stats.events_shed,
            faulty.group_stats.events_spilled);
  EXPECT_LT(faulty.group_stats.fidelity_min, 1.0);
}

TEST_F(SpillCentralTest, SpillByteCapFallsBackToShed) {
  const RunOutcome unbounded = Run(CentralConfig{});
  CentralConfig config;
  config.query_state_budget_bytes =
      std::max(unbounded.group_peak, unbounded.join_peak) / 8;
  config.spill_dir = SpillDir("byte_cap");
  config.max_spill_bytes_per_query = 4096;  // a few records, then exhausted
  const RunOutcome capped = Run(config);
  EXPECT_GT(capped.group_stats.events_spilled, 0u);
  EXPECT_LE(capped.group_stats.spill_bytes, 4096u + 1024u);
  EXPECT_GT(capped.group_stats.events_shed, 0u);
  EXPECT_LT(capped.group_stats.fidelity_min, 1.0);
}

TEST_F(SpillCentralTest, TinyBudgetStressStaysLosslessAndLeakFree) {
  // check.sh drives this with SCRUB_SPILL_STRESS_DIVISOR=64 under
  // ASan+UBSan: a budget a tiny fraction of the working set forces nearly
  // every event through the spill path, and the run must still be lossless,
  // byte-identical, and leak no spill files.
  size_t divisor = 32;
  if (const char* env = std::getenv("SCRUB_SPILL_STRESS_DIVISOR")) {
    divisor = static_cast<size_t>(std::max(1, std::atoi(env)));
  }
  const RunOutcome unbounded = Run(CentralConfig{});
  CentralConfig config;
  config.query_state_budget_bytes = std::max<size_t>(
      1, std::max(unbounded.group_peak, unbounded.join_peak) / divisor);
  config.spill_dir = SpillDir("stress");
  config.spill_instance = "central_stress";
  const RunOutcome stressed = Run(config);
  EXPECT_EQ(stressed.transcript, unbounded.transcript)
      << "divisor=" << divisor;
  EXPECT_GT(stressed.group_stats.events_spilled, 0u);
  EXPECT_EQ(stressed.group_stats.events_shed, 0u);
  EXPECT_EQ(stressed.spill.runs_opened, stressed.spill.runs_discarded);
}

TEST_F(SpillCentralTest, ShedNeverInflatesAggregatesAboveTruth) {
  // Counted shed must subtract work, not corrupt it: every COUNT in the
  // shedding run is <= the unbounded run's count for the same group/window.
  const RunOutcome unbounded = Run(CentralConfig{});
  CentralConfig config;
  config.query_state_budget_bytes =
      std::max(unbounded.group_peak, unbounded.join_peak) / 8;
  const RunOutcome shed = Run(config);
  EXPECT_LE(shed.transcript.size(), unbounded.transcript.size());
  const uint64_t attempted =
      shed.group_stats.events_shed + shed.group_stats.events_spilled;
  EXPECT_GT(attempted, 0u);
}

// ---------------------------------------------------------------------------
// ShardedCentral: per-shard spill under the coordinator merge.
// ---------------------------------------------------------------------------

class SpillShardedTest : public SpillCentralTest {
 protected:
  std::vector<std::string> RunSharded(size_t workers, CentralConfig config) {
    config.track_state_bytes = true;
    ShardedCentral central(&registry_, /*shards=*/4, config, workers);
    const CentralPlan grouped = PlanFor(
        "SELECT bid.user_id, COUNT(*), SUM(bid.price) FROM bid "
        "GROUP BY bid.user_id WINDOW 1 s DURATION 10 s;",
        1);
    std::vector<std::string> transcript;
    auto sink = [&transcript](const ResultRow& row) {
      transcript.push_back(RenderRow(row));
    };
    EXPECT_TRUE(central.InstallQuery(grouped, sink).ok());
    Rng rng(43);
    uint64_t seq = 1;
    for (int tick = 0; tick < 8; ++tick) {
      const TimeMicros now = (tick + 1) * 500 * kMicrosPerMilli;
      std::vector<EventBatch> batches;
      for (HostId host = 0; host < 4; ++host) {
        std::vector<Event> events;
        for (int i = 0; i < 60; ++i) {
          Event e(bid_schema_, rng.NextUint64(),
                  tick * 500 * kMicrosPerMilli +
                      static_cast<TimeMicros>(rng.NextBelow(500'000)));
          e.SetField(0, Value(static_cast<int64_t>(rng.NextBelow(1500))));
          e.SetField(1, Value(rng.NextDouble() * 5));
          events.push_back(std::move(e));
        }
        EventBatch batch;
        batch.query_id = grouped.query_id;
        batch.host = host;
        batch.seq = seq++;
        batch.event_count = events.size();
        batch.payload = EncodeBatch(events);
        batches.push_back(std::move(batch));
      }
      EXPECT_TRUE(central.IngestBatches(batches, now).ok());
      central.OnTick(now);
    }
    central.OnTick(60 * kMicrosPerSecond);
    EXPECT_FALSE(transcript.empty());
    return transcript;
  }
};

TEST_F(SpillShardedTest, ShardSpillIsByteIdenticalAcrossWorkerCounts) {
  const std::vector<std::string> unbounded = RunSharded(0, CentralConfig{});
  CentralConfig config;
  // A deliberately tiny per-shard budget: every shard spills every window.
  config.query_state_budget_bytes = 8 * 1024;
  config.spill_dir = SpillDir("sharded");
  const std::vector<std::string> reference = RunSharded(0, config);
  EXPECT_EQ(reference, unbounded);  // spill stays lossless behind the router
  EXPECT_EQ(RunSharded(2, config), reference);
  EXPECT_EQ(RunSharded(8, config), reference);
}

TEST_F(SpillShardedTest, ShardShedSurfacesFidelityAtTheCoordinator) {
  CentralConfig config;
  config.query_state_budget_bytes = 8 * 1024;  // no spill_dir: shed
  const std::vector<std::string> reference = RunSharded(0, config);
  bool saw_fidelity_marker = false;
  for (const std::string& row : reference) {
    saw_fidelity_marker |= row.find("[fidelity") != std::string::npos;
  }
  EXPECT_TRUE(saw_fidelity_marker);
  // Deterministic degradation: the lossy transcript is still byte-stable.
  EXPECT_EQ(RunSharded(8, config), reference);
}

// ---------------------------------------------------------------------------
// Full ScrubSystem: budgets + spill + agent staging pressure end to end.
// ---------------------------------------------------------------------------

constexpr const char* kSpillQuery =
    "SELECT bid.user_id, COUNT(*), SUM(bid.bid_price) FROM bid "
    "GROUP BY bid.user_id WINDOW 1 s DURATION 3 s;";

struct SystemOutcome {
  QueryId id = 0;
  std::vector<std::string> transcript;
  std::vector<ResultRow> rows;
  std::vector<Event> tapped;  // ground truth at the log() call
  std::string describe;
  std::string explain_analyze;
  CentralQueryStats stats;
  size_t peak = 0;
};

// `load_start` > 0 starts traffic only after the install has reached every
// agent, so the tapped ground truth is exactly the stream the agents saw.
SystemOutcome RunSpillSystem(size_t workers, size_t central_budget,
                             const std::string& spill_dir,
                             size_t staging_budget = 0,
                             SpillFaultSpec spill_faults = {},
                             TimeMicros load_start = 0) {
  SystemConfig config;
  config.seed = 7;
  config.platform.seed = 7;
  config.platform.bidservers_per_dc = 3;
  config.platform.adservers_per_dc = 1;
  config.platform.presentation_per_dc = 1;
  config.platform.num_campaigns = 3;
  config.platform.line_items_per_campaign = 3;
  config.workers = workers;
  config.central.track_state_bytes = true;
  config.central.query_state_budget_bytes = central_budget;
  config.central.spill_dir = spill_dir;
  config.agent.staging_budget_bytes = staging_budget;
  config.faults.spill = spill_faults;
  ScrubSystem system(config);
  PoissonLoadConfig load;
  load.requests_per_second = 200;
  load.start = load_start;
  load.duration = 3 * kMicrosPerSecond;
  system.workload().SchedulePoissonLoad(load);
  SystemOutcome out;
  system.SetEventTap(
      [&out](HostId, const Event& event) { out.tapped.push_back(event); });
  auto submitted =
      system.Submit(kSpillQuery, [&out](const ResultRow& row) {
        out.rows.push_back(row);
        out.transcript.push_back(RenderRow(row));
      });
  EXPECT_TRUE(submitted.ok()) << submitted.status().ToString();
  const QueryId id = submitted.ok() ? submitted->id : 0;
  out.id = id;
  system.RunUntil(2 * kMicrosPerSecond);
  out.explain_analyze = system.ExplainAnalyze(id);  // while still installed
  // Peak must be read while the query is installed: retirement's ReleaseAll
  // drops the accountant entry. Two of the three windows have closed by
  // now, so this is the sustained working set.
  out.peak = system.central().accountant().peak(id);
  system.RunUntil(4 * kMicrosPerSecond);
  system.Drain();
  out.describe = system.DescribeQuery(id);
  const CentralQueryStats* stats = system.central().StatsFor(id);
  EXPECT_NE(stats, nullptr);
  if (stats != nullptr) {
    out.stats = *stats;
  }
  EXPECT_FALSE(out.transcript.empty());
  return out;
}

TEST(SpillSystemTest, BudgetedRunMatchesUnboundedAcrossWorkers) {
  const SystemOutcome unbounded = RunSpillSystem(0, 0, "");
  ASSERT_GT(unbounded.peak, 0u);
  const size_t budget = unbounded.peak / 8;
  const std::string dir = SpillDir("system");
  for (const size_t workers : {size_t{0}, size_t{2}, size_t{8}}) {
    const SystemOutcome budgeted = RunSpillSystem(workers, budget, dir);
    EXPECT_EQ(budgeted.transcript, unbounded.transcript)
        << "workers=" << workers;
    EXPECT_EQ(budgeted.stats.events_shed, 0u);
    // The budget was real: every run under pressure spilled.
    EXPECT_GT(budgeted.stats.events_spilled, 0u) << "workers=" << workers;
  }
}

TEST(SpillSystemTest, SpilledRunMatchesReferenceExecutor) {
  // Deferred events replay through the ordinary fold at window close; the
  // rows must equal the naive oracle over the ground-truth stream: COUNT
  // exact, SUM to float tolerance.
  const TimeMicros load_start = 300 * kMicrosPerMilli;
  const SystemOutcome unbounded = RunSpillSystem(0, 0, "", 0, {}, load_start);
  ASSERT_GT(unbounded.peak, 0u);
  const SystemOutcome spilled =
      RunSpillSystem(0, unbounded.peak / 8, SpillDir("system_oracle"), 0, {},
                     load_start);
  ASSERT_GT(spilled.stats.events_spilled, 0u);
  ASSERT_EQ(spilled.stats.events_shed, 0u);
  ASSERT_EQ(spilled.stats.events_late, 0u);

  SchemaRegistry schemas;
  ASSERT_TRUE(RegisterBidsimSchemas(&schemas).ok());
  Result<AnalyzedQuery> analyzed = ParseAndAnalyze(kSpillQuery, schemas);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  Result<QueryPlan> plan = PlanQuery(*analyzed, spilled.id, 0);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ReferenceExecutor oracle(*analyzed, plan->central);
  for (const Event& event : spilled.tapped) {
    oracle.Observe(event);
  }
  std::map<std::string, const ResultRow*> want;
  const std::vector<ResultRow> oracle_rows = oracle.Execute();
  for (const ResultRow& row : oracle_rows) {
    want[StrFormat("w%lld %s", static_cast<long long>(row.window_start),
                   row.values[0].ToString().c_str())] = &row;
  }
  ASSERT_EQ(spilled.rows.size(), oracle_rows.size());
  for (const ResultRow& row : spilled.rows) {
    const std::string key =
        StrFormat("w%lld %s", static_cast<long long>(row.window_start),
                  row.values[0].ToString().c_str());
    ASSERT_TRUE(want.count(key) > 0) << "unexpected row " << key;
    const ResultRow& truth = *want[key];
    EXPECT_EQ(row.values[1].ToString(), truth.values[1].ToString()) << key;
    const double sum = truth.values[2].AsNumber();
    EXPECT_NEAR(row.values[2].AsNumber(), sum, 1e-6 * (1.0 + std::fabs(sum)))
        << key;
  }
}

TEST(SpillSystemTest, InjectedSpillFaultNeverCrashesAndDentsFidelity) {
  const SystemOutcome unbounded =
      RunSpillSystem(0, 0, "");
  SpillFaultSpec faults;
  faults.write_fail = 0.7;
  const SystemOutcome faulty = RunSpillSystem(
      0, unbounded.peak / 8, SpillDir("system_fault"),
      /*staging_budget=*/0, faults);
  EXPECT_GT(faulty.stats.spill_write_failures, 0u);
  EXPECT_GT(faulty.stats.events_shed, 0u);
  EXPECT_LT(faulty.stats.fidelity_min, 1.0);
  EXPECT_NE(faulty.describe.find("pressure:"), std::string::npos);
  EXPECT_NE(faulty.describe.find("fidelity:"), std::string::npos);
}

TEST(SpillSystemTest, AgentStagingBudgetShedIsCountedIntoFidelity) {
  const SystemOutcome pressured = RunSpillSystem(
      0, 0, "", /*staging_budget=*/2 * 1024);
  EXPECT_GT(pressured.stats.agent_events_shed, 0u);
  EXPECT_LT(pressured.stats.fidelity_min, 1.0);
  EXPECT_NE(pressured.describe.find("agent_shed="), std::string::npos);
  bool saw_fidelity_marker = false;
  for (const std::string& row : pressured.transcript) {
    saw_fidelity_marker |= row.find("[fidelity") != std::string::npos;
  }
  EXPECT_TRUE(saw_fidelity_marker);
}

TEST(SpillSystemTest, AgentStagingShedIsDeterministicAcrossWorkers) {
  const SystemOutcome reference = RunSpillSystem(
      0, 0, "", /*staging_budget=*/2 * 1024);
  for (const size_t workers : {size_t{2}, size_t{8}}) {
    const SystemOutcome other = RunSpillSystem(
        workers, 0, "", /*staging_budget=*/2 * 1024);
    EXPECT_EQ(other.transcript, reference.transcript)
        << "workers=" << workers;
  }
}

TEST(SpillSystemTest, ExplainAnalyzeReportsBudgetsAndSpill) {
  const SystemOutcome unbounded =
      RunSpillSystem(0, 0, "");
  const SystemOutcome budgeted = RunSpillSystem(
      0, unbounded.peak / 8, SpillDir("system_explain"));
  EXPECT_NE(budgeted.explain_analyze.find("state bytes:"), std::string::npos);
  EXPECT_NE(budgeted.explain_analyze.find("budget="), std::string::npos);
  EXPECT_NE(budgeted.explain_analyze.find("spill:"), std::string::npos);
  EXPECT_NE(budgeted.describe.find("join_shed="), std::string::npos);
  // Unbudgeted, tracking-only runs still report usage but no spill section.
  EXPECT_NE(unbounded.explain_analyze.find("state bytes:"), std::string::npos);
}

}  // namespace
}  // namespace scrub
