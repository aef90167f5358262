// Differential testing: the full Scrub pipeline (host instrumentation →
// agent selection/projection/batching → transport → central join/group/
// aggregate/window) against the naive single-threaded oracle in
// reference_executor.h, over randomized bidding workloads.
//
// Each combo runs a real ScrubSystem with an event tap recording the ground
// truth exactly as hosts log it, then replays that stream through the
// oracle and compares row sets:
//
//  * exact columns (group keys, COUNT, MIN/MAX) must match byte-for-byte;
//  * SUM/AVG must match to float tolerance (accumulation order differs);
//  * COUNT_DISTINCT must land within the HLL error envelope
//    (precision 14: sigma = 1.04/sqrt(2^14) ~ 0.8% relative; we allow 5
//    sigma, floored at +/-2 for tiny cardinalities where the sketch is in
//    its exact linear-counting regime);
//  * TOPK entries must carry exact counts (SpaceSaving is exact while
//    capacity >= distinct keys, which these workloads guarantee) and form
//    a valid top-k of the true ranking, tolerating tie reordering.
//
// The load starts 300 ms into the simulation so query dissemination is
// complete before the first ground-truth event is logged: the tap and the
// agents then observe exactly the same stream.

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/central/sharded_central.h"
#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/event/wire.h"
#include "src/scrub/scrub_system.h"
#include "tests/reference_executor.h"

namespace scrub {
namespace {

struct Combo {
  const char* query;
  uint64_t seed;
  double rps = 250.0;
  TimeMicros horizon = 4 * kMicrosPerSecond;
};

std::vector<std::pair<std::string, double>> ParseTopK(const Value& v) {
  std::vector<std::pair<std::string, double>> out;
  EXPECT_TRUE(v.is_list()) << v.ToString();
  if (!v.is_list()) {
    return out;
  }
  for (const Value& entry : v.AsList()) {
    const std::string s = entry.AsString();
    const size_t colon = s.rfind(':');
    EXPECT_NE(colon, std::string::npos) << s;
    out.emplace_back(s.substr(0, colon), std::stod(s.substr(colon + 1)));
  }
  return out;
}

// Scrub's TOPK list vs the oracle's full exact ranking.
void CheckTopK(const Value& scrub_v, const Value& oracle_v, int64_t k,
               const std::string& where) {
  const auto got = ParseTopK(scrub_v);
  const auto truth = ParseTopK(oracle_v);
  const size_t expect_size =
      std::min(static_cast<size_t>(k), truth.size());
  ASSERT_EQ(got.size(), expect_size) << where;
  std::map<std::string, double> truth_counts;
  for (const auto& [key, count] : truth) {
    truth_counts[key] = count;
  }
  double min_returned = 0.0;
  std::map<std::string, bool> returned;
  for (const auto& [key, count] : got) {
    ASSERT_TRUE(truth_counts.count(key) > 0) << where << " key " << key;
    // Counts are exact: capacity >= distinct keys in these workloads.
    EXPECT_DOUBLE_EQ(count, truth_counts[key]) << where << " key " << key;
    returned[key] = true;
    min_returned = returned.size() == 1 ? count
                                        : std::min(min_returned, count);
  }
  // Valid top-k under ties: nothing excluded may outrank anything returned.
  for (const auto& [key, count] : truth) {
    if (returned.count(key) == 0) {
      EXPECT_LE(count, min_returned) << where << " excluded key " << key;
    }
  }
}

// One full ScrubSystem run through the requested pipeline.
struct PipelineRun {
  std::vector<Event> tapped;      // ground truth at the log() call
  std::vector<ResultRow> rows;    // emission order
  std::vector<std::string> transcript;  // full-precision rendering of rows
  QueryId query_id = 0;
  SchemaRegistry* schemas = nullptr;
};

// Full-precision rendering: any cross-run divergence (a float summed in a
// different order, a reordered emission) must fail loudly.
std::string RenderRow(const ResultRow& row) {
  return StrFormat("w%lld %s c=%.17g",
                   static_cast<long long>(row.window_start),
                   row.ToString().c_str(), row.completeness);
}

// Builds and drives one system; returned so the caller can keep its schema
// registry alive for the oracle replay. `regions` > 0 inserts the regional
// combiner tier between the agents and central.
std::unique_ptr<ScrubSystem> RunPipeline(const Combo& combo,
                                         PipelineRun* out,
                                         size_t regions = 0,
                                         size_t workers = 0) {
  SystemConfig config;
  config.seed = combo.seed;
  config.platform.seed = combo.seed;
  config.platform.bidservers_per_dc = 3;
  config.platform.adservers_per_dc = 2;
  config.platform.presentation_per_dc = 1;
  config.platform.num_campaigns = 3;
  config.platform.line_items_per_campaign = 3;
  config.combiner_regions = regions;
  config.workers = workers;
  auto system = std::make_unique<ScrubSystem>(config);

  // Ground truth: every event every live host logs, before any Scrub-side
  // selection, projection or batching.
  system->SetEventTap([out](HostId, const Event& event) {
    out->tapped.push_back(event);
  });

  auto submitted = system->Submit(combo.query, [out](const ResultRow& row) {
    out->rows.push_back(row);
    out->transcript.push_back(RenderRow(row));
  });
  EXPECT_TRUE(submitted.ok()) << submitted.status().ToString();
  if (!submitted.ok()) {
    return system;
  }
  out->query_id = submitted->id;

  // Load begins only after the install (submitted at t=0) has reached every
  // agent, so tap and agents see the identical stream.
  PoissonLoadConfig load;
  load.requests_per_second = combo.rps;
  load.start = 300 * kMicrosPerMilli;
  load.duration = combo.horizon - kMicrosPerSecond - load.start;
  system->workload().SchedulePoissonLoad(load);

  system->RunUntil(combo.horizon);
  system->Drain();

  // The oracle comparison below assumes nothing was dropped for lateness.
  // Combiner-handled queries keep their stats at the partial coordinator.
  const CentralQueryStats* stats = system->central().StatsFor(submitted->id);
  if (stats == nullptr && system->hierarchical()) {
    stats = system->coordinator()->StatsFor(submitted->id);
  }
  EXPECT_NE(stats, nullptr);
  if (stats != nullptr) {
    EXPECT_EQ(stats->events_late, 0u);
  }
  return system;
}

// Replays `run`'s tapped ground truth through the naive oracle and checks
// the pipeline's rows column-by-column under the per-kind checks.
void CompareToOracle(const Combo& combo, const PipelineRun& run,
                     const SchemaRegistry& schemas) {
  const std::vector<ResultRow>& scrub_rows = run.rows;

  // Oracle: re-derive the plan the server built (submit time was 0) and
  // replay the tap through the naive executor.
  AnalyzerOptions options;
  Result<AnalyzedQuery> analyzed =
      ParseAndAnalyze(combo.query, schemas, options);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  Result<QueryPlan> plan = PlanQuery(*analyzed, run.query_id, 0);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ReferenceExecutor oracle(*analyzed, plan->central);
  for (const Event& event : run.tapped) {
    oracle.Observe(event);
  }
  const std::vector<ResultRow> oracle_rows = oracle.Execute();
  ASSERT_FALSE(scrub_rows.empty());

  // Raw mode: row multisets must match exactly.
  if (!plan->central.aggregate_mode) {
    auto rendered = [](const std::vector<ResultRow>& rows) {
      std::vector<std::string> out;
      out.reserve(rows.size());
      for (const ResultRow& r : rows) {
        out.push_back(r.ToString());
      }
      std::sort(out.begin(), out.end());
      return out;
    };
    EXPECT_EQ(rendered(scrub_rows), rendered(oracle_rows));
    return;
  }

  // Aggregate mode: match rows by (window, group-key columns), then compare
  // column by column under the oracle's per-column check.
  const std::vector<ColumnCheck> checks = oracle.ColumnChecks();
  const std::vector<OutputColumn>& outputs = plan->central.outputs;
  auto row_key = [&](const ResultRow& row) {
    std::string key = std::to_string(row.window_start);
    for (size_t i = 0; i < outputs.size(); ++i) {
      if (outputs[i].expr.kind == OutputKind::kGroupKey) {
        key += "\x1f" + row.values[i].ToString();
      }
    }
    return key;
  };
  std::map<std::string, const ResultRow*> oracle_by_key;
  for (const ResultRow& row : oracle_rows) {
    oracle_by_key[row_key(row)] = &row;
  }
  ASSERT_EQ(scrub_rows.size(), oracle_rows.size());
  for (const ResultRow& row : scrub_rows) {
    const std::string key = row_key(row);
    ASSERT_TRUE(oracle_by_key.count(key) > 0) << "unexpected row " << key;
    const ResultRow& truth = *oracle_by_key[key];
    EXPECT_DOUBLE_EQ(row.completeness, 1.0) << key;
    ASSERT_EQ(row.values.size(), truth.values.size());
    for (size_t i = 0; i < row.values.size(); ++i) {
      const std::string where =
          key + " column " + std::to_string(i) + " (" + outputs[i].name + ")";
      switch (checks[i]) {
        case ColumnCheck::kExact:
          EXPECT_EQ(row.values[i].ToString(), truth.values[i].ToString())
              << where;
          break;
        case ColumnCheck::kApproxDouble: {
          if (truth.values[i].is_null()) {
            EXPECT_TRUE(row.values[i].is_null()) << where;
            break;
          }
          const double got = row.values[i].AsNumber();
          const double want = truth.values[i].AsNumber();
          EXPECT_NEAR(got, want, 1e-6 * (1.0 + std::fabs(want))) << where;
          break;
        }
        case ColumnCheck::kDistinctEstimate: {
          const double exact =
              static_cast<double>(truth.values[i].AsInt());
          const double est = static_cast<double>(row.values[i].AsInt());
          // 5 sigma of the precision-14 HLL, floored for tiny sets.
          const double tol =
              std::max(2.0, 5.0 * 1.04 / std::sqrt(16384.0) * exact);
          EXPECT_NEAR(est, exact, tol) << where;
          break;
        }
        case ColumnCheck::kTopK: {
          int64_t k = 0;
          for (const AggregateSpec& spec : plan->central.aggregates) {
            if (spec.func == AggregateFunc::kTopK) {
              k = spec.topk_k;
            }
          }
          CheckTopK(row.values[i], truth.values[i], k, where);
          break;
        }
      }
    }
  }
}

void RunCombo(const Combo& combo) {
  SCOPED_TRACE(combo.query);

  PipelineRun flat_run;
  std::unique_ptr<ScrubSystem> flat_system;
  {
    SCOPED_TRACE("flat topology");
    flat_system = RunPipeline(combo, &flat_run);
  }
  CompareToOracle(combo, flat_run, flat_system->schemas());

  // Whether flat-vs-hierarchical transcripts can be byte-compared: COUNT /
  // MIN / MAX finals are order-independent bit-for-bit, while SUM / AVG
  // accumulate floats in a different order across the tier and sketches are
  // envelope-checked — those still go through the oracle below.
  AnalyzerOptions options;
  Result<AnalyzedQuery> analyzed =
      ParseAndAnalyze(combo.query, flat_system->schemas(), options);
  ASSERT_TRUE(analyzed.ok());
  Result<QueryPlan> plan = PlanQuery(*analyzed, flat_run.query_id, 0);
  ASSERT_TRUE(plan.ok());
  bool exact_transcript = true;
  for (const AggregateSpec& spec : plan->central.aggregates) {
    if (spec.func != AggregateFunc::kCount &&
        spec.func != AggregateFunc::kMin &&
        spec.func != AggregateFunc::kMax) {
      exact_transcript = false;
    }
  }

  // The same combo through the regional combiner tier, at several region
  // counts (4 regions over 2 DCs exercises multiple combiners per DC).
  // Every topology must satisfy the oracle; exact-aggregate topologies must
  // reproduce the flat transcript byte-for-byte.
  for (const size_t regions : {size_t{1}, size_t{2}, size_t{4}}) {
    SCOPED_TRACE(StrFormat("hierarchical, %zu regions", regions));
    PipelineRun hier_run;
    std::unique_ptr<ScrubSystem> hier_system =
        RunPipeline(combo, &hier_run, regions);
    ASSERT_EQ(hier_run.tapped.size(), flat_run.tapped.size());
    CompareToOracle(combo, hier_run, hier_system->schemas());
    if (exact_transcript) {
      EXPECT_EQ(hier_run.transcript, flat_run.transcript);
    }
  }
}

// ~10 query x workload x seed combos across the feature surface.

TEST(DifferentialTest, UngroupedCount) {
  RunCombo({"SELECT COUNT(*) FROM bid WINDOW 1 s DURATION 3 s;", 101});
}

TEST(DifferentialTest, GroupedMultiAggregate) {
  RunCombo(
      {"SELECT bid.campaign_id, COUNT(*), SUM(bid.bid_price), "
       "AVG(bid.bid_price), MIN(bid.bid_price), MAX(bid.bid_price) "
       "FROM bid GROUP BY bid.campaign_id WINDOW 1 s DURATION 3 s;",
       202});
}

TEST(DifferentialTest, WhereFilterOnDouble) {
  RunCombo(
      {"SELECT COUNT(*), SUM(bid.bid_price) FROM bid "
       "WHERE bid.bid_price > 1.0 WINDOW 1 s DURATION 3 s;",
       303});
}

TEST(DifferentialTest, RawProjection) {
  RunCombo(
      {"SELECT bid.campaign_id, bid.bid_price FROM bid "
       "WHERE bid.bid_price > 2.0 WINDOW 1 s DURATION 3 s;",
       404, /*rps=*/120.0});
}

TEST(DifferentialTest, JoinGroupedCount) {
  RunCombo(
      {"SELECT impression.line_item_id, COUNT(*) FROM bid, impression "
       "GROUP BY impression.line_item_id WINDOW 1 s DURATION 3 s;",
       505});
}

TEST(DifferentialTest, JoinWithCrossSourceAggregate) {
  RunCombo(
      {"SELECT impression.campaign_id, SUM(bid.bid_price), "
       "AVG(impression.cost) FROM bid, impression "
       "GROUP BY impression.campaign_id WINDOW 1 s DURATION 3 s;",
       606});
}

TEST(DifferentialTest, JoinAcrossWorkerCounts) {
  // The join (per-source kColumnarJoin sections + staging interleave)
  // against the oracle, then at every worker count: workers > 0 re-buckets
  // the join slice per request id across shards, and each transcript must
  // still match the inline run byte for byte.
  const Combo combo = {
      "SELECT impression.line_item_id, COUNT(*), SUM(bid.bid_price) "
      "FROM bid, impression GROUP BY impression.line_item_id "
      "WINDOW 1 s DURATION 3 s;",
      707};
  PipelineRun inline_run;
  std::unique_ptr<ScrubSystem> inline_system;
  {
    SCOPED_TRACE("inline (0 workers)");
    inline_system = RunPipeline(combo, &inline_run);
  }
  CompareToOracle(combo, inline_run, inline_system->schemas());
  for (const size_t workers : {size_t{2}, size_t{8}}) {
    SCOPED_TRACE(StrFormat("%zu workers", workers));
    PipelineRun run;
    RunPipeline(combo, &run, /*regions=*/0, workers);
    ASSERT_EQ(run.tapped.size(), inline_run.tapped.size());
    EXPECT_EQ(run.transcript, inline_run.transcript);
  }
}

TEST(DifferentialTest, CountDistinctUsers) {
  RunCombo(
      {"SELECT COUNT_DISTINCT(bid.user_id) FROM bid "
       "WINDOW 1 s DURATION 3 s;",
       707, /*rps=*/400.0});
}

TEST(DifferentialTest, TopKLineItems) {
  RunCombo(
      {"SELECT TOPK(3, bid.line_item_id) FROM bid WINDOW 1 s DURATION 3 s;",
       808});
}

TEST(DifferentialTest, SlidingWindowCount) {
  RunCombo({"SELECT COUNT(*) FROM bid WINDOW 2 s SLIDE 1 s DURATION 4 s;",
            909, /*rps=*/250.0, /*horizon=*/5 * kMicrosPerSecond});
}

TEST(DifferentialTest, OutputExpressionOverAggregates) {
  RunCombo(
      {"SELECT 1000 * AVG(bid.bid_price) + COUNT(*) FROM bid "
       "WINDOW 1 s DURATION 3 s;",
       1010});
}

TEST(DifferentialTest, GroupedSeedVariant) {
  RunCombo(
      {"SELECT bid.campaign_id, COUNT(*), SUM(bid.bid_price), "
       "AVG(bid.bid_price), MIN(bid.bid_price), MAX(bid.bid_price) "
       "FROM bid GROUP BY bid.campaign_id WINDOW 1 s DURATION 3 s;",
       1111, /*rps=*/500.0});
}

// ---------------------------------------------------------------------------
// Sampled queries on shards: ShardedCentral's coordinator-level Eq. 1-3
// estimates against the unsampled oracle over the full pre-sampling stream.
//
// The fleet here is simulated directly (no ScrubSystem): H hosts each log a
// full event stream; a per-host coin decides which events ship, and each
// batch carries the per-window {seen, sampled} counters an agent would
// attach. The oracle replays the COMPLETE stream through the unsampled twin
// of the query, so the comparison is estimate-vs-ground-truth, not
// estimate-vs-itself. COUNT/SUM must land inside their reported 95%
// envelope (a small miss quota covers the 5% the interval concedes by
// construction); AVG ships unscaled and must sit near the true mean.
// ---------------------------------------------------------------------------

class ShardedSampledDifferentialTest : public ::testing::Test {
 protected:
  ShardedSampledDifferentialTest() {
    bid_schema_ = *EventSchema::Builder("bid")
                       .AddField("user_id", FieldType::kLong)
                       .AddField("price", FieldType::kDouble)
                       .Build();
    EXPECT_TRUE(registry_.Register(bid_schema_).ok());
  }

  CentralPlan PlanFor(std::string_view text, QueryId id, uint64_t targeted,
                      uint64_t sampled) {
    AnalyzerOptions options;
    Result<AnalyzedQuery> aq = ParseAndAnalyze(text, registry_, options);
    EXPECT_TRUE(aq.ok()) << aq.status().ToString();
    Result<QueryPlan> plan = PlanQuery(*aq, id, 0);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    CentralPlan central = plan->central;
    central.hosts_targeted = targeted;
    central.hosts_sampled = sampled;
    return central;
  }

  // One full-stream per host: `per_host` bids spread over [100, 8 s).
  std::vector<std::vector<Event>> FleetStreams(size_t hosts, int per_host,
                                               uint64_t seed, int64_t users) {
    std::vector<std::vector<Event>> streams(hosts);
    for (size_t h = 0; h < hosts; ++h) {
      Rng rng(seed + h * 1001);
      for (int i = 0; i < per_host; ++i) {
        Event e(bid_schema_, rng.NextUint64(),
                100 + static_cast<TimeMicros>(rng.NextBelow(8'000'000)));
        e.SetField(0, Value(static_cast<int64_t>(
                          rng.NextBelow(static_cast<uint64_t>(users)))));
        e.SetField(1, Value(rng.NextDouble() * 5));
        streams[h].push_back(std::move(e));
      }
    }
    return streams;
  }

  // Ships the per-host sampled slice (shipped[h] selects events) plus the
  // agent-style per-window counters, then closes every window.
  std::vector<ResultRow> RunSampledSharded(
      const CentralPlan& plan, const std::vector<std::vector<Event>>& streams,
      const std::vector<std::vector<bool>>& shipped, size_t shards,
      size_t workers, std::vector<std::string>* transcript = nullptr) {
    ShardedCentral central(&registry_, shards, CentralConfig{}, workers);
    std::vector<ResultRow> rows;
    EXPECT_TRUE(central
                    .InstallQuery(plan,
                                  [&](const ResultRow& row) {
                                    rows.push_back(row);
                                    if (transcript != nullptr) {
                                      transcript->push_back(RenderRow(row));
                                    }
                                  })
                    .ok());
    std::vector<EventBatch> batches;
    for (size_t h = 0; h < streams.size(); ++h) {
      if (shipped[h].empty()) {
        continue;  // host not selected by the host-sampling stage
      }
      std::vector<Event> kept;
      std::map<TimeMicros, WindowCounter> counters;
      for (size_t i = 0; i < streams[h].size(); ++i) {
        const Event& e = streams[h][i];
        const TimeMicros w =
            plan.start_time +
            ((e.timestamp() - plan.start_time) / plan.window_micros) *
                plan.window_micros;
        WindowCounter& c = counters[w];
        c.window_start = w;
        ++c.seen;
        if (shipped[h][i]) {
          ++c.sampled;
          kept.push_back(e);
        }
      }
      EventBatch batch;
      batch.query_id = plan.query_id;
      batch.host = static_cast<HostId>(h);
      batch.event_count = kept.size();
      batch.payload = EncodeBatch(kept);
      for (const auto& [w, c] : counters) {
        batch.counters.push_back(c);
      }
      batches.push_back(std::move(batch));
    }
    EXPECT_TRUE(central.IngestBatches(batches, 0).ok());
    central.OnTick(60 * kMicrosPerSecond);
    return rows;
  }

  // Oracle truth rows for the UNSAMPLED twin of the query over every event
  // every host logged, keyed like RunCombo: window |group-key columns.
  std::map<std::string, ResultRow> OracleRows(
      std::string_view unsampled_text,
      const std::vector<std::vector<Event>>& streams) {
    AnalyzerOptions options;
    Result<AnalyzedQuery> aq =
        ParseAndAnalyze(unsampled_text, registry_, options);
    EXPECT_TRUE(aq.ok()) << aq.status().ToString();
    Result<QueryPlan> plan = PlanQuery(*aq, /*query_id=*/999, 0);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    oracle_outputs_ = plan->central.outputs;
    ReferenceExecutor oracle(*aq, plan->central);
    for (const std::vector<Event>& stream : streams) {
      for (const Event& e : stream) {
        oracle.Observe(e);
      }
    }
    std::map<std::string, ResultRow> by_key;
    for (const ResultRow& row : oracle.Execute()) {
      by_key[RowKey(row)] = row;
    }
    return by_key;
  }

  std::string RowKey(const ResultRow& row) const {
    std::string key = std::to_string(row.window_start);
    for (size_t i = 0; i < oracle_outputs_.size(); ++i) {
      if (oracle_outputs_[i].expr.kind == OutputKind::kGroupKey) {
        key += "\x1f" + row.values[i].ToString();
      }
    }
    return key;
  }

  SchemaRegistry registry_;
  SchemaPtr bid_schema_;
  std::vector<OutputColumn> oracle_outputs_;
};

TEST_F(ShardedSampledDifferentialTest, EventSampledGroupedCountSumAvg) {
  const char* sampled_text =
      "SELECT bid.user_id, COUNT(*), SUM(bid.price), AVG(bid.price) "
      "FROM bid GROUP BY bid.user_id WINDOW 2 s DURATION 10 s "
      "SAMPLE EVENTS 50%;";
  const char* unsampled_text =
      "SELECT bid.user_id, COUNT(*), SUM(bid.price), AVG(bid.price) "
      "FROM bid GROUP BY bid.user_id WINDOW 2 s DURATION 10 s;";
  const size_t kHosts = 8;
  const auto streams = FleetStreams(kHosts, 400, 424242, 5);

  // The event-sampling coin, flipped per event exactly like an agent would.
  std::vector<std::vector<bool>> shipped(kHosts);
  for (size_t h = 0; h < kHosts; ++h) {
    Rng coin(7000 + h);
    shipped[h].resize(streams[h].size());
    for (size_t i = 0; i < streams[h].size(); ++i) {
      shipped[h][i] = coin.NextDouble() < 0.5;
    }
  }

  const CentralPlan plan =
      PlanFor(sampled_text, 42, /*targeted=*/kHosts, /*sampled=*/kHosts);
  std::vector<std::string> transcript0;
  const std::vector<ResultRow> rows =
      RunSampledSharded(plan, streams, shipped, /*shards=*/3,
                        /*workers=*/0, &transcript0);
  const std::map<std::string, ResultRow> truth =
      OracleRows(unsampled_text, streams);
  ASSERT_FALSE(rows.empty());

  // Worker count must stay a pure performance knob for sampled plans too.
  std::vector<std::string> transcript2;
  RunSampledSharded(plan, streams, shipped, /*shards=*/3, /*workers=*/2,
                    &transcript2);
  EXPECT_EQ(transcript2, transcript0);

  // Columns: 0 = user_id, 1 = COUNT (bounded), 2 = SUM (bounded),
  // 3 = AVG (unscaled, no bound).
  size_t bounded_checks = 0;
  size_t bounded_hits = 0;
  double est_total_count = 0.0;
  double true_total_count = 0.0;
  for (const ResultRow& row : rows) {
    const std::string key = RowKey(row);
    ASSERT_TRUE(truth.count(key) > 0) << "group not in oracle: " << key;
    const ResultRow& t = truth.at(key);
    for (const size_t col : {size_t{1}, size_t{2}}) {
      const double got = row.values[col].AsNumber();
      const double want = t.values[col].AsNumber();
      EXPECT_GT(row.error_bounds[col], 0.0) << key;
      EXPECT_TRUE(std::isfinite(row.error_bounds[col])) << key;
      ++bounded_checks;
      if (std::fabs(got - want) <= row.error_bounds[col]) {
        ++bounded_hits;
      }
    }
    est_total_count += row.values[1].AsNumber();
    true_total_count += t.values[1].AsNumber();
    // AVG: unscaled sample mean of the shipped events — near the true mean,
    // no error bound.
    EXPECT_DOUBLE_EQ(row.error_bounds[3], 0.0) << key;
    if (!t.values[3].is_null() && !row.values[3].is_null()) {
      const double want_avg = t.values[3].AsNumber();
      EXPECT_NEAR(row.values[3].AsNumber(), want_avg,
                  0.30 * (1.0 + std::fabs(want_avg)))
          << key;
    }
  }
  // 95% intervals concede ~5% misses; demand at least 85% coverage.
  EXPECT_GE(bounded_hits, (bounded_checks * 85) / 100)
      << bounded_hits << "/" << bounded_checks << " inside the bound";
  // The fleet-wide COUNT estimate must sit close to the truth.
  EXPECT_NEAR(est_total_count, true_total_count, 0.10 * true_total_count);
}

TEST_F(ShardedSampledDifferentialTest, HostSampledUngroupedCountSum) {
  const char* sampled_text =
      "SELECT COUNT(*), SUM(bid.price) FROM bid "
      "WINDOW 2 s DURATION 10 s SAMPLE HOSTS 50%;";
  const char* unsampled_text =
      "SELECT COUNT(*), SUM(bid.price) FROM bid "
      "WINDOW 2 s DURATION 10 s;";
  const size_t kHosts = 8;
  const auto streams = FleetStreams(kHosts, 300, 99, 4);

  // Host sampling: the even hosts ship EVERY event; the odd hosts ship
  // nothing at all (not even counters) — the coordinator must scale by
  // hosts_targeted / hosts_sampled and bound from host-stage variance.
  std::vector<std::vector<bool>> shipped(kHosts);
  for (size_t h = 0; h < kHosts; h += 2) {
    shipped[h].assign(streams[h].size(), true);
  }

  const CentralPlan plan =
      PlanFor(sampled_text, 43, /*targeted=*/kHosts, /*sampled=*/kHosts / 2);
  const std::vector<ResultRow> rows = RunSampledSharded(
      plan, streams, shipped, /*shards=*/2, /*workers=*/0);
  const std::map<std::string, ResultRow> truth =
      OracleRows(unsampled_text, streams);
  ASSERT_FALSE(rows.empty());

  size_t misses = 0;
  for (const ResultRow& row : rows) {
    const std::string key = RowKey(row);
    ASSERT_TRUE(truth.count(key) > 0) << key;
    const ResultRow& t = truth.at(key);
    for (const size_t col : {size_t{0}, size_t{1}}) {
      EXPECT_GT(row.error_bounds[col], 0.0) << key;
      if (std::fabs(row.values[col].AsNumber() - t.values[col].AsNumber()) >
          row.error_bounds[col]) {
        ++misses;
      }
    }
  }
  // 5 windows x 2 bounded columns at 95% confidence: allow one miss.
  EXPECT_LE(misses, 1u);
}

// ---------------------------------------------------------------------------
// Format matrix. Central decodes every batch format to one columnar form
// (DecodeColumnSlice), so one event stream shipped as kRow (single- and
// mixed-type batches), kColumnar or kColumnarJoin must fold to byte-identical
// transcripts and CentralQueryStats counters — in ScrubCentral and in
// ShardedCentral at every shard and worker count. Operator metrics are
// compared on rows and batches (their CPU readings are wall-clock noise).
// ---------------------------------------------------------------------------

class FormatMatrixTest : public ::testing::Test {
 protected:
  // How one run ships its batches.
  enum class Arm {
    kRow,           // every batch kRow (one or several types)
    kColumnar,      // kColumnar for one type, kColumnarJoin for several
    kColumnarJoin,  // every batch kColumnarJoin (one-section ones too)
    kAlternating,   // even batches as kRow, odd ones as kColumnar
  };

  struct HostBatch {
    HostId host = 0;
    std::vector<Event> events;  // arrival order; may mix types
  };

  struct Outcome {
    std::vector<std::string> transcript;
    std::vector<std::string> stats;  // one line per instance
  };

  FormatMatrixTest() {
    bid_ = *EventSchema::Builder("bid")
                .AddField("user_id", FieldType::kLong)
                .AddField("price", FieldType::kDouble)
                .AddField("exchange", FieldType::kString)
                .Build();
    imp_ = *EventSchema::Builder("impression")
                .AddField("line_item_id", FieldType::kLong)
                .AddField("cost", FieldType::kDouble)
                .Build();
    EXPECT_TRUE(registry_.Register(bid_).ok());
    EXPECT_TRUE(registry_.Register(imp_).ok());
  }

  Event Bid(Rng& rng, RequestId rid, TimeMicros ts) const {
    Event e(bid_, rid, ts);
    e.SetField(0, Value(static_cast<int64_t>(rng.NextBelow(6))));
    if (!rng.NextBool(0.1)) {  // a few null prices: aggregates skip them
      e.SetField(1, Value(rng.NextDouble() * 5));
    }
    e.SetField(2, Value(rng.NextBool(0.5) ? "adx" : "openx"));
    return e;
  }

  // 3 hosts x 8 rounds of bids, round r stamped in [r/2 s, (r+1)/2 s).
  std::vector<HostBatch> BidStream() const {
    Rng rng(17);
    std::vector<HostBatch> stream;
    for (int round = 0; round < 8; ++round) {
      for (HostId host = 0; host < 3; ++host) {
        HostBatch hb{host, {}};
        for (int i = 0; i < 40; ++i) {
          hb.events.push_back(Bid(rng, rng.NextUint64(), Stamp(rng, round)));
        }
        stream.push_back(std::move(hb));
      }
    }
    return stream;
  }

  // Host 0 ships bids, host 1 their impressions, host 2 both interleaved in
  // one batch. Two of three requests get an impression; the rest are join
  // orphans.
  std::vector<HostBatch> JoinStream() const {
    Rng rng(31);
    std::vector<HostBatch> stream;
    for (int round = 0; round < 8; ++round) {
      std::vector<HostBatch> hosts = {{0, {}}, {1, {}}, {2, {}}};
      for (int i = 0; i < 60; ++i) {
        const RequestId rid = rng.NextUint64();
        const TimeMicros ts = Stamp(rng, round);
        HostBatch& bids = hosts[i % 2 == 0 ? 0 : 2];
        HostBatch& imps = hosts[i % 2 == 0 ? 1 : 2];
        bids.events.push_back(Bid(rng, rid, ts));
        if (i % 3 != 0) {
          Event imp(imp_, rid, ts);
          imp.SetField(0, Value(static_cast<int64_t>(rng.NextBelow(4))));
          imp.SetField(1, Value(rng.NextDouble()));
          imps.events.push_back(std::move(imp));
        }
      }
      for (HostBatch& hb : hosts) {
        stream.push_back(std::move(hb));
      }
    }
    return stream;
  }

  static TimeMicros Stamp(Rng& rng, int round) {
    return round * 500 * kMicrosPerMilli +
           static_cast<TimeMicros>(rng.NextBelow(500'000));
  }

  static BatchFormat FormatFor(Arm arm, const HostBatch& hb, size_t k) {
    bool one_type = true;
    for (const Event& e : hb.events) {
      one_type = one_type && e.schema() == hb.events.front().schema();
    }
    switch (arm) {
      case Arm::kRow:
        return BatchFormat::kRow;
      case Arm::kColumnarJoin:
        return BatchFormat::kColumnarJoin;
      case Arm::kAlternating:
        if (k % 2 == 0) {
          return BatchFormat::kRow;
        }
        break;
      case Arm::kColumnar:
        break;
    }
    return one_type ? BatchFormat::kColumnar : BatchFormat::kColumnarJoin;
  }

  static EventBatch Encode(const HostBatch& hb, BatchFormat format,
                           QueryId qid, uint64_t seq) {
    EventBatch batch;
    batch.query_id = qid;
    batch.host = hb.host;
    batch.seq = seq;
    batch.format = format;
    batch.event_count = hb.events.size();
    if (format == BatchFormat::kRow) {
      batch.payload = EncodeBatch(hb.events);
      return batch;
    }
    // One section per type in first-appearance order, like agent staging.
    std::vector<ColumnBatch> sections;
    std::vector<uint8_t> order;
    for (const Event& e : hb.events) {
      size_t s = 0;
      while (s < sections.size() && sections[s].schema() != e.schema()) {
        ++s;
      }
      if (s == sections.size()) {
        sections.emplace_back(e.schema());
      }
      sections[s].AppendEvent(e);
      order.push_back(static_cast<uint8_t>(s));
    }
    if (format == BatchFormat::kColumnar) {
      EXPECT_EQ(sections.size(), 1u);
      EncodeColumnBatch(sections[0], nullptr, sections[0].rows(), nullptr,
                        &batch.payload);
      return batch;
    }
    std::vector<ColumnJoinSection> join;
    for (const ColumnBatch& section : sections) {
      join.push_back({&section, nullptr, section.rows(), nullptr});
    }
    EncodeColumnJoinBatch(join, order, &batch.payload);
    return batch;
  }

  CentralPlan PlanFor(std::string_view text) {
    Result<AnalyzedQuery> aq =
        ParseAndAnalyze(text, registry_, AnalyzerOptions{});
    EXPECT_TRUE(aq.ok()) << aq.status().ToString();
    Result<QueryPlan> plan = PlanQuery(*aq, /*query_id=*/1, 0);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    CentralPlan central = plan->central;
    central.hosts_targeted = 3;
    central.hosts_sampled = 3;
    return central;
  }

  static std::string RenderMetrics(const std::vector<OperatorMetrics>& ops) {
    std::string out;
    for (const OperatorMetrics& m : ops) {
      out += StrFormat(" [%llu>%llu/%llu]",
                       static_cast<unsigned long long>(m.rows_in),
                       static_cast<unsigned long long>(m.rows_out),
                       static_cast<unsigned long long>(m.batches));
    }
    return out;
  }

  // Every CentralQueryStats counter (doubles at full precision).
  static std::string RenderStats(const CentralQueryStats* s) {
    if (s == nullptr) {
      return "none";
    }
    const auto u = [](uint64_t v) {
      return static_cast<unsigned long long>(v);
    };
    return StrFormat(
               "b=%llu dup=%llu in=%llu late=%llu joined=%llu orphans=%llu "
               "jshed=%llu groups=%llu rows=%llu wc=%llu wi=%llu "
               "cmin=%.17g csum=%.17g spilled=%llu runs=%llu sbytes=%llu "
               "swf=%llu srf=%llu shed=%llu ashed=%llu wl=%llu fmin=%.17g "
               "fsum=%.17g peak=%llu ops",
               u(s->batches), u(s->batches_duplicate), u(s->events_ingested),
               u(s->events_late), u(s->tuples_joined), u(s->join_orphans),
               u(s->join_shed), u(s->groups_emitted), u(s->rows_emitted),
               u(s->windows_closed), u(s->windows_incomplete),
               s->completeness_min, s->completeness_sum, u(s->events_spilled),
               u(s->spill_runs), u(s->spill_bytes), u(s->spill_write_failures),
               u(s->spill_read_failures), u(s->events_shed),
               u(s->agent_events_shed), u(s->windows_lossy), s->fidelity_min,
               s->fidelity_sum, u(s->peak_state_bytes)) +
           RenderMetrics(s->op_metrics) + " upstream" +
           RenderMetrics(s->upstream_op_metrics);
  }

  Outcome RunFlat(const CentralPlan& plan, const std::vector<HostBatch>& stream,
                  Arm arm) {
    CentralConfig config;
    config.track_state_bytes = true;
    ScrubCentral central(&registry_, config);
    Outcome out;
    EXPECT_TRUE(central
                    .InstallQuery(plan,
                                  [&out](const ResultRow& row) {
                                    out.transcript.push_back(RenderRow(row));
                                  })
                    .ok());
    for (size_t k = 0; k < stream.size(); ++k) {
      const EventBatch batch = Encode(stream[k], FormatFor(arm, stream[k], k),
                                      plan.query_id, k + 1);
      EXPECT_TRUE(central.IngestBatch(batch, 0).ok());
      if (k % 3 == 2) {  // one round in: let windows close as it goes
        central.OnTick(static_cast<TimeMicros>(k / 3 + 1) * 500 *
                       kMicrosPerMilli);
      }
    }
    central.OnTick(60 * kMicrosPerSecond);
    out.stats.push_back(RenderStats(central.StatsFor(plan.query_id)));
    return out;
  }

  Outcome RunSharded(const CentralPlan& plan,
                     const std::vector<HostBatch>& stream, Arm arm,
                     size_t shards, size_t workers) {
    CentralConfig config;
    config.track_state_bytes = true;
    ShardedCentral central(&registry_, shards, config, workers);
    Outcome out;
    EXPECT_TRUE(central
                    .InstallQuery(plan,
                                  [&out](const ResultRow& row) {
                                    out.transcript.push_back(RenderRow(row));
                                  })
                    .ok());
    std::vector<EventBatch> round;
    for (size_t k = 0; k < stream.size(); ++k) {
      round.push_back(Encode(stream[k], FormatFor(arm, stream[k], k),
                             plan.query_id, k + 1));
      if (k % 3 == 2) {  // one IngestBatches call per round
        EXPECT_TRUE(central.IngestBatches(round, 0).ok());
        round.clear();
        central.OnTick(static_cast<TimeMicros>(k / 3 + 1) * 500 *
                       kMicrosPerMilli);
      }
    }
    central.OnTick(60 * kMicrosPerSecond);
    for (size_t s = 0; s < central.shard_count(); ++s) {
      out.stats.push_back(
          RenderStats(central.shard(s).StatsFor(plan.query_id)));
    }
    out.stats.push_back(
        RenderStats(central.coordinator().StatsFor(plan.query_id)));
    return out;
  }

  // Every arm equals the kRow arm, per deployment.
  void ExpectFormatNeutral(std::string_view query,
                           const std::vector<HostBatch>& stream) {
    const CentralPlan plan = PlanFor(query);
    const Arm arms[] = {Arm::kColumnar, Arm::kColumnarJoin, Arm::kAlternating};
    const Outcome flat = RunFlat(plan, stream, Arm::kRow);
    ASSERT_FALSE(flat.transcript.empty());
    for (const Arm arm : arms) {
      const Outcome other = RunFlat(plan, stream, arm);
      EXPECT_EQ(other.transcript, flat.transcript)
          << "flat, arm " << static_cast<int>(arm);
      EXPECT_EQ(other.stats, flat.stats)
          << "flat, arm " << static_cast<int>(arm);
    }
    for (const size_t shards : {size_t{1}, size_t{4}}) {
      for (const size_t workers : {size_t{0}, size_t{2}}) {
        const Outcome row =
            RunSharded(plan, stream, Arm::kRow, shards, workers);
        ASSERT_FALSE(row.transcript.empty());
        for (const Arm arm : arms) {
          const Outcome other = RunSharded(plan, stream, arm, shards, workers);
          EXPECT_EQ(other.transcript, row.transcript)
              << shards << " shards, " << workers << " workers, arm "
              << static_cast<int>(arm);
          EXPECT_EQ(other.stats, row.stats)
              << shards << " shards, " << workers << " workers, arm "
              << static_cast<int>(arm);
        }
      }
    }
  }

  SchemaRegistry registry_;
  SchemaPtr bid_;
  SchemaPtr imp_;
};

TEST_F(FormatMatrixTest, GroupedAggregatesAreFormatNeutral) {
  ExpectFormatNeutral(
      "SELECT bid.user_id, COUNT(*), SUM(bid.price), AVG(bid.price), "
      "MIN(bid.price), MAX(bid.price), COUNT_DISTINCT(bid.exchange) "
      "FROM bid GROUP BY bid.user_id WINDOW 1 s DURATION 4 s;",
      BidStream());
}

TEST_F(FormatMatrixTest, JoinIsFormatNeutral) {
  const std::vector<HostBatch> stream = JoinStream();
  const char* query =
      "SELECT impression.line_item_id, COUNT(*), SUM(bid.price) "
      "FROM bid, impression GROUP BY impression.line_item_id "
      "WINDOW 1 s DURATION 4 s;";
  ExpectFormatNeutral(query, stream);
  // The stream really joins across hosts and batches, and leaves orphans.
  const CentralPlan plan = PlanFor(query);
  ScrubCentral central(&registry_);
  ASSERT_TRUE(central.InstallQuery(plan, [](const ResultRow&) {}).ok());
  for (size_t k = 0; k < stream.size(); ++k) {
    ASSERT_TRUE(central
                    .IngestBatch(Encode(stream[k], BatchFormat::kRow,
                                        plan.query_id, k + 1),
                                 0)
                    .ok());
  }
  central.OnTick(60 * kMicrosPerSecond);
  EXPECT_GT(central.StatsFor(plan.query_id)->tuples_joined, 0u);
  EXPECT_GT(central.StatsFor(plan.query_id)->join_orphans, 0u);
}

TEST_F(FormatMatrixTest, RawProjectionIsFormatNeutral) {
  ExpectFormatNeutral(
      "SELECT bid.user_id, bid.price, bid.exchange FROM bid "
      "WINDOW 1 s DURATION 4 s;",
      BidStream());
}

}  // namespace
}  // namespace scrub
