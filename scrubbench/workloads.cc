#include "scrubbench/workloads.h"

#include <algorithm>
#include <map>

#include "src/bidsim/workload.h"
#include "src/cluster/scheduler.h"
#include "src/cluster/transport.h"
#include "src/common/rng.h"
#include "src/common/strings.h"

namespace scrubbench {
namespace {

using scrub::kMicrosPerSecond;
using scrub::StrFormat;

constexpr TimeMicros kHorizon = 10 * kMicrosPerSecond;

// The paper's case-study mix, two of each kind: a high-cardinality
// per-user aggregate, bid ⋈ impression by line item, a 10% event-sampled
// count, and exclusions by reason over the highest-volume stream.
void MixedFlat(scrub::Rng& rng, Workload* w) {
  const int exchange = static_cast<int>(1 + rng.NextBelow(4));
  const int exchange2 = static_cast<int>(1 + rng.NextBelow(4));
  const char* queries[] = {
      "SELECT bid.user_id, COUNT(*), SUM(bid.bid_price) FROM bid "
      "GROUP BY bid.user_id WINDOW 1 s DURATION 10 s;",
      "SELECT bid.user_id, COUNT(*), SUM(bid.bid_price) FROM bid "
      "WHERE bid.exchange_id != %d GROUP BY bid.user_id "
      "WINDOW 2 s DURATION 10 s;",
      "SELECT impression.line_item_id, COUNT(*) FROM bid, impression "
      "GROUP BY impression.line_item_id WINDOW 1 s DURATION 10 s;",
      "SELECT impression.line_item_id, COUNT(*), SUM(impression.cost) "
      "FROM bid, impression WHERE bid.exchange_id != %d "
      "GROUP BY impression.line_item_id WINDOW 2 s DURATION 10 s;",
      "SELECT COUNT(*) FROM bid WINDOW 1 s DURATION 10 s "
      "SAMPLE EVENTS 10%%;",
      "SELECT COUNT(*) FROM exclusion WINDOW 1 s DURATION 10 s "
      "SAMPLE EVENTS 10%%;",
      "SELECT exclusion.reason, COUNT(*) FROM exclusion "
      "GROUP BY exclusion.reason WINDOW 1 s DURATION 10 s;",
      "SELECT exclusion.reason, COUNT(*) FROM exclusion "
      "WHERE exclusion.exchange_id != %d GROUP BY exclusion.reason "
      "WINDOW 2 s DURATION 10 s;",
  };
  const int params[] = {0, exchange, 0, exchange2, 0, 0, 0, exchange};
  for (size_t i = 0; i < 8; ++i) {
    w->submissions.push_back({1, StrFormat(queries[i], params[i])});
  }
}

// 32 concurrent narrow queries (conjunctions on publisher, exchange or line
// item; each under 1% selective) with 2 s spans. Slot s first enters at
// tick 1 + s % 4 and is replaced every 4 ticks as its query expires, so a
// quarter of the slots turn over at every tick.
void FanoutChurn(scrub::Rng& rng, Workload* w) {
  const int line_items = w->platform.num_campaigns *
                         w->platform.line_items_per_campaign;
  const TimeMicros span = 2 * kMicrosPerSecond;
  const int span_ticks = static_cast<int>(span / w->flush_interval);
  for (int slot = 0; slot < 32; ++slot) {
    for (int tick = 1 + slot % 4;
         (tick - 1) * w->flush_interval + span <= w->horizon;
         tick += span_ticks) {
      const int publisher = static_cast<int>(1 + rng.NextBelow(50));
      const int exchange = static_cast<int>(1 + rng.NextBelow(4));
      const int line_item =
          static_cast<int>(1000 + rng.NextBelow(line_items));
      std::string text;
      switch (slot % 4) {
        case 0:
          text = StrFormat(
              "SELECT COUNT(*) FROM exclusion WHERE exclusion.publisher_id = "
              "%d AND exclusion.exchange_id = %d WINDOW 1 s DURATION 2 s;",
              publisher, exchange);
          break;
        case 1:
          text = StrFormat(
              "SELECT COUNT(*), SUM(bid.bid_price) FROM bid WHERE "
              "bid.line_item_id = %d AND bid.publisher_id = %d "
              "WINDOW 1 s DURATION 2 s;",
              line_item, publisher);
          break;
        case 2:
          text = StrFormat(
              "SELECT COUNT(*) FROM auction WHERE auction.publisher_id = %d "
              "AND auction.exchange_id = %d WINDOW 1 s DURATION 2 s;",
              publisher, exchange);
          break;
        default:
          text = StrFormat(
              "SELECT exclusion.reason, COUNT(*) FROM exclusion WHERE "
              "exclusion.line_item_id = %d AND exclusion.publisher_id = %d "
              "GROUP BY exclusion.reason WINDOW 1 s DURATION 2 s;",
              line_item, publisher);
          break;
      }
      w->submissions.push_back({tick, std::move(text)});
    }
  }
  std::stable_sort(w->submissions.begin(), w->submissions.end(),
                   [](const Submission& a, const Submission& b) {
                     return a.tick < b.tick;
                   });
}

// bench_fleet's scale-10 fleet behind 4 regional combiners, aggregate-only
// queries (all combiner-eligible), one of them a high-cardinality per-user
// group-by so partials are large.
void FleetHier(Workload* w) {
  const char* queries[] = {
      "SELECT bid.user_id, COUNT(*), SUM(bid.bid_price) FROM bid "
      "GROUP BY bid.user_id WINDOW 1 s DURATION 10 s;",
      "SELECT bid.campaign_id, COUNT(*), SUM(bid.bid_price) FROM bid "
      "GROUP BY bid.campaign_id WINDOW 1 s DURATION 10 s;",
      "SELECT exclusion.reason, COUNT(*) FROM exclusion "
      "GROUP BY exclusion.reason WINDOW 1 s DURATION 10 s;",
      "SELECT COUNT(*), MIN(auction.winning_price), "
      "MAX(auction.winning_price) FROM auction WINDOW 1 s DURATION 10 s;",
  };
  for (const char* q : queries) {
    w->submissions.push_back({1, q});
  }
}

}  // namespace

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out) {
  Workload w;
  w.name = name;
  w.horizon = kHorizon;
  // The seed varies the traffic (arrivals, users, exchanges, publishers)
  // and the query parameters; the platform's line-item catalog keeps its
  // default seed, so every seed replays the same application.
  scrub::Rng rng(seed ^ 0x5c12bULL);
  if (name == "mixed_flat") {
    MixedFlat(rng, &w);
  } else if (name == "fanout_churn") {
    FanoutChurn(rng, &w);
  } else if (name == "fleet_hier") {
    constexpr int kScale = 10;
    w.platform.datacenters = 4;
    w.platform.bidservers_per_dc = kScale;
    w.platform.adservers_per_dc = kScale / 2;
    w.platform.presentation_per_dc = kScale / 2;
    w.platform.num_campaigns = 8;
    w.platform.line_items_per_campaign = 3;
    w.combiner_regions = 4;
    FleetHier(&w);
  } else {
    return false;
  }
  *out = std::move(w);
  return true;
}

std::unique_ptr<Recording> RecordTraffic(const Workload& workload,
                                         uint64_t seed) {
  auto rec = std::make_unique<Recording>();
  scrub::Scheduler scheduler(0);
  scrub::HostRegistry registry;
  scrub::Transport transport(&scheduler, &registry);
  scrub::BiddingPlatform platform(&scheduler, &transport, &registry,
                                  &rec->schemas, workload.platform);
  scrub::WorkloadDriver traffic(&scheduler, &platform, seed ^ 0x70ad);

  const TimeMicros interval = workload.flush_interval;
  const size_t ticks =
      static_cast<size_t>((workload.horizon + interval - 1) / interval);
  // Per tick, per host: std::map keeps hosts in ascending id order.
  std::vector<std::map<scrub::HostId, std::vector<scrub::Event>>> buckets(
      ticks + 1);
  platform.SetEventLogger([&](scrub::HostId host, scrub::Event event) {
    const TimeMicros ts = event.timestamp();
    if (ts <= workload.horizon) {
      const size_t tick = static_cast<size_t>(
          std::max<TimeMicros>(1, (ts + interval - 1) / interval));
      buckets[tick][host].push_back(std::move(event));
    }
    return int64_t{0};
  });

  scrub::PoissonLoadConfig load;
  load.requests_per_second = workload.requests_per_second;
  load.start = 0;
  load.duration = workload.horizon;
  traffic.SchedulePoissonLoad(load);
  scheduler.RunUntil(workload.horizon);

  for (size_t i = 0; i < registry.size(); ++i) {
    rec->hosts.push_back(registry.Get(static_cast<scrub::HostId>(i)));
  }
  rec->ticks.resize(ticks + 1);
  for (size_t k = 1; k <= ticks; ++k) {
    for (auto& [host, events] : buckets[k]) {
      rec->ticks[k].events += events.size();
      rec->ticks[k].hosts.push_back({host, std::move(events)});
    }
    rec->events += rec->ticks[k].events;
  }
  return rec;
}

}  // namespace scrubbench
