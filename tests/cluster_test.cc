// Unit tests for the simulated cluster: scheduler determinism, host
// registry + target resolution, the transport's latency/byte accounting,
// and sequenced delivery (Outbox, Inbox, and the combiner's upstream hop).

#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/cluster/combiner.h"
#include "src/cluster/delivery.h"
#include "src/cluster/host_registry.h"
#include "src/cluster/scheduler.h"
#include "src/cluster/transport.h"
#include "src/event/wire.h"
#include "src/query/analyzer.h"

namespace scrub {
namespace {

TEST(SchedulerTest, FiresInTimeThenInsertionOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.ScheduleAt(100, [&] { order.push_back(2); });
  sched.ScheduleAt(50, [&] { order.push_back(1); });
  sched.ScheduleAt(100, [&] { order.push_back(3); });  // same time: after 2
  sched.RunUntil(200);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.Now(), 200);
}

TEST(SchedulerTest, RunUntilStopsAtBoundary) {
  Scheduler sched;
  int fired = 0;
  sched.ScheduleAt(100, [&] { ++fired; });
  sched.ScheduleAt(300, [&] { ++fired; });
  sched.RunUntil(200);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.pending(), 1u);
  sched.RunUntil(400);
  EXPECT_EQ(fired, 2);
}

TEST(SchedulerTest, CallbacksMayScheduleMoreWork) {
  Scheduler sched;
  std::vector<TimeMicros> fire_times;
  std::function<void()> chain = [&] {
    fire_times.push_back(sched.Now());
    if (fire_times.size() < 5) {
      sched.ScheduleAfter(10, chain);
    }
  };
  sched.ScheduleAt(0, chain);
  sched.RunAll();
  EXPECT_EQ(fire_times,
            (std::vector<TimeMicros>{0, 10, 20, 30, 40}));
}

TEST(SchedulerTest, PastEventsClampToNow) {
  Scheduler sched;
  sched.RunUntil(100);
  TimeMicros fired_at = -1;
  sched.ScheduleAt(50, [&] { fired_at = sched.Now(); });
  sched.RunAll();
  EXPECT_EQ(fired_at, 100);
}

class RegistryTest : public ::testing::Test {
 protected:
  RegistryTest() {
    registry_.AddHost("bid-dc1-00", "BidServers", "DC1");
    registry_.AddHost("bid-dc1-01", "BidServers", "DC1");
    registry_.AddHost("bid-dc2-00", "BidServers", "DC2");
    registry_.AddHost("ad-dc1-00", "AdServers", "DC1");
    registry_.AddHost("central", "ScrubCentral", "DC1",
                      /*monitorable=*/false);
  }
  HostRegistry registry_;
};

TEST_F(RegistryTest, UnrestrictedMatchesAllMonitorable) {
  Result<std::vector<HostId>> hosts = registry_.Resolve(TargetSpec{});
  ASSERT_TRUE(hosts.ok());
  EXPECT_EQ(hosts->size(), 4u);  // central excluded
}

TEST_F(RegistryTest, ServiceAndDatacenterFiltersCompose) {
  TargetSpec spec;
  spec.services = {"BidServers"};
  spec.datacenters = {"DC1"};
  Result<std::vector<HostId>> hosts = registry_.Resolve(spec);
  ASSERT_TRUE(hosts.ok());
  EXPECT_EQ(hosts->size(), 2u);
}

TEST_F(RegistryTest, HostListRestricts) {
  TargetSpec spec;
  spec.services = {"BidServers"};
  spec.hosts = {"bid-dc2-00"};
  Result<std::vector<HostId>> hosts = registry_.Resolve(spec);
  ASSERT_TRUE(hosts.ok());
  ASSERT_EQ(hosts->size(), 1u);
  EXPECT_EQ(registry_.Get((*hosts)[0]).name, "bid-dc2-00");
}

TEST_F(RegistryTest, TyposAreErrorsNotEmptyResults) {
  TargetSpec bad_service;
  bad_service.services = {"BidServerz"};
  EXPECT_EQ(registry_.Resolve(bad_service).status().code(),
            StatusCode::kNotFound);
  TargetSpec bad_host;
  bad_host.hosts = {"nope"};
  EXPECT_FALSE(registry_.Resolve(bad_host).ok());
  TargetSpec bad_dc;
  bad_dc.datacenters = {"DC9"};
  EXPECT_FALSE(registry_.Resolve(bad_dc).ok());
}

TEST_F(RegistryTest, ScrubInfraNotTargetable) {
  TargetSpec spec;
  spec.services = {"ScrubCentral"};
  Result<std::vector<HostId>> hosts = registry_.Resolve(spec);
  ASSERT_TRUE(hosts.ok());
  EXPECT_TRUE(hosts->empty());  // service exists but is non-monitorable
}

TEST_F(RegistryTest, FindByName) {
  Result<HostId> id = registry_.FindByName("ad-dc1-00");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(registry_.Get(*id).service, "AdServers");
  EXPECT_FALSE(registry_.FindByName("ghost").ok());
}

TEST(TransportTest, LatencyByTopology) {
  Scheduler sched;
  HostRegistry registry;
  const HostId a = registry.AddHost("a", "S", "DC1");
  const HostId b = registry.AddHost("b", "S", "DC1");
  const HostId c = registry.AddHost("c", "S", "DC2");
  TransportConfig config;
  Transport transport(&sched, &registry, config);
  EXPECT_EQ(transport.LatencyBetween(a, a), config.same_host_latency);
  EXPECT_EQ(transport.LatencyBetween(a, b), config.same_dc_latency);
  EXPECT_EQ(transport.LatencyBetween(a, c), config.cross_dc_latency);
}

TEST(TransportTest, DeliveryTimeIncludesBandwidthTerm) {
  Scheduler sched;
  HostRegistry registry;
  const HostId a = registry.AddHost("a", "S", "DC1");
  const HostId b = registry.AddHost("b", "S", "DC1");
  Transport transport(&sched, &registry);
  TimeMicros delivered_at = -1;
  // 1 MB at 0.001 us/byte = 1000 us, plus 250 us same-DC latency.
  transport.Send(a, b, 1'000'000, TrafficCategory::kScrubEvents,
                 [&] { delivered_at = sched.Now(); });
  sched.RunAll();
  EXPECT_EQ(delivered_at, 250 + 1000);
}

// --- Fault injection --------------------------------------------------------

class TransportFaultTest : public ::testing::Test {
 protected:
  TransportFaultTest()
      : a_(registry_.AddHost("a", "S", "DC1")),
        b_(registry_.AddHost("b", "S", "DC1")),
        c_(registry_.AddHost("c", "S", "DC2")),
        d_(registry_.AddHost("d", "S", "DC2")),
        transport_(&sched_, &registry_) {}

  Scheduler sched_;
  HostRegistry registry_;
  HostId a_, b_, c_, d_;
  Transport transport_;
};

TEST_F(TransportFaultTest, DropAllNeverDeliversButStillAccountsBytes) {
  FaultPlan plan;
  plan.Category(TrafficCategory::kScrubEvents).drop = 1.0;
  transport_.SetFaultPlan(plan);
  int delivered = 0;
  for (int i = 0; i < 10; ++i) {
    transport_.Send(a_, b_, 100, TrafficCategory::kScrubEvents,
                    [&] { ++delivered; });
  }
  sched_.RunAll();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(transport_.fault_stats(TrafficCategory::kScrubEvents).dropped,
            10u);
  // The sender paid to serialize the message whether or not it arrived.
  EXPECT_EQ(transport_.bytes_sent(TrafficCategory::kScrubEvents), 1000u);
  EXPECT_EQ(transport_.messages_sent(TrafficCategory::kScrubEvents), 10u);
}

TEST_F(TransportFaultTest, DuplicateDeliversTwice) {
  FaultPlan plan;
  plan.Category(TrafficCategory::kScrubEvents).duplicate = 1.0;
  transport_.SetFaultPlan(plan);
  int delivered = 0;
  transport_.Send(a_, b_, 100, TrafficCategory::kScrubEvents,
                  [&] { ++delivered; });
  sched_.RunAll();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(transport_.fault_stats(TrafficCategory::kScrubEvents).duplicated,
            1u);
}

TEST_F(TransportFaultTest, DeadRecipientDropsInsteadOfExecuting) {
  registry_.SetAlive(b_, false);
  int delivered = 0;
  transport_.Send(a_, b_, 100, TrafficCategory::kScrubEvents,
                  [&] { ++delivered; });
  sched_.RunAll();
  EXPECT_EQ(delivered, 0);
  const FaultStats& stats =
      transport_.fault_stats(TrafficCategory::kScrubEvents);
  EXPECT_EQ(stats.dead_host, 1u);
  EXPECT_EQ(stats.dropped, 1u);  // dead-host drops count as dropped too
  EXPECT_EQ(transport_.bytes_sent(TrafficCategory::kScrubEvents), 100u);
}

TEST_F(TransportFaultTest, DeadSenderSendsNothing) {
  registry_.SetAlive(a_, false);
  int delivered = 0;
  transport_.Send(a_, b_, 100, TrafficCategory::kScrubEvents,
                  [&] { ++delivered; });
  sched_.RunAll();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(transport_.fault_stats(TrafficCategory::kScrubEvents).dead_host,
            1u);
}

TEST_F(TransportFaultTest, CrashAfterSendDropsAtDeliveryTime) {
  int delivered = 0;
  transport_.Send(a_, b_, 100, TrafficCategory::kScrubEvents,
                  [&] { ++delivered; });
  // The host dies while the message is in flight: it must not execute on
  // the dead host's behalf.
  registry_.SetAlive(b_, false);
  sched_.RunAll();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(transport_.fault_stats(TrafficCategory::kScrubEvents).dead_host,
            1u);
}

TEST_F(TransportFaultTest, PartitionCutsOnlyCrossDcLinks) {
  FaultPlan plan;
  PartitionSpec partition;
  partition.datacenter = "DC2";
  partition.start = 0;
  partition.end = 1000;
  plan.partitions.push_back(partition);
  transport_.SetFaultPlan(plan);

  int intra_dc1 = 0, cross = 0, intra_dc2 = 0;
  EXPECT_TRUE(transport_.Partitioned(a_, c_));
  EXPECT_FALSE(transport_.Partitioned(a_, b_));
  EXPECT_FALSE(transport_.Partitioned(c_, d_));
  transport_.Send(a_, b_, 10, TrafficCategory::kAppTraffic,
                  [&] { ++intra_dc1; });
  transport_.Send(a_, c_, 10, TrafficCategory::kAppTraffic, [&] { ++cross; });
  transport_.Send(c_, d_, 10, TrafficCategory::kAppTraffic,
                  [&] { ++intra_dc2; });
  sched_.RunUntil(1000);
  EXPECT_EQ(intra_dc1, 1);
  EXPECT_EQ(intra_dc2, 1);
  EXPECT_EQ(cross, 0);
  EXPECT_EQ(transport_.fault_stats(TrafficCategory::kAppTraffic).partitioned,
            1u);

  // The partition heals at `end`; the same link works again.
  sched_.RunUntil(2000);
  EXPECT_FALSE(transport_.Partitioned(a_, c_));
  transport_.Send(a_, c_, 10, TrafficCategory::kAppTraffic, [&] { ++cross; });
  sched_.RunAll();
  EXPECT_EQ(cross, 1);
}

TEST_F(TransportFaultTest, FaultStreamIsDeterministicPerSeed) {
  auto run = [this](uint64_t seed) {
    Scheduler sched;
    Transport transport(&sched, &registry_);
    FaultPlan plan;
    plan.seed = seed;
    plan.Category(TrafficCategory::kScrubEvents).drop = 0.3;
    plan.Category(TrafficCategory::kScrubEvents).duplicate = 0.3;
    transport.SetFaultPlan(plan);
    int delivered = 0;
    for (int i = 0; i < 200; ++i) {
      transport.Send(a_, b_, 10, TrafficCategory::kScrubEvents,
                     [&] { ++delivered; });
    }
    sched.RunAll();
    const FaultStats& stats =
        transport.fault_stats(TrafficCategory::kScrubEvents);
    return std::make_tuple(delivered, stats.dropped, stats.duplicated);
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));  // the seed actually matters
}

TEST_F(TransportFaultTest, CleanCategoriesStayUndisturbed) {
  // A hostile plan against Scrub's traffic must not perturb app traffic:
  // same delivery time as a fault-free transport, no randomness consumed.
  FaultPlan plan;
  plan.Category(TrafficCategory::kScrubEvents).drop = 0.5;
  plan.Category(TrafficCategory::kScrubEvents).spike = 0.5;
  transport_.SetFaultPlan(plan);
  TimeMicros delivered_at = -1;
  transport_.Send(a_, b_, 1000, TrafficCategory::kAppTraffic,
                  [&] { delivered_at = sched_.Now(); });
  sched_.RunAll();
  EXPECT_EQ(delivered_at, 250 + 1);  // same-DC latency + bandwidth, exactly
  const FaultStats& stats =
      transport_.fault_stats(TrafficCategory::kAppTraffic);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.spiked, 0u);
}

TEST(TransportTest, ByteAccountingPerCategory) {
  Scheduler sched;
  HostRegistry registry;
  const HostId a = registry.AddHost("a", "S", "DC1");
  const HostId b = registry.AddHost("b", "S", "DC1");
  Transport transport(&sched, &registry);
  transport.Send(a, b, 100, TrafficCategory::kScrubEvents, [] {});
  transport.Send(a, b, 200, TrafficCategory::kScrubEvents, [] {});
  transport.Send(a, b, 50, TrafficCategory::kBaselineLog, [] {});
  EXPECT_EQ(transport.bytes_sent(TrafficCategory::kScrubEvents), 300u);
  EXPECT_EQ(transport.messages_sent(TrafficCategory::kScrubEvents), 2u);
  EXPECT_EQ(transport.bytes_sent(TrafficCategory::kBaselineLog), 50u);
  EXPECT_EQ(transport.total_bytes(), 350u);
  transport.ResetCounters();
  EXPECT_EQ(transport.total_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// Sequenced delivery.
// ---------------------------------------------------------------------------

struct TestMsg {
  uint64_t query_id = 0;
  uint64_t seq = 0;
  TestMsg Clone() const { return *this; }
};

constexpr TimeMicros kBackoff = 100 * kMicrosPerMilli;

// An Outbox under test plus the (query, seq) of every message it shed.
struct OutboxProbe {
  OutboxProbe(TimeMicros backoff, TimeMicros budget, size_t capacity)
      : outbox(backoff, budget, capacity, /*seed=*/42) {}

  // Stamps and sends a message of `query_id`, holding its copy.
  uint64_t Send(uint64_t query_id, TimeMicros now) {
    const TestMsg msg{query_id, outbox.NextSeq(query_id)};
    outbox.Hold(msg, now, [this](const TestMsg& m) {
      evicted.emplace_back(m.query_id, m.seq);
    });
    return msg.seq;
  }

  std::vector<TestMsg> Retries(TimeMicros now) {
    std::vector<TestMsg> due;
    outbox.Retries(now, &due, [this](const TestMsg& m) {
      expired.emplace_back(m.query_id, m.seq);
    });
    return due;
  }

  Outbox<TestMsg> outbox;
  std::vector<std::pair<uint64_t, uint64_t>> evicted;
  std::vector<std::pair<uint64_t, uint64_t>> expired;
};

using Shed = std::vector<std::pair<uint64_t, uint64_t>>;

TEST(OutboxTest, EvictsTheOldestPastCapacity) {
  OutboxProbe p(kBackoff, 10 * kMicrosPerSecond, /*capacity=*/2);
  p.Send(7, 0);
  p.Send(7, 0);
  p.Send(8, 0);  // another query's hold is its own
  EXPECT_TRUE(p.evicted.empty());
  EXPECT_EQ(p.Send(7, 0), 3u);
  EXPECT_EQ(p.evicted, (Shed{{7, 1}}));
  EXPECT_EQ(p.outbox.pending(), 3u);
  // The evicted message is gone: its late ack releases nothing.
  EXPECT_FALSE(p.outbox.Release(7, 1));
  EXPECT_TRUE(p.outbox.Release(7, 3));
  EXPECT_EQ(p.outbox.pending(), 2u);
}

TEST(OutboxTest, ZeroCapacityEvictsEverySend) {
  OutboxProbe p(kBackoff, 10 * kMicrosPerSecond, /*capacity=*/0);
  for (int i = 0; i < 3; ++i) {
    p.Send(7, 0);
  }
  EXPECT_EQ(p.evicted, (Shed{{7, 1}, {7, 2}, {7, 3}}));
  EXPECT_EQ(p.outbox.pending(), 0u);
  EXPECT_FALSE(p.outbox.Holding(7));
  EXPECT_TRUE(p.Retries(kMicrosPerSecond).empty());
  EXPECT_TRUE(p.expired.empty());
}

TEST(OutboxTest, ZeroBudgetHoldsNothingButStillNumbers) {
  OutboxProbe p(kBackoff, /*budget=*/0, /*capacity=*/2);
  p.Send(7, 0);
  EXPECT_EQ(p.outbox.pending(), 0u);
  EXPECT_TRUE(p.evicted.empty());
  EXPECT_EQ(p.Send(7, 0), 2u);
}

TEST(OutboxTest, ExpiresAtTheBudgetAndReleasesOnAck) {
  const TimeMicros budget = kMicrosPerSecond;
  // A first retry no earlier than 7.5 s: nothing is re-sent here.
  OutboxProbe p(10 * kMicrosPerSecond, budget, /*capacity=*/4);
  p.Send(7, 0);
  p.Send(7, 0);
  p.Send(7, 10);
  EXPECT_TRUE(p.outbox.Release(7, 2));
  EXPECT_FALSE(p.outbox.Release(7, 2));  // a duplicate ack releases nothing
  EXPECT_FALSE(p.outbox.Release(8, 1));  // nor does one for another query

  EXPECT_TRUE(p.Retries(budget - 1).empty());
  EXPECT_TRUE(p.expired.empty());
  EXPECT_TRUE(p.Retries(budget).empty());
  EXPECT_EQ(p.expired, (Shed{{7, 1}}));
  EXPECT_TRUE(p.outbox.Holding(7));
  EXPECT_TRUE(p.Retries(budget + 10).empty());
  EXPECT_EQ(p.expired, (Shed{{7, 1}, {7, 3}}));
  EXPECT_EQ(p.outbox.pending(), 0u);
  EXPECT_FALSE(p.outbox.Holding(7));
}

TEST(OutboxTest, RetryDelaysDoubleUpToEightTimesWithinJitter) {
  // Step the clock 1 us at a time: each gap between re-sends is exactly the
  // drawn delay, which must lie within +/-25% of 1, 2, 4, 8, 8, 8 x backoff.
  const TimeMicros backoff = 1000;
  OutboxProbe p(backoff, /*budget=*/kMicrosPerSecond, /*capacity=*/1);
  p.Send(7, 0);
  const std::vector<TimeMicros> factors = {1, 2, 4, 8, 8, 8};
  TimeMicros last = 0;
  size_t retries = 0;
  for (TimeMicros now = 1; retries < factors.size(); ++now) {
    const std::vector<TestMsg> due = p.Retries(now);
    if (due.empty()) {
      continue;
    }
    ASSERT_EQ(due.size(), 1u);
    EXPECT_EQ(due[0].seq, 1u);
    const TimeMicros base = factors[retries] * backoff;
    const TimeMicros gap = now - last;
    EXPECT_GE(gap, base - base / 4) << "retry " << retries;
    EXPECT_LT(gap, base + base / 4) << "retry " << retries;
    last = now;
    ++retries;
  }
  EXPECT_TRUE(p.expired.empty());
  EXPECT_EQ(p.outbox.pending(), 1u);  // re-sending keeps the held copy
}

TEST(JitteredDelayTest, StaysWithinAQuarterAndAtLeastOneMicro) {
  Rng rng(7);
  for (const TimeMicros base : {TimeMicros{100}, TimeMicros{1000},
                                kBackoff}) {
    for (int i = 0; i < 1000; ++i) {
      const TimeMicros d = JitteredDelay(rng, base);
      EXPECT_GE(d, base - base / 4);
      EXPECT_LT(d, base + base / 4);
    }
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_GE(JitteredDelay(rng, 0), 1);
    EXPECT_GE(JitteredDelay(rng, 1), 1);
  }
}

TEST(InboxTest, UnsequencedMessagesBypassDedup) {
  Inbox inbox;
  EXPECT_TRUE(inbox.Admit(/*sender=*/3, /*epoch=*/1, /*seq=*/0));
  EXPECT_TRUE(inbox.Admit(3, 1, 0));
}

TEST(InboxTest, AdmitsEachSeqOncePerSenderAndEpoch) {
  Inbox inbox;
  EXPECT_TRUE(inbox.Admit(3, 1, 1));
  EXPECT_FALSE(inbox.Admit(3, 1, 1));
  // Out of order: a gap is filled once, never twice.
  EXPECT_TRUE(inbox.Admit(3, 1, 3));
  EXPECT_TRUE(inbox.Admit(3, 1, 2));
  EXPECT_FALSE(inbox.Admit(3, 1, 3));
  EXPECT_FALSE(inbox.Admit(3, 1, 2));
  // A restarted sender's fresh epoch restarts at seq 1 and is not taken
  // for a duplicate; neither is another sender's seq 1.
  EXPECT_TRUE(inbox.Admit(3, 2, 1));
  EXPECT_FALSE(inbox.Admit(3, 2, 1));
  EXPECT_TRUE(inbox.Admit(4, 1, 1));
}

// The combiner's upstream hop: one envelope per closed window, held until
// the coordinator acks it.
class CombinerDeliveryTest : public ::testing::Test {
 protected:
  CombinerDeliveryTest() {
    bid_schema_ = *EventSchema::Builder("bid")
                       .AddField("user_id", FieldType::kLong)
                       .Build();
    EXPECT_TRUE(registry_.Register(bid_schema_).ok());
  }

  std::unique_ptr<RegionalCombiner> MakeCombiner(size_t capacity) {
    CombinerConfig config;
    config.central.allowed_lateness = 500 * kMicrosPerMilli;
    config.retransmit_backoff = 10 * kMicrosPerSecond;  // no re-sends here
    config.retransmit_budget = 20 * kMicrosPerSecond;
    config.retransmit_capacity = capacity;
    auto combiner = std::make_unique<RegionalCombiner>(&registry_,
                                                       /*host=*/50, config);
    Result<AnalyzedQuery> aq =
        ParseAndAnalyze("SELECT COUNT(*) FROM bid WINDOW 1 s DURATION 10 s;",
                        registry_, AnalyzerOptions{});
    EXPECT_TRUE(aq.ok()) << aq.status().ToString();
    Result<QueryPlan> plan = PlanQuery(*aq, kQuery, 0);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_TRUE(combiner->InstallQuery(plan->central).ok());
    return combiner;
  }

  // One agent batch with an event in each of the first three windows.
  EventBatch AgentBatch() const {
    std::vector<Event> events;
    for (int w = 0; w < 3; ++w) {
      Event e(bid_schema_, static_cast<uint64_t>(w + 1),
              w * kMicrosPerSecond + 100);
      e.SetField(0, Value(static_cast<int64_t>(w)));
      events.push_back(std::move(e));
    }
    EventBatch batch;
    batch.query_id = kQuery;
    batch.host = 0;
    batch.seq = 1;
    batch.event_count = events.size();
    batch.payload = EncodeBatch(events);
    return batch;
  }

  // Pumps once per window close (window end + lateness): three envelopes,
  // seqs 1, 2, 3.
  static void PumpThreeWindows(RegionalCombiner& combiner) {
    for (int w = 1; w <= 3; ++w) {
      const std::vector<PartialEnvelope> out = combiner.PumpUpstream(
          w * kMicrosPerSecond + 600 * kMicrosPerMilli);
      ASSERT_EQ(out.size(), 1u) << "window " << w;
      EXPECT_EQ(out[0].seq, static_cast<uint64_t>(w));
    }
  }

  static constexpr QueryId kQuery = 9;
  SchemaRegistry registry_;
  SchemaPtr bid_schema_;
};

TEST_F(CombinerDeliveryTest, EvictsPastCapacityAndReleasesOnAck) {
  std::unique_ptr<RegionalCombiner> combiner = MakeCombiner(2);
  const EventBatch batch = AgentBatch();
  EXPECT_EQ(combiner->IngestBatch(batch, 0),
            RegionalCombiner::Action::kAbsorbed);
  // The agent's retransmit is absorbed (and so re-acked) but not re-applied.
  EXPECT_EQ(combiner->IngestBatch(batch, 0),
            RegionalCombiner::Action::kAbsorbed);
  EXPECT_EQ(combiner->stats().batches_absorbed, 1u);
  EXPECT_EQ(combiner->stats().batches_duplicate, 1u);

  PumpThreeWindows(*combiner);
  EXPECT_EQ(combiner->stats().envelopes_sent, 3u);
  EXPECT_EQ(combiner->stats().envelopes_evicted, 1u);
  EXPECT_EQ(combiner->pending_retransmits(), 2u);

  combiner->OnAck(kQuery, 1);  // evicted already: nothing to release
  EXPECT_EQ(combiner->stats().envelopes_acked, 0u);
  combiner->OnAck(kQuery, 3);
  combiner->OnAck(kQuery, 3);  // a duplicate ack counts once
  EXPECT_EQ(combiner->stats().envelopes_acked, 1u);
  EXPECT_EQ(combiner->pending_retransmits(), 1u);

  // Past seq 2's budget it is shed, never re-sent.
  const std::vector<PartialEnvelope> late =
      combiner->PumpUpstream(30 * kMicrosPerSecond);
  EXPECT_TRUE(late.empty());
  EXPECT_EQ(combiner->stats().envelopes_expired, 1u);
  EXPECT_EQ(combiner->stats().envelopes_retransmitted, 0u);
  EXPECT_EQ(combiner->pending_retransmits(), 0u);
}

TEST_F(CombinerDeliveryTest, ZeroCapacityHoldsNoEnvelope) {
  std::unique_ptr<RegionalCombiner> combiner = MakeCombiner(0);
  EXPECT_EQ(combiner->IngestBatch(AgentBatch(), 0),
            RegionalCombiner::Action::kAbsorbed);
  PumpThreeWindows(*combiner);
  EXPECT_EQ(combiner->stats().envelopes_sent, 3u);
  EXPECT_EQ(combiner->stats().envelopes_evicted, 3u);
  EXPECT_EQ(combiner->pending_retransmits(), 0u);
}

}  // namespace
}  // namespace scrub
