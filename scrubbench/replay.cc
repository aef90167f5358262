#include "scrubbench/replay.h"

#include <malloc.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "src/agent/agent.h"
#include "src/central/central.h"
#include "src/central/coordinator.h"
#include "src/cluster/combiner.h"
#include "src/cluster/host_registry.h"
#include "src/cluster/scheduler.h"
#include "src/cluster/transport.h"
#include "src/common/strings.h"
#include "src/lint/lint.h"
#include "src/plan/physical.h"
#include "src/plan/plan.h"
#include "src/query/analyzer.h"
#include "src/query/parser.h"

namespace scrubbench {
namespace {

using scrub::EventBatch;
using scrub::HostId;
using scrub::PartialEnvelope;
using scrub::PhysicalOpKind;
using scrub::QueryId;
using scrub::TrafficCategory;
using Scope = Tracer::Scope;

constexpr size_t kAckBytes = 24;

int64_t HeapInUse() {
  return static_cast<int64_t>(mallinfo2().uordblks);
}

struct LiveQuery {
  QueryOutcome outcome;
  TimeMicros end_time = 0;
  std::vector<HostId> hosts;
  bool join = false;
  bool removed = false;
  // Operator kinds of the pipeline that ingests agent batches (central's,
  // or the combiners' shard pipeline), parallel to its op metrics.
  std::vector<PhysicalOpKind> kinds;
};

class Replay {
 public:
  Replay(const Workload& workload, const Recording& recording, uint64_t seed,
         Tracer& tracer);

  PassResult Run();

 private:
  struct Delivered {
    EventBatch batch;
    HostId from = scrub::kInvalidHost;
    HostId combiner = scrub::kInvalidHost;
    TimeMicros at = 0;
  };
  struct EnvelopeDelivery {
    std::shared_ptr<PartialEnvelope> envelope;
    HostId combiner = scrub::kInvalidHost;
  };
  struct CombinerAck {
    HostId combiner;
    QueryId query;
    uint64_t seq;
    uint64_t epoch;
  };

  TimeMicros TimeOf(int tick) const { return tick * interval_; }
  void SampleHeap(int tick);
  void Admit(const Submission& submission, size_t index, int tick);
  void RemoveExpired(int tick);
  void LogTick(int tick);
  void Flush(int tick);
  void Deliver(int tick);
  void DrainQueues(int tick);
  void SendBatch(HostId from, EventBatch batch);
  void SendAgentAck(HostId from, HostId to, QueryId query, uint64_t seq);
  void CaptureAgentStats(const LiveQuery& q);
  void CollectCentralStats();
  scrub::RegionalCombiner& CombinerAt(HostId host) {
    return *combiners_[combiner_index_.at(host)];
  }

  const Workload& workload_;
  const Recording& recording_;
  Tracer& tracer_;
  const TimeMicros interval_;
  uint64_t seed_;

  scrub::AgentConfig agent_config_;
  scrub::CentralConfig central_config_;
  scrub::AnalyzerOptions analyzer_options_;
  scrub::LintOptions lint_options_;

  scrub::Scheduler scheduler_{0};
  scrub::HostRegistry registry_;
  scrub::Transport transport_{&scheduler_, &registry_};
  std::unique_ptr<scrub::ScrubCentral> central_;
  std::unique_ptr<scrub::PartialCoordinator> coordinator_;
  std::vector<std::unique_ptr<scrub::RegionalCombiner>> combiners_;
  std::unordered_map<HostId, size_t> combiner_index_;
  std::vector<std::unique_ptr<scrub::ScrubAgent>> agents_;  // by host id
  std::vector<HostId> agent_hosts_;                          // ascending
  std::vector<HostId> agent_combiner_;                       // by host id
  HostId central_host_ = scrub::kInvalidHost;
  TimeMicros coordinator_lateness_ = 0;

  QueryId next_id_ = 1;
  std::vector<LiveQuery> queries_;
  std::unordered_set<QueryId> combiner_routed_;
  TimeMicros now_ = 0;  // simulated time of the current close step

  std::vector<Delivered> central_queue_;
  std::vector<Delivered> combiner_queue_;
  std::vector<EnvelopeDelivery> coordinator_queue_;
  std::vector<std::vector<std::pair<QueryId, uint64_t>>> agent_acks_;
  std::vector<CombinerAck> combiner_acks_;
  std::vector<scrub::Event> copy_;

  PassResult result_;
  int64_t heap_peak_ = 0;
};

Replay::Replay(const Workload& workload, const Recording& recording,
               uint64_t seed, Tracer& tracer)
    : workload_(workload),
      recording_(recording),
      tracer_(tracer),
      interval_(workload.flush_interval),
      seed_(seed) {
  // The same derived settings ScrubSystem applies to its components.
  central_config_.track_state_bytes = true;
  agent_config_.retransmit_budget =
      central_config_.allowed_lateness + interval_;
  agent_config_.flush_heartbeats = true;
  agent_config_.columnar = true;
  lint_options_.flush_interval_micros = interval_;
  lint_options_.max_duration_micros = analyzer_options_.max_duration_micros;
  lint_options_.allowed_lateness_micros = central_config_.allowed_lateness;
  scrub::TransportConfig transport_config;
  lint_options_.retry_rtt_micros = 2 * transport_config.cross_dc_latency +
                                   agent_config_.retransmit_backoff;
  lint_options_.query_state_budget_bytes =
      central_config_.query_state_budget_bytes;

  for (const scrub::HostInfo& info : recording_.hosts) {
    registry_.AddHost(info.name, info.service, info.datacenter,
                      info.monitorable);
  }
  central_host_ = registry_.AddHost("scrub-central-00", "ScrubCentral", "DC1",
                                    /*monitorable=*/false);
  registry_.AddHost("scrub-server-00", "ScrubServer", "DC1",
                    /*monitorable=*/false);
  central_ = std::make_unique<scrub::ScrubCentral>(&recording_.schemas,
                                                   central_config_);

  const int dcs = std::max(1, workload_.platform.datacenters);
  if (workload_.combiner_regions > 0) {
    for (size_t r = 0; r < workload_.combiner_regions; ++r) {
      const HostId chost = registry_.AddHost(
          scrub::StrFormat("scrub-combiner-%02d", static_cast<int>(r)),
          "ScrubCombiner",
          scrub::StrFormat("DC%d", static_cast<int>(r) % dcs + 1),
          /*monitorable=*/false);
      scrub::CombinerConfig cfg;
      cfg.central = central_config_;
      cfg.central.spill_instance += scrub::StrFormat("_r%d", static_cast<int>(r));
      cfg.central.spill_seed ^= 0x9E3779B97F4A7C15ULL * (r + 1);
      cfg.retransmit_backoff = agent_config_.retransmit_backoff;
      cfg.retransmit_budget = central_config_.allowed_lateness + interval_;
      cfg.seed = seed_ ^ (0xc0b1u + r);
      combiner_index_[chost] = combiners_.size();
      combiners_.push_back(std::make_unique<scrub::RegionalCombiner>(
          &recording_.schemas, chost, cfg, /*epoch=*/1));
    }
    // Partials lag raw batches by the inner lateness, one more hop and the
    // combiner's retransmit rounds; the coordinator waits that out.
    coordinator_lateness_ = central_config_.allowed_lateness +
                            (central_config_.allowed_lateness + interval_) +
                            2 * interval_;
    scrub::CentralConfig coord = central_config_;
    coord.allowed_lateness = coordinator_lateness_;
    coordinator_ = std::make_unique<scrub::PartialCoordinator>(coord);
  }

  agents_.resize(registry_.size());
  agent_acks_.resize(registry_.size());
  agent_combiner_.assign(registry_.size(), scrub::kInvalidHost);
  for (size_t i = 0; i < registry_.size(); ++i) {
    const scrub::HostInfo& info = registry_.Get(static_cast<HostId>(i));
    if (!info.monitorable) {
      continue;
    }
    const uint64_t agent_seed =
        seed_ ^ (0xa9e47u + static_cast<uint64_t>(info.id));
    agents_[i] = std::make_unique<scrub::ScrubAgent>(
        info.id, &registry_.meter(info.id), agent_config_, agent_seed);
    agent_hosts_.push_back(info.id);
  }
  // Each agent routes combiner-eligible batches to a combiner in its own
  // DC, round-robin by within-DC ordinal (ScrubSystem's static routing).
  if (!combiners_.empty()) {
    const size_t regions = combiners_.size();
    std::unordered_map<std::string, size_t> dc_ordinal;
    for (const HostId host : agent_hosts_) {
      const std::string& dc = registry_.Get(host).datacenter;
      size_t k = 0;
      if (dc.size() > 2) {
        k = static_cast<size_t>(std::max(1, std::atoi(dc.c_str() + 2)) - 1) %
            static_cast<size_t>(dcs);
      }
      std::vector<size_t> serving;
      for (size_t r = 0; r < regions; ++r) {
        if (r % static_cast<size_t>(dcs) == k) {
          serving.push_back(r);
        }
      }
      const size_t ordinal = dc_ordinal[dc]++;
      const size_t region =
          serving.empty() ? k % regions : serving[ordinal % serving.size()];
      agent_combiner_[static_cast<size_t>(host)] = combiners_[region]->host();
    }
  }
}

void Replay::SampleHeap(int tick) {
  Scope s(tracer_, Layer::kHarness, tick);
  heap_peak_ = std::max(heap_peak_, HeapInUse());
}

void Replay::Admit(const Submission& submission, size_t index, int tick) {
  const TimeMicros now = TimeOf(tick - 1);
  const int64_t wall0 = WallNs();
  scrub::Result<scrub::AnalyzedQuery> analyzed =
      scrub::InvalidArgument("not analyzed");
  scrub::Result<std::vector<HostId>> targeted =
      scrub::InvalidArgument("not resolved");
  scrub::Result<scrub::QueryPlan> plan = scrub::InvalidArgument("not planned");
  {
    Scope s(tracer_, Layer::kServerAdmit, tick);
    scrub::Result<scrub::Query> parsed = scrub::ParseQuery(submission.text);
    if (!parsed.ok()) {
      result_.error = "parse: " + parsed.status().ToString();
      return;
    }
    analyzed = scrub::Analyze(*parsed, recording_.schemas, analyzer_options_);
    if (!analyzed.ok()) {
      result_.error = "analyze: " + analyzed.status().ToString();
      return;
    }
    scrub::LintOptions lint = lint_options_;
    lint.fleet_hosts = registry_.MonitorableCount();
    if (scrub::HasLintErrors(scrub::LintQuery(*analyzed, lint))) {
      result_.error = "rejected by lint: " + submission.text;
      return;
    }
    targeted = registry_.Resolve(analyzed->query.targets);
    if (!targeted.ok() || targeted->empty()) {
      result_.error = "target clause resolves to no hosts";
      return;
    }
    plan = scrub::PlanQuery(*analyzed, next_id_++, now);
    if (!plan.ok()) {
      result_.error = "plan: " + plan.status().ToString();
      return;
    }
    plan->central.hosts_targeted = targeted->size();
    plan->central.hosts_sampled = targeted->size();
  }

  LiveQuery q;
  q.outcome.submission = index;
  q.outcome.id = plan->host.query_id;
  q.outcome.submit_time = now;
  q.outcome.tick = tick;
  q.outcome.sampled = plan->central.SamplingActive();
  q.outcome.hierarchical =
      coordinator_ != nullptr && scrub::CombinerEligible(plan->central);
  q.end_time = plan->host.end_time;
  q.hosts = *targeted;
  q.join = plan->central.is_join();
  const size_t slot = queries_.size();
  queries_.push_back(std::move(q));
  scrub::ResultSink sink = [this, slot](const scrub::ResultRow& row) {
    queries_[slot].outcome.rows.push_back(row);
    result_.freshness_ms.push_back(
        static_cast<double>(now_ - row.window_end) / 1000.0);
  };

  scrub::Status installed = scrub::OkStatus();
  {
    Scope s(tracer_, Layer::kCentralInstall, tick);
    if (queries_[slot].outcome.hierarchical) {
      for (auto& comb : combiners_) {
        installed = comb->InstallQuery(plan->central);
        if (!installed.ok()) {
          break;
        }
      }
      if (installed.ok()) {
        installed = coordinator_->InstallQuery(plan->central, std::move(sink));
      }
      combiner_routed_.insert(plan->host.query_id);
    } else {
      installed = central_->InstallQuery(plan->central, std::move(sink));
    }
  }
  if (!installed.ok()) {
    result_.error = "central install: " + installed.ToString();
    return;
  }
  int64_t heap0 = 0;
  {
    Scope s(tracer_, Layer::kHarness, tick);
    heap0 = HeapInUse();
  }
  {
    Scope s(tracer_, Layer::kAgentInstall, tick);
    for (const HostId host : queries_[slot].hosts) {
      agents_[static_cast<size_t>(host)]->InstallQuery(plan->host);
    }
  }
  {
    Scope s(tracer_, Layer::kHarness, tick);
    const int64_t heap1 = HeapInUse();
    result_.install_heap_bytes += heap1 - heap0;
    heap_peak_ = std::max(heap_peak_, heap1);
  }
  result_.submit_ms.push_back(static_cast<double>(WallNs() - wall0) / 1e6);
  result_.counts.host_installs += queries_[slot].hosts.size();
  ++result_.counts.submissions;

  const scrub::PhysicalPipeline* pipe =
      queries_[slot].outcome.hierarchical
          ? combiners_.front()->inner().PipelineFor(plan->host.query_id)
          : central_->PipelineFor(plan->host.query_id);
  if (pipe != nullptr) {
    for (const scrub::PhysicalOp& op : pipe->ops) {
      queries_[slot].kinds.push_back(op.kind);
    }
  }
}

void Replay::CaptureAgentStats(const LiveQuery& q) {
  for (const HostId host : q.hosts) {
    const scrub::AgentQueryStats* s =
        agents_[static_cast<size_t>(host)]->StatsFor(q.outcome.id);
    if (s == nullptr) {
      continue;
    }
    result_.counts.considered += s->events_considered;
    result_.counts.shipped += s->events_shipped;
    result_.counts.agent_shed += s->events_dropped + s->events_abandoned;
  }
}

void Replay::RemoveExpired(int tick) {
  const TimeMicros now = TimeOf(tick - 1);
  for (LiveQuery& q : queries_) {
    if (q.removed || q.end_time > now) {
      continue;
    }
    // RemoveQuery discards the agent's stats: read them first.
    CaptureAgentStats(q);
    Scope s(tracer_, Layer::kAgentRemove, tick);
    for (const HostId host : q.hosts) {
      agents_[static_cast<size_t>(host)]->RemoveQuery(q.outcome.id);
    }
    q.removed = true;
  }
}

void Replay::LogTick(int tick) {
  for (const HostEvents& he : recording_.ticks[static_cast<size_t>(tick)].hosts) {
    scrub::ScrubAgent* agent = agents_[static_cast<size_t>(he.host)].get();
    if (agent == nullptr) {
      continue;
    }
    {
      // LogEvent takes the event by value; the copy is the application's
      // cost, not Scrub's.
      Scope s(tracer_, Layer::kHarness, tick, he.host);
      copy_.assign(he.events.begin(), he.events.end());
    }
    {
      Scope s(tracer_, Layer::kAgentLog, tick, he.host);
      for (scrub::Event& event : copy_) {
        agent->LogEvent(std::move(event));
      }
    }
    {
      Scope s(tracer_, Layer::kHarness, tick, he.host);
      copy_.clear();
    }
    result_.counts.events += he.events.size();
  }
}

void Replay::SendAgentAck(HostId from, HostId to, QueryId query,
                          uint64_t seq) {
  transport_.Send(from, to, kAckBytes, TrafficCategory::kScrubAcks,
                  [this, to, query, seq] {
                    agent_acks_[static_cast<size_t>(to)].emplace_back(query,
                                                                      seq);
                  });
}

void Replay::SendBatch(HostId from, EventBatch batch) {
  const size_t bytes = batch.WireSize();
  if (combiner_routed_.count(batch.query_id) > 0) {
    const HostId chost = agent_combiner_[static_cast<size_t>(from)];
    transport_.Send(from, chost, bytes, TrafficCategory::kScrubEvents,
                    [this, from, chost, b = std::move(batch)]() mutable {
                      combiner_queue_.push_back(
                          {std::move(b), from, chost, scheduler_.Now()});
                    });
    return;
  }
  transport_.Send(from, central_host_, bytes, TrafficCategory::kScrubEvents,
                  [this, from, b = std::move(batch)]() mutable {
                    central_queue_.push_back({std::move(b), from,
                                              scrub::kInvalidHost,
                                              scheduler_.Now()});
                  });
}

void Replay::Flush(int tick) {
  const TimeMicros now = TimeOf(tick);
  {
    Scope s(tracer_, Layer::kTransportDeliver, tick);
    scheduler_.RunUntil(now);
  }
  DrainQueues(tick);

  std::vector<std::vector<EventBatch>> per_host(agent_hosts_.size());
  for (size_t i = 0; i < agent_hosts_.size(); ++i) {
    const HostId host = agent_hosts_[i];
    scrub::ScrubAgent& agent = *agents_[static_cast<size_t>(host)];
    Scope s(tracer_, Layer::kAgentFlush, tick, host);
    per_host[i] = agent.Flush(now);
    std::vector<EventBatch> retries = agent.Retransmits(now);
    per_host[i].insert(per_host[i].end(),
                       std::make_move_iterator(retries.begin()),
                       std::make_move_iterator(retries.end()));
  }
  for (size_t i = 0; i < agent_hosts_.size(); ++i) {
    if (per_host[i].empty()) {
      continue;
    }
    Scope s(tracer_, Layer::kTransportSend, tick, agent_hosts_[i]);
    for (EventBatch& batch : per_host[i]) {
      ++result_.counts.batches;
      result_.counts.batch_events += batch.event_count;
      result_.counts.egress_bytes += batch.WireSize();
      SendBatch(agent_hosts_[i], std::move(batch));
    }
  }
  for (auto& comb : combiners_) {
    std::vector<PartialEnvelope> envelopes;
    {
      Scope s(tracer_, Layer::kCombinerPump, tick, comb->host());
      envelopes = comb->PumpUpstream(now);
    }
    Scope s(tracer_, Layer::kTransportSend, tick, comb->host());
    for (PartialEnvelope& env : envelopes) {
      result_.counts.partials_shipped += env.partials.size();
      auto shared = std::make_shared<PartialEnvelope>(std::move(env));
      const HostId chost = comb->host();
      transport_.Send(chost, central_host_, shared->WireSize(),
                      TrafficCategory::kScrubPartials, [this, shared, chost] {
                        coordinator_queue_.push_back({shared, chost});
                      });
    }
  }
  now_ = now;
  {
    Scope s(tracer_, Layer::kCentralClose, tick);
    central_->OnTick(now);
  }
  if (coordinator_ != nullptr) {
    Scope s(tracer_, Layer::kCoordinatorClose, tick);
    coordinator_->OnTick(now);
  }
}

void Replay::DrainQueues(int tick) {
  if (!central_queue_.empty()) {
    std::vector<Delivered> queue;
    queue.swap(central_queue_);
    {
      Scope s(tracer_, Layer::kCentralIngest, tick);
      for (const Delivered& d : queue) {
        (void)central_->IngestBatch(d.batch, d.at);
      }
    }
    Scope s(tracer_, Layer::kTransportSend, tick);
    for (const Delivered& d : queue) {
      if (combiner_routed_.count(d.batch.query_id) > 0) {
        ++result_.counts.flat_batches_for_combiner_queries;
      }
      // Ack sequenced batches, duplicates too (a retransmit that raced a
      // lost ack still needs its buffered copy released).
      if (d.batch.seq != 0) {
        SendAgentAck(central_host_, d.from, d.batch.query_id, d.batch.seq);
      }
    }
  }
  if (!combiner_queue_.empty()) {
    std::vector<Delivered> queue;
    queue.swap(combiner_queue_);
    std::vector<scrub::RegionalCombiner::Action> actions(queue.size());
    {
      Scope s(tracer_, Layer::kCombinerIngest, tick);
      for (size_t i = 0; i < queue.size(); ++i) {
        actions[i] =
            CombinerAt(queue[i].combiner).IngestBatch(queue[i].batch,
                                                      queue[i].at);
      }
    }
    Scope s(tracer_, Layer::kTransportSend, tick);
    for (size_t i = 0; i < queue.size(); ++i) {
      Delivered& d = queue[i];
      if (actions[i] == scrub::RegionalCombiner::Action::kAbsorbed) {
        if (d.batch.seq != 0) {
          SendAgentAck(d.combiner, d.from, d.batch.query_id, d.batch.seq);
        }
        continue;
      }
      // kRelay (teardown raced the batch): one more hop to central.
      const size_t bytes = d.batch.WireSize();
      transport_.Send(d.combiner, central_host_, bytes,
                      TrafficCategory::kScrubEvents,
                      [this, from = d.from, b = std::move(d.batch)]() mutable {
                        central_queue_.push_back({std::move(b), from,
                                                  scrub::kInvalidHost,
                                                  scheduler_.Now()});
                      });
    }
  }
  if (!coordinator_queue_.empty()) {
    std::vector<EnvelopeDelivery> queue;
    queue.swap(coordinator_queue_);
    {
      Scope s(tracer_, Layer::kCoordinatorAbsorb, tick);
      for (EnvelopeDelivery& d : queue) {
        PartialEnvelope& e = *d.envelope;
        if (!coordinator_->AdmitSequenced(e.query_id, e.sender, e.epoch,
                                          e.seq)) {
          continue;
        }
        for (const scrub::CounterDigest& digest : e.digests) {
          coordinator_->AbsorbCounters(e.query_id, digest.host,
                                       digest.counters);
        }
        result_.counts.partials_absorbed += e.partials.size();
        for (scrub::WindowPartial& partial : e.partials) {
          coordinator_->AbsorbPartial(std::move(partial));
        }
      }
    }
    Scope s(tracer_, Layer::kTransportSend, tick);
    for (const EnvelopeDelivery& d : queue) {
      const PartialEnvelope& e = *d.envelope;
      transport_.Send(central_host_, d.combiner, kAckBytes,
                      TrafficCategory::kScrubAcks,
                      [this, ack = CombinerAck{d.combiner, e.query_id, e.seq,
                                               e.epoch}] {
                        combiner_acks_.push_back(ack);
                      });
    }
  }
  for (const HostId host : agent_hosts_) {
    auto& acks = agent_acks_[static_cast<size_t>(host)];
    if (acks.empty()) {
      continue;
    }
    scrub::ScrubAgent& agent = *agents_[static_cast<size_t>(host)];
    Scope s(tracer_, Layer::kAgentAck, tick, host);
    for (const auto& [query, seq] : acks) {
      agent.OnAck(query, seq);
    }
    acks.clear();
  }
  if (!combiner_acks_.empty()) {
    Scope s(tracer_, Layer::kCombinerPump, tick);
    for (const CombinerAck& ack : combiner_acks_) {
      scrub::RegionalCombiner& comb = CombinerAt(ack.combiner);
      if (comb.epoch() == ack.epoch) {
        comb.OnAck(ack.query, ack.seq);
      }
    }
    combiner_acks_.clear();
  }
}

void Replay::Deliver(int tick) {
  const TimeMicros now = TimeOf(tick);
  {
    Scope s(tracer_, Layer::kTransportDeliver, tick);
    scheduler_.RunUntil(now + interval_ / 2);
  }
  DrainQueues(tick);
  {
    Scope s(tracer_, Layer::kTransportDeliver, tick);
    scheduler_.RunUntil(now + interval_ - 1);
  }
  DrainQueues(tick);
}

void Replay::CollectCentralStats() {
  PassCounts& c = result_.counts;
  auto add_ops = [this](const LiveQuery& q,
                        const scrub::CentralQueryStats& cs) {
    for (size_t i = 0; i < cs.op_metrics.size() && i < q.kinds.size(); ++i) {
      const scrub::OperatorMetrics& m = cs.op_metrics[i];
      // cpu_ns == 0 marks a fused stamp (a join charges its fold to the
      // Join op); its rows would dilute the per-row rate.
      if (m.cpu_ns == 0) {
        continue;
      }
      switch (q.kinds[i]) {
        case PhysicalOpKind::kDecode:
          result_.decode_cpu_ns += m.cpu_ns;
          result_.decode_rows += m.rows_in;
          break;
        case PhysicalOpKind::kJoin:
          result_.join_cpu_ns += m.cpu_ns;
          result_.join_rows += m.rows_in;
          break;
        case PhysicalOpKind::kGroupFold:
        case PhysicalOpKind::kProject:
          result_.fold_cpu_ns += m.cpu_ns;
          result_.fold_rows += m.rows_in;
          break;
        default:
          break;
      }
    }
  };
  auto add_ingest = [&c](const LiveQuery& q,
                         const scrub::CentralQueryStats& cs) {
    c.ingested += cs.events_ingested;
    c.late += cs.events_late;
    c.central_shed += cs.join_shed + cs.events_shed;
    if (q.join) {
      c.join_events += cs.events_ingested;
      c.tuples_joined += cs.tuples_joined;
    }
  };
  for (const LiveQuery& q : queries_) {
    if (q.outcome.hierarchical) {
      const scrub::CentralQueryStats* cs = coordinator_->StatsFor(q.outcome.id);
      if (cs != nullptr) {
        c.coordinator_windows += cs->windows_closed;
      }
      for (const auto& comb : combiners_) {
        const scrub::CentralQueryStats* inner =
            comb->inner().StatsFor(q.outcome.id);
        if (inner != nullptr) {
          add_ingest(q, *inner);
          add_ops(q, *inner);
        }
      }
      continue;
    }
    const scrub::CentralQueryStats* cs = central_->StatsFor(q.outcome.id);
    if (cs != nullptr) {
      add_ingest(q, *cs);
      add_ops(q, *cs);
      c.windows_closed += cs->windows_closed;
    }
  }
  result_.peak_state_bytes = central_->accountant().peak_total();
  for (const auto& comb : combiners_) {
    result_.peak_state_bytes += comb->inner().accountant().peak_total();
  }
}

PassResult Replay::Run() {
  const int record_ticks = static_cast<int>(recording_.ticks.size()) - 1;
  // Drain: enough empty ticks for the last windows to close (the flat
  // lateness grace, or the coordinator's extended one) plus a few rounds.
  const TimeMicros grace =
      coordinator_ != nullptr
          ? coordinator_lateness_ + 4 * interval_
          : central_config_.allowed_lateness + 3 * interval_;
  const int total_ticks =
      record_ticks + static_cast<int>((grace + interval_ - 1) / interval_);

  const int64_t heap_base = HeapInUse();
  heap_peak_ = heap_base;
  const int64_t wall0 = WallNs();
  const int64_t harness0 = tracer_.harness_wall_ns();
  const int64_t cpu0 = ThreadCpuNs();
  size_t next_submission = 0;
  const std::vector<Submission>& subs = workload_.submissions;
  for (int tick = 1; tick <= total_ticks && result_.error.empty(); ++tick) {
    Scope root(tracer_, Layer::kTick, tick);
    SampleHeap(tick);
    RemoveExpired(tick);
    while (next_submission < subs.size() &&
           subs[next_submission].tick == tick && result_.error.empty()) {
      Admit(subs[next_submission], next_submission, tick);
      ++next_submission;
    }
    if (tick <= record_ticks) {
      LogTick(tick);
    }
    Flush(tick);
    Deliver(tick);
    ++result_.counts.ticks;
  }
  result_.pass_cpu_ns = ThreadCpuNs() - cpu0;
  result_.replay_wall_s =
      static_cast<double>(WallNs() - wall0 -
                          (tracer_.harness_wall_ns() - harness0)) /
      1e9;
  result_.heap_peak_bytes = heap_peak_ - heap_base;

  for (const LiveQuery& q : queries_) {
    if (!q.removed) {
      CaptureAgentStats(q);
    }
  }
  CollectCentralStats();
  for (const HostId host : agent_hosts_) {
    result_.modeled_agent_ns += registry_.meter(host).scrub_ns();
  }
  PassCounts& c = result_.counts;
  c.central_link_bytes =
      transport_.bytes_to(central_host_, TrafficCategory::kScrubEvents) +
      transport_.bytes_to(central_host_, TrafficCategory::kScrubPartials);
  c.partial_bytes =
      transport_.bytes_to(central_host_, TrafficCategory::kScrubPartials);
  for (size_t cat = 0;
       cat < static_cast<size_t>(TrafficCategory::kCategoryCount); ++cat) {
    c.messages += transport_.messages_sent(static_cast<TrafficCategory>(cat));
  }
  for (LiveQuery& q : queries_) {
    c.rows += q.outcome.rows.size();
    result_.queries.push_back(std::move(q.outcome));
  }
  return std::move(result_);
}

}  // namespace

PassResult RunPass(const Workload& workload, const Recording& recording,
                   uint64_t seed, Tracer& tracer) {
  Replay replay(workload, recording, seed, tracer);
  return replay.Run();
}

}  // namespace scrubbench
