// RegionalCombiner: the per-DC aggregation tier for million-host fleets.
//
// In the flat topology every agent ships event batches straight to
// ScrubCentral, so the central ingress link and the coordinator CPU grow
// linearly with host count. The combiner tier cuts both: each region (DC or
// group of DCs) runs one combiner node that
//
//  * receives its region's agent batches for *aggregate* queries,
//  * folds them through an inner shard-role ScrubCentral (the ordinary
//    Decode..WindowClose pipeline, hosts_sampled = 0 — the expected host
//    set is a coordinator concern), and
//  * ships compact, mergeable WindowPartials upstream instead of raw
//    events: per-group accumulator state (counts, sums, min/max,
//    HyperLogLog registers, SpaceSaving summaries) whose size scales with
//    group cardinality, not event volume.
//
// The Eq. 1-3 completeness and sampling-error accounting survives the extra
// hop because the combiner also forwards *counter digests*: the per-agent
// per-slot WindowCounters (M_i / m_i / shed), summed per (slot, host) but
// never across hosts, so the central coordinator reconstructs exactly the
// global per-host picture the flat topology sees. Selection/raw-mode and
// join queries are not installed here; their batches return kRelay and pass
// through to central untouched (the paper's host rule: hosts — and their
// regional proxies — do selection and projection only, never lossy
// cross-host aggregation of raw streams).
//
// Both hops use the sequenced delivery of src/cluster/delivery.h: a
// per-query Inbox dedups agent batches before the combiner acks them, and
// an Outbox holds deep clones of the shipped PartialEnvelopes until the
// coordinator, which dedups per (combiner, epoch, seq), acks them.
//
// A crashed combiner loses its open window state and unshipped envelopes —
// honest degradation: the lost hosts simply go unheard and the affected
// windows close incomplete, exactly like a crashed agent, while agents keep
// retransmitting into the restarted (epoch-bumped) combiner.

#ifndef SRC_CLUSTER_COMBINER_H_
#define SRC_CLUSTER_COMBINER_H_

#include <map>
#include <memory>
#include <vector>

#include "src/central/central.h"
#include "src/cluster/delivery.h"

namespace scrub {

// Aggregate-mode, non-join plans merge associatively and may be combined
// regionally. Join plans need request-id colocation across the whole fleet
// (partners may log in different regions), and raw-mode plans have no
// mergeable state — both pass through.
inline bool CombinerEligible(const CentralPlan& plan) {
  return plan.aggregate_mode && !plan.is_join();
}

// Per-agent sampling counters, forwarded alongside partials so the
// coordinator's completeness / fidelity / Eq. 1-3 inputs keep per-host
// granularity through the tier.
struct CounterDigest {
  HostId host = kInvalidHost;
  std::vector<WindowCounter> counters;
};

// One sequenced combiner -> central message: the partials the inner central
// emitted since the last pump, plus the counter digests whose slots those
// partials (cumulatively) cover — digests never run ahead of the data they
// account for.
struct PartialEnvelope {
  QueryId query_id = 0;
  HostId sender = kInvalidHost;  // the combiner host
  uint64_t epoch = 0;            // combiner incarnation
  uint64_t seq = 0;              // per (combiner, query) sequence
  std::vector<WindowPartial> partials;
  std::vector<CounterDigest> digests;

  // Deterministic wire-size estimate (same spirit as HostPlan::WireSize):
  // right order of magnitude, identical for identical content. This is the
  // number the fleet benchmark compares against shipping raw events.
  size_t WireSize() const;
  PartialEnvelope Clone() const;  // deep: the Outbox's held copy
};

struct CombinerConfig {
  // Inner shard-role central (lateness, budgets, sketch parameters — keep
  // identical to the flat central's so merged state matches).
  CentralConfig central;
  // Upstream retransmission: the same Outbox contract as AgentConfig's.
  TimeMicros retransmit_backoff = 250 * kMicrosPerMilli;
  TimeMicros retransmit_budget = 0;  // 0 disables holding for retransmit
  size_t retransmit_capacity = 64;   // held envelopes per query
  uint64_t seed = 1;                 // retry jitter stream
};

struct CombinerStats {
  uint64_t batches_absorbed = 0;     // agent batches for installed queries
  uint64_t batches_duplicate = 0;    // agent retransmit raced its ack
  uint64_t batches_relayed = 0;      // pass-through (query not installed)
  uint64_t counters_late = 0;        // digest slots past the inner deadline
  uint64_t envelopes_sent = 0;       // fresh upstream envelopes
  uint64_t envelopes_retransmitted = 0;
  uint64_t envelopes_expired = 0;    // budget spent before an ack arrived
  uint64_t envelopes_evicted = 0;    // held-buffer capacity overflow
  uint64_t envelopes_acked = 0;
};

class RegionalCombiner {
 public:
  RegionalCombiner(const SchemaRegistry* registry, HostId host,
                   CombinerConfig config = {}, uint64_t epoch = 1);

  // Installs an eligible aggregate plan on the inner shard-role central.
  // Idempotent (restart reinstalls race teardown-free).
  Status InstallQuery(const CentralPlan& plan);
  // Drops the query and every buffered/held artifact (cancel semantics).
  void RemoveQuery(QueryId query_id);
  bool HasQuery(QueryId query_id) const {
    return plans_.count(query_id) > 0;
  }

  enum class Action {
    kAbsorbed,  // batch consumed (or duplicate-suppressed): ack the agent
    kRelay,     // query not installed here: forward unchanged to central
  };
  Action IngestBatch(const EventBatch& batch, TimeMicros now);

  // Ticks the inner central (window closes emit partials), packages the
  // buffered partials + counter digests into sequenced envelopes (holding
  // clones for retransmission), appends due retransmits, and GCs expired
  // query state. Envelope order is ascending query id, retransmits after
  // fresh sends — a pure function of state, never of wall-clock races.
  std::vector<PartialEnvelope> PumpUpstream(TimeMicros now);

  // Central acked (query, seq): stop retransmitting it.
  void OnAck(QueryId query_id, uint64_t seq);

  HostId host() const { return host_; }
  uint64_t epoch() const { return epoch_; }
  const CombinerStats& stats() const { return stats_; }
  const ScrubCentral& inner() const { return *inner_; }
  size_t pending_retransmits() const { return outbox_.pending(); }

 private:
  // Drops the query's dedup, buffered, digest and delivery state.
  void Forget(QueryId query_id);

  const SchemaRegistry* registry_;
  HostId host_;
  CombinerConfig config_;
  uint64_t epoch_;
  std::unique_ptr<ScrubCentral> inner_;
  // Installed plans (span gating for digests, GC horizon).
  std::map<QueryId, CentralPlan> plans_;
  // Per-query dedup of agent batches.
  std::map<QueryId, Inbox> dedup_;
  // Partials the inner central emitted, awaiting the next pump.
  std::map<QueryId, std::vector<WindowPartial>> buffered_;
  // Counter digests accumulated since the last pump: slot -> host -> sums.
  std::map<QueryId, std::map<TimeMicros, std::map<HostId, WindowCounter>>>
      digests_;
  // Highest window_start among partials shipped so far. A digest slot ships
  // only once covered (slot <= watermark), so a slot's counters ride in the
  // same envelope as — or after — the partial carrying its data. Losing an
  // envelope then loses data and accounting together: the coordinator never
  // marks a host heard for a window whose region partial it is missing.
  std::map<QueryId, TimeMicros> digest_watermark_;
  // Upstream seq numbering and held envelopes.
  Outbox<PartialEnvelope> outbox_;
  CombinerStats stats_;
};

}  // namespace scrub

#endif  // SRC_CLUSTER_COMBINER_H_
