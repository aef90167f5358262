// ScrubAgent: the per-host component.
//
// The agent is the only Scrub code that runs on application hosts, and it is
// deliberately tiny: for each log() call it does (at most) an event-sampling
// coin flip per query and one append to the host's shared staging batch for
// the event's type, however many queries accept the event; each accepting
// query records only the row index. A flush then runs each query's
// host-side selection conjuncts vectorized over its own rows, projects by
// column selection, and ships the survivors in the columnar wire format.
// Joins, grouping and aggregation never run here (Section 4). Three
// protective properties the paper calls out:
//
//  * log() never blocks: staging is bounded in rows and bytes and sheds
//    (and counts) events when full rather than back-pressuring the
//    application thread.
//  * Sampling happens before any predicate work, so a 10% event sample cuts
//    ~90% of the agent's per-event cost, not just its output volume.
//  * Queries self-expire: an event arriving after the plan's end_time
//    deactivates the query locally even if the teardown message is in
//    flight, so a forgotten query cannot load the host.
//
// Every unit of work is charged to the host's CostMeter in simulated
// nanoseconds; LogEvent returns the charge so the application can add it to
// the request's latency (that is how E7/E8 measure the paper's 2.5% CPU /
// 1% latency overheads).

#ifndef SRC_AGENT_AGENT_H_
#define SRC_AGENT_AGENT_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/cost_model.h"
#include "src/common/rng.h"
#include "src/common/spill.h"
#include "src/cluster/delivery.h"
#include "src/cluster/host_registry.h"
#include "src/event/column_batch.h"
#include "src/event/event.h"
#include "src/event/wire.h"
#include "src/plan/expr_eval.h"
#include "src/plan/plan.h"

namespace scrub {

// Per-window counters for the sampling estimator (Eqs. 1-3): `seen` is M_i
// (every event of the type logged in the window, before sampling and before
// selection), `sampled` is m_i (events that survived the coin flip, before
// selection). ScrubCentral reconstructs the zero readings for sampled
// events the selection then filtered out.
struct WindowCounter {
  TimeMicros window_start = 0;
  uint64_t seen = 0;
  uint64_t sampled = 0;
  // Events this host staged for the window but shed before shipping
  // (staging buffer full or staging byte budget hit). Central folds this
  // into the window's fidelity — honest accounting, never the estimator.
  uint64_t shed = 0;
};

// One flush's worth of traffic from a host to ScrubCentral for one query.
//
// `seq` numbers batches per (host, query) starting at 1; the receiver
// (ScrubCentral or a regional combiner) acks and dedups on it
// (src/cluster/delivery.h). seq == 0 means "unsequenced": hand-built
// batches and re-bucketed shard sub-batches bypass dedup entirely. `epoch`
// is the agent's incarnation, bumped when a host restarts, so a fresh
// agent's restarting sequence numbers are not mistaken for duplicates.
struct EventBatch {
  QueryId query_id = 0;
  HostId host = kInvalidHost;
  uint64_t seq = 0;
  uint64_t epoch = 0;
  BatchFormat format = BatchFormat::kRow;  // how `payload` is laid out
  // EncodeColumnBatch (kColumnar), EncodeColumnJoinBatch (kColumnarJoin), or
  // EncodeBatch (kRow: the agent sends the empty row batch as its
  // counters-only frame).
  std::string payload;
  size_t event_count = 0;
  std::vector<WindowCounter> counters;  // deltas since the previous flush

  // Honest wire accounting: the encoded events, each counter's window start
  // plus three u64 readings (seen, sampled, shed), and the header (query_id
  // 8 + host 4 + seq 8 + epoch 8 + event_count 4 + counter_count 4).
  // Columnar batches spend one extra byte on the format discriminator; row
  // batches stay byte-identical to the pre-columnar wire.
  size_t WireSize() const {
    return payload.size() + 32 * counters.size() + 36 +
           (format == BatchFormat::kRow ? 0 : 1);
  }

  EventBatch Clone() const { return *this; }  // the Outbox's held copy
};

struct AgentConfig {
  size_t staging_capacity = 8192;  // sampled events staged per query
  // Byte budget over one query's staged events (full wire sizes, since
  // projection runs at flush; 0 = unlimited). staging_capacity bounds rows;
  // this bounds bytes, so a query over wide events cannot balloon the host.
  // The degradation here is drop-and-count (log() never blocks, never
  // spills); every drop is counted per window and folded into central's
  // fidelity.
  size_t staging_budget_bytes = 0;
  // A flush splits a query's surviving events into batches of at most this
  // many (0 = do not split: one batch per flush).
  size_t max_batch_events = 1024;
  // Reliable delivery (src/cluster/delivery.h): a flushed batch is held
  // until acked and re-sent with doubling, jittered backoff until
  // `retransmit_budget` has elapsed since the flush, then shed and counted.
  // retransmit_budget == 0 disables holding (unit-test agents that are
  // never acked would otherwise hold batches forever); ScrubSystem derives
  // a budget from the central's allowed lateness.
  size_t retransmit_capacity = 64;          // held batches per query
  TimeMicros retransmit_backoff = 250 * kMicrosPerMilli;  // first retry
  TimeMicros retransmit_budget = 0;
  // When set, every flush emits at least one (possibly zero) window counter
  // per in-span query, so ScrubCentral can tell "host reachable, nothing to
  // report" from "host silent" — the basis of completeness accounting.
  bool flush_heartbeats = false;
  // Unread: kept only because scrubbench/replay.cc still assigns it.
  bool columnar = false;
  CostModel costs;
};

struct AgentQueryStats {
  uint64_t events_considered = 0;  // log() calls of a matching type
  uint64_t events_sampled_out = 0;
  // Selection outcome. Selection runs at flush, so these move when a flush
  // runs.
  uint64_t events_filtered = 0;    // failed selection
  uint64_t events_staged = 0;      // passed selection
  uint64_t events_dropped = 0;     // staging full or over its byte budget
  uint64_t events_shipped = 0;
  // Reliable-delivery accounting.
  uint64_t batches_sent = 0;          // first transmissions
  uint64_t batches_retransmitted = 0; // re-sends of unacked batches
  uint64_t batches_acked = 0;
  uint64_t batches_expired = 0;       // retransmit budget spent, shed
  uint64_t batches_evicted = 0;       // retransmit buffer overflow, shed
  uint64_t events_abandoned = 0;      // events in shed batches
  // Per-source, per-field wire encoding chosen by the most recent columnar
  // flush that shipped data (EncodeColumnBatch's convention: -1 dropped or
  // all-null, 0 plain, n > 0 dictionary with n entries). Empty until a
  // flush ships data.
  std::vector<std::vector<int>> last_encodings;
  // Plan-ordered source event types of the query. Lives in the stats so
  // DescribeQuery can still render it after teardown.
  std::vector<std::string> source_types;
};

class ScrubAgent {
 public:
  // `epoch` is the host's incarnation number; ScrubSystem bumps it when a
  // crashed host restarts with a fresh agent.
  ScrubAgent(HostId host, CostMeter* meter, AgentConfig config,
             uint64_t sampling_seed, uint64_t epoch = 0)
      : host_(host),
        meter_(meter),
        config_(config),
        rng_(sampling_seed),
        epoch_(epoch),
        // Retry jitter never perturbs sampling: faulted and clean runs must
        // sample identically.
        outbox_(config.retransmit_backoff, config.retransmit_budget,
                config.retransmit_capacity,
                sampling_seed ^ 0x9E3779B97F4A7C15ULL) {
    staging_accountant_.set_budgets(config_.staging_budget_bytes,
                                    /*total_bytes=*/0);
  }

  // Installs a query object received from the query server. Idempotent: a
  // duplicate install (retry that raced its ack) is a no-op, preserving
  // staged events and stats.
  void InstallQuery(const HostPlan& plan);
  void RemoveQuery(QueryId query_id);
  size_t active_queries() const { return queries_.size(); }
  bool HasQuery(QueryId query_id) const { return queries_.count(query_id) > 0; }

  // The application-facing instrumentation point. Processes the event
  // against every active query, charges the host CostMeter, and returns the
  // simulated nanoseconds spent (so callers can fold it into request
  // latency). The event is shared across queries by const reference.
  int64_t LogEvent(const Event& event);

  // Selects, projects and encodes staged events into batches (at most
  // max_batch_events each) and emits counter deltas; counters with no
  // surviving event to ride on ship as a counters-only frame. Also retires
  // queries whose span has passed `now` (returns their ids in `expired` if
  // non-null).
  std::vector<EventBatch> Flush(TimeMicros now,
                                std::vector<QueryId>* expired = nullptr);

  // Copies of the held batches whose retry has come due (the held copies
  // stay until acked or expired). Also sheds, and counts, held batches
  // whose retransmit budget is spent.
  std::vector<EventBatch> Retransmits(TimeMicros now);

  // The receiver (central or a combiner) acked (query, seq): drop the held
  // copy.
  void OnAck(QueryId query_id, uint64_t seq);

  size_t pending_retransmits() const { return outbox_.pending(); }
  uint64_t epoch() const { return epoch_; }

  const AgentQueryStats* StatsFor(QueryId query_id) const;
  uint64_t total_events_logged() const { return total_events_logged_; }
  // Events held in shared staging: each counts once, however many queries
  // staged it. Zero after every flush.
  size_t shared_staged_events() const;

 private:
  struct ActiveQuery {
    HostPlan plan;
    // The query's selection vector over the host's shared staging: one
    // ascending list of row indices into shared_[source type] per plan
    // source. A sampled event's row lands here un-filtered; selection and
    // projection run vectorized at flush over these rows only. Single-source
    // plans use slot 0; joins record the arrival interleave in
    // `staging_order` so the central join folds events in the order they
    // were logged.
    std::vector<std::vector<uint32_t>> staged_rows;
    // Source index of each staged event, in arrival order. Only maintained
    // for multi-source plans (a single source's arrival order is its row
    // list's order).
    std::vector<uint8_t> staging_order;
    // Counter deltas keyed by window start, flushed incrementally.
    std::map<TimeMicros, WindowCounter> pending_counters;
    AgentQueryStats stats;

    explicit ActiveQuery(const HostPlan& p)
        : plan(p), staged_rows(p.sources.size()) {}
  };

  // Stages one sampled event for one of the query's sources, or sheds and
  // counts it when the query's own staging is full in rows or bytes.
  // `shared_row` is the event's row in its type's shared batch, or -1 until
  // the first accepting query appends it there.
  void Stage(ActiveQuery& q, size_t source, const Event& event,
             int64_t* shared_row);

  // Vectorized selection over one source's staged rows of `cols`: each
  // conjunct compacts `selection` and is charged (into `ns`) only for the
  // rows that reached it, projection per surviving row. Counts the filtered
  // and surviving rows and returns the survivors in row order.
  std::vector<uint32_t> SelectStaged(ActiveQuery& q, const HostSourcePlan& sp,
                                     const ColumnBatch& cols,
                                     std::vector<uint32_t> selection,
                                     int64_t* ns);

  // Vectorized flush for a single-source query: filter + project its staged
  // rows of the shared batch and append the resulting wire batches to
  // `batches`.
  void FlushColumns(QueryId query_id, ActiveQuery& q, TimeMicros now,
                    std::vector<EventBatch>* batches);

  // Join twin of FlushColumns: per-source vectorized selection, then the
  // surviving events are chunked in arrival order (per staging_order) into
  // kColumnarJoin batches carrying one columnar section per source plus the
  // interleave, so chunk boundaries and the central fold order follow the
  // single arrival-ordered stream the host logged.
  void FlushColumnJoin(QueryId query_id, ActiveQuery& q, TimeMicros now,
                       std::vector<EventBatch>* batches);

  // Total rows staged across a query's sources.
  size_t StagedRows(const ActiveQuery& q) const;

  // Flush chunk cap: config.max_batch_events, or `total` (one chunk) when
  // the cap is 0.
  size_t BatchCap(size_t total) const {
    return config_.max_batch_events > 0 ? config_.max_batch_events : total;
  }

  // Stamps one outgoing batch (seq, epoch, the query's pending counters on
  // the first batch of a flush), charges its serialization, holds its
  // retransmit copy, and queues it for shipping.
  void EmitBatch(QueryId query_id, ActiveQuery& q, BatchFormat format,
                 std::string payload, size_t event_count, TimeMicros now,
                 std::vector<EventBatch>* batches);

  TimeMicros WindowStartFor(const ActiveQuery& q, TimeMicros ts) const;

  // Records one staged-but-shed event in the window's counter, so central
  // can fold the loss into that window's fidelity.
  void CountShed(ActiveQuery& q, TimeMicros ts);

  // Stats survive retirement; explicit RemoveQuery discards them (existing
  // behavior), in which case this returns nullptr.
  AgentQueryStats* MutableStatsFor(QueryId query_id);

  HostId host_;
  CostMeter* meter_;
  AgentConfig config_;
  Rng rng_;
  uint64_t epoch_;
  // Seq numbering and retransmit copies. The copies outlive query
  // retirement: the final flush's batches are still owed to the receiver.
  // They drain via ack or deadline.
  Outbox<EventBatch> outbox_;
  // Wire bytes staged per query, against staging_budget_bytes. Released
  // when a flush drains the query's staged rows.
  MemoryAccountant staging_accountant_;
  // One staging batch per event type, shared by every query:
  // an event is appended at most once however many queries accept it, and
  // each query keeps only its row indices (ActiveQuery::staged_rows). Each
  // batch is created from the first staged event's schema (the agent holds
  // no SchemaRegistry) and cleared after every flush, which drains all
  // queries completely.
  std::unordered_map<std::string, ColumnBatch> shared_;
  std::unordered_map<QueryId, ActiveQuery> queries_;
  std::unordered_map<QueryId, AgentQueryStats> retired_stats_;
  uint64_t total_events_logged_ = 0;
};

}  // namespace scrub

#endif  // SRC_AGENT_AGENT_H_
