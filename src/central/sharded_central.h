// ShardedCentral: a small ScrubCentral cluster.
//
// The paper notes that "only a small ScrubCentral cluster was needed" even
// for fleet-wide queries — central execution scales out because the work is
// partitionable. This deployment runs N ScrubCentral shards behind a
// router:
//
//  * Incoming batches are re-bucketed per event by request-id hash, so both
//    sides of the request-id equi-join land on the same shard and every
//    shard runs the ordinary single-instance pipeline on its slice.
//  * Aggregate-mode shards run the compiled physical pipeline in the shard
//    role (Decode..WindowClose): closing a window emits mergeable per-group
//    state (counts, sums, min/max, HyperLogLog registers, SpaceSaving
//    summaries) instead of rows.
//  * The coordinator — a PartialCoordinator (src/central/coordinator.h),
//    shared with the regional combiner tier — runs the pipeline's Finalize
//    stage: it merges the shards' partials per (window, group) and
//    finalizes exactly one row stream — identical, for exact aggregates, to
//    what a single instance would produce (tested).
//  * Raw-mode (no aggregates) queries shard trivially: every shard emits
//    finished rows for its slice and the coordinator just forwards them —
//    no merge step, since each joined tuple is wholly resident on one
//    shard.
//
// Execution is parallel: a fixed-size WorkerPool runs per-shard batch
// ingestion (decode + join + group + accumulate) and per-shard window-close
// partial computation concurrently — shards touch disjoint state, so no
// locks are needed inside the shard pipeline. Determinism for any worker
// count (including the inline workers == 0 path) comes from the merge
// discipline, not from execution order:
//
//  * shard sinks buffer partials/rows into a per-shard slot that only that
//    shard's task writes;
//  * the coordinator drains the slots in shard-index order after joining,
//    so partials merge in exactly the order the sequential loop produced;
//  * per-(window, group) accumulator state is mergeable, and within one
//    shard the event order is the batch arrival order, bit-identical to the
//    sequential path.
//
// Sampled queries (host- or event-level) shard too. Splitting the pipeline
// at WindowClose is what makes it work: the Eq. 1-3 estimator needs a
// global view of per-host populations that request-id slicing destroys on
// any single shard, so the router keeps the agents' sampling counters
// (M_i / m_i per host per slot) at the coordinator, shards collect
// per-(group, host) readings into their partials, and the coordinator's
// Finalize merges both globally and runs the estimator once per
// (window, group) — reporting an Eq. 2-3 error bound per group, which a
// single instance only provides for ungrouped plans.

#ifndef SRC_CENTRAL_SHARDED_CENTRAL_H_
#define SRC_CENTRAL_SHARDED_CENTRAL_H_

#include <memory>
#include <vector>

#include "src/central/central.h"
#include "src/central/coordinator.h"
#include "src/common/worker_pool.h"

namespace scrub {

class ShardedCentral {
 public:
  // `workers` sizes the execution pool: 0 runs everything inline on the
  // caller (the sequential reference path), k > 0 spawns k threads. Results
  // are bit-identical for every worker count.
  ShardedCentral(const SchemaRegistry* registry, size_t shards,
                 CentralConfig config = {}, size_t workers = 0);

  // Aggregate-mode plans merge per-shard partials; raw-mode plans forward
  // per-shard rows directly. Sampled plans get the coordinator-level
  // Eq. 1-3 Finalize (see above).
  Status InstallQuery(const CentralPlan& plan, ResultSink sink);
  void RemoveQuery(QueryId query_id);
  bool HasQuery(QueryId query_id) const {
    return coordinator_.HasQuery(query_id);
  }

  // Routes the batch's events to shards by request-id hash. The batch's
  // sampling counters stay at the coordinator (per-host population view for
  // the Finalize estimator and completeness accounting).
  Status IngestBatch(const EventBatch& batch, TimeMicros now);

  // Batched ingestion: decodes the batches on the pool, re-buckets, then
  // applies each shard's share concurrently. Per-shard event order is the
  // batch order, so results are bit-identical to feeding the batches
  // through IngestBatch one at a time. A batch that fails to decode (or
  // carries a type that is not one of its query's sources) is skipped
  // alone: every other batch is applied, and the first failure's status is
  // returned — the same state and status one-at-a-time ingestion leaves.
  Status IngestBatches(const std::vector<EventBatch>& batches,
                       TimeMicros now);

  // Ticks every shard (concurrently), then merges emitted partials in
  // shard-index order and finalizes coordinator windows whose lateness
  // bound has passed on all shards.
  void OnTick(TimeMicros now);

  size_t shard_count() const { return shards_.size(); }
  const ScrubCentral& shard(size_t i) const { return *shards_[i]; }
  const WorkerPool& pool() const { return pool_; }
  const PartialCoordinator& coordinator() const { return coordinator_; }
  // Events each shard ingested (balance diagnostics).
  std::vector<uint64_t> ShardLoads(QueryId query_id) const;
  // Per-operator metrics summed across shards, parallel to the shard
  // pipeline's ops (live view; retired shard stats still count). EXPLAIN
  // ANALYZE composes this with the coordinator's local Finalize metrics.
  std::vector<OperatorMetrics> ShardOpMetrics(QueryId query_id) const;
  // Router-level dedup hits for one query (retransmits raced their acks).
  uint64_t DuplicateBatches(QueryId query_id) const {
    return coordinator_.DuplicateBatches(query_id);
  }

 private:
  // Drains per-shard partial buffers in shard-index order (the determinism
  // keystone: merge order is a pure function of shard index, never of
  // thread completion order).
  void DrainPartials();
  // Forwards buffered raw-mode rows, again in shard-index order.
  void DrainShardRows();

  const SchemaRegistry* registry_;
  CentralConfig config_;
  std::vector<std::unique_ptr<ScrubCentral>> shards_;
  PartialCoordinator coordinator_;
  // Slot i is written only by shard i's task; drained between regions by
  // the coordinator thread.
  std::vector<std::vector<WindowPartial>> pending_partials_;
  std::vector<std::vector<ResultRow>> pending_rows_;
  WorkerPool pool_;
};

}  // namespace scrub

#endif  // SRC_CENTRAL_SHARDED_CENTRAL_H_
