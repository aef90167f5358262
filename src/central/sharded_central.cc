#include "src/central/sharded_central.h"

#include <cassert>
#include <utility>

#include "src/common/strings.h"
#include "src/event/wire.h"
#include "src/sketch/hyperloglog.h"

namespace scrub {

ShardedCentral::ShardedCentral(const SchemaRegistry* registry, size_t shards,
                               CentralConfig config, size_t workers)
    : registry_(registry),
      config_(config),
      coordinator_(config),
      pending_partials_(shards),
      pending_rows_(shards),
      pool_(workers) {
  assert(shards > 0);
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    // Each shard gets its own spill namespace and fault seed: file names in
    // a shared spill directory never collide, and each shard's fault stream
    // is consumed in that shard's own fold order, so runs stay deterministic
    // for any worker count.
    CentralConfig shard_config = config;
    shard_config.spill_instance =
        config.spill_instance + "_s" + std::to_string(i);
    shard_config.spill_seed =
        config.spill_seed ^ (0x9E3779B97F4A7C15ULL * (i + 1));
    shards_.push_back(
        std::make_unique<ScrubCentral>(registry, std::move(shard_config)));
  }
}

Status ShardedCentral::InstallQuery(const CentralPlan& plan,
                                    ResultSink sink) {
  if (sink == nullptr) {
    return InvalidArgument("result sink must be set");
  }
  if (coordinator_.HasQuery(plan.query_id)) {
    return AlreadyExists(StrFormat(
        "query %llu already installed",
        static_cast<unsigned long long>(plan.query_id)));
  }
  // Install on every shard first; roll back on failure so a rejected plan
  // leaves no residue. Shards see only an event slice, so their per-window
  // completeness would be meaningless noise — zeroing hosts_sampled in the
  // shard copy marks the expected set unknown there; the coordinator
  // computes completeness from the full batches it routes. For the same
  // reason shards never run the estimator: their pipeline (shard role)
  // stops at WindowClose, and the coordinator holds the global counters.
  CentralPlan shard_plan = plan;
  shard_plan.hosts_sampled = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    Status s;
    if (plan.aggregate_mode) {
      // Sinks buffer into the shard's own slot; the coordinator drains the
      // slots in shard-index order (DrainPartials), which is what keeps the
      // merge deterministic for any worker count.
      s = shards_[i]->InstallQueryPartial(
          shard_plan, [this, i](WindowPartial&& partial) {
            pending_partials_[i].push_back(std::move(partial));
          });
    } else {
      // Raw mode shards trivially: each joined tuple lives wholly on one
      // shard, so shards emit finished rows and no merge is needed.
      s = shards_[i]->InstallQuery(
          shard_plan, [this, i](const ResultRow& row) {
            pending_rows_[i].push_back(row);
          });
    }
    if (!s.ok()) {
      for (size_t j = 0; j < i; ++j) {
        shards_[j]->RemoveQuery(plan.query_id);
      }
      return s;
    }
  }
  return coordinator_.InstallQuery(plan, std::move(sink));
}

void ShardedCentral::RemoveQuery(QueryId query_id) {
  // Shards flush their open windows (partials and raw rows land in the
  // per-shard buffers), then the coordinator drains in shard order and
  // finalizes whatever it holds.
  for (auto& shard : shards_) {
    shard->RemoveQuery(query_id);
  }
  DrainShardRows();
  DrainPartials();
  coordinator_.RemoveQuery(query_id);
}

Status ShardedCentral::IngestBatch(const EventBatch& batch, TimeMicros now) {
  return IngestBatches({batch}, now);
}

Status ShardedCentral::IngestBatches(const std::vector<EventBatch>& batches,
                                     TimeMicros now) {
  (void)now;
  // Serial admission pass, in batch order: routing, dedup, completeness
  // accounting. All coordinator state; cheap relative to decode + fold.
  std::vector<const EventBatch*> admitted;
  admitted.reserve(batches.size());
  for (const EventBatch& batch : batches) {
    // Dedup here, before re-bucketing: sub-batches are unsequenced. A false
    // return is either a duplicate (counted at the coordinator) or a query
    // that raced teardown — both skip, mirroring ScrubCentral's behaviour.
    if (!coordinator_.AdmitSequenced(batch.query_id, batch.host, batch.epoch,
                                     batch.seq)) {
      continue;
    }
    // Record host presence per slide-grid slot for completeness accounting,
    // and — for sampled plans — keep the global per-host M_i / m_i the
    // coordinator's Finalize estimator needs. This happens pre-re-bucket,
    // so slicing by request id never fragments the population view.
    coordinator_.AbsorbCounters(batch.query_id, batch.host, batch.counters);
    if (batch.event_count == 0) {
      continue;
    }
    admitted.push_back(&batch);
  }

  // Parallel decode: each batch is independent and the decoder reads only
  // the (immutable) schema registry and plans. Every format decodes to one
  // ColumnSlice whose shared sections the shard tasks later index read-only
  // through per-shard row lists; the ParallelFor join orders the decode
  // before every shard read. A batch whose sections are not all plan sources
  // fails here, whole, like an undecodable payload.
  std::vector<ColumnSlice> decoded(admitted.size());
  std::vector<Status> decode_status(admitted.size());
  pool_.ParallelFor(admitted.size(), [&](size_t k) {
    const EventBatch& batch = *admitted[k];
    Result<ColumnSlice> slice =
        DecodeColumnSlice(*registry_, batch.format, batch.payload);
    if (!slice.ok()) {
      decode_status[k] = slice.status();
      return;
    }
    Result<std::vector<int>> sources =
        SliceSources(*coordinator_.PlanFor(batch.query_id), *slice);
    if (!sources.ok()) {
      decode_status[k] = sources.status();
      return;
    }
    decoded[k] = std::move(slice).value();
  });

  // Re-bucket by request id so join partners colocate, position by position
  // through the arrival interleave: each shard's sub-slice keeps the arrival
  // order of the requests it owns, so the per-shard event order is identical
  // to the one-batch-at-a-time path. A failing batch is skipped alone — its
  // seq is admitted and its counters absorbed, exactly what IngestBatch
  // leaves behind — and the first failure is returned.
  struct ShardWork {
    QueryId query_id;
    HostId host;
    ColumnSlice slice;
  };
  std::vector<std::vector<ShardWork>> work(shards_.size());
  Status failure = OkStatus();
  for (size_t k = 0; k < admitted.size(); ++k) {
    if (!decode_status[k].ok()) {
      if (failure.ok()) {
        failure = decode_status[k];
      }
      continue;
    }
    const ColumnSlice& slice = decoded[k];
    std::vector<ColumnSlice> buckets(shards_.size());
    for (size_t i = 0; i < slice.size(); ++i) {
      const uint8_t section = slice.section(i);
      const uint32_t row = slice.row(i);
      ColumnSlice& bucket = buckets[static_cast<size_t>(
          HashMix64(slice.sections[section]->request_id(row)) %
          shards_.size())];
      if (!slice.order.empty()) {
        bucket.order.push_back(section);
      }
      bucket.rows.push_back(row);
    }
    for (size_t s = 0; s < shards_.size(); ++s) {
      if (buckets[s].rows.empty()) {
        continue;
      }
      buckets[s].sections = slice.sections;  // shared, read-only
      work[s].push_back(ShardWork{admitted[k]->query_id, admitted[k]->host,
                                  std::move(buckets[s])});
    }
  }

  // Parallel fold: shard s's task touches only shard s (plus its own
  // pending_rows_ slot for raw-mode queries), reading the shared sections
  // through its own row lists — read-only, so no locks.
  std::vector<Status> shard_status(shards_.size());
  pool_.ParallelFor(shards_.size(), [&](size_t s) {
    for (const ShardWork& sw : work[s]) {
      const Status st = shards_[s]->IngestSlice(sw.query_id, sw.host, sw.slice);
      if (!st.ok() && shard_status[s].ok()) {
        shard_status[s] = st;
      }
    }
  });
  DrainShardRows();  // raw-mode rows are emitted eagerly during the fold
  for (size_t s = 0; s < shards_.size() && failure.ok(); ++s) {
    failure = shard_status[s];
  }
  return failure;
}

void ShardedCentral::DrainPartials() {
  for (size_t i = 0; i < pending_partials_.size(); ++i) {
    for (WindowPartial& partial : pending_partials_[i]) {
      coordinator_.AbsorbPartial(std::move(partial));
    }
    pending_partials_[i].clear();
  }
}

void ShardedCentral::DrainShardRows() {
  for (size_t i = 0; i < pending_rows_.size(); ++i) {
    for (const ResultRow& row : pending_rows_[i]) {
      coordinator_.ForwardRow(row);
    }
    pending_rows_[i].clear();
  }
}

void ShardedCentral::OnTick(TimeMicros now) {
  // Window closes (partial computation: finalize per-group state, package
  // mergeable accumulators) run shard-concurrently; each shard's partials
  // buffer into its own slot.
  pool_.ParallelFor(shards_.size(),
                    [&](size_t i) { shards_[i]->OnTick(now); });
  DrainShardRows();
  DrainPartials();
  // Shards have emitted every window whose end + lateness has passed (and
  // retired expired queries, flushing the rest); finalize those windows.
  coordinator_.OnTick(now);
}

std::vector<OperatorMetrics> ShardedCentral::ShardOpMetrics(
    QueryId query_id) const {
  std::vector<OperatorMetrics> merged;
  for (const auto& shard : shards_) {
    const CentralQueryStats* stats = shard->StatsFor(query_id);
    if (stats != nullptr) {
      MergeOperatorMetrics(merged, stats->op_metrics);
    }
  }
  return merged;
}

std::vector<uint64_t> ShardedCentral::ShardLoads(QueryId query_id) const {
  std::vector<uint64_t> loads;
  loads.reserve(shards_.size());
  for (const auto& shard : shards_) {
    const CentralQueryStats* stats = shard->StatsFor(query_id);
    loads.push_back(stats == nullptr ? 0 : stats->events_ingested);
  }
  return loads;
}

}  // namespace scrub
