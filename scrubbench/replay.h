// One replay pass: the recorded traffic driven tick by tick through fresh
// Scrub components, single-threaded, in ScrubSystem::PumpFlushes order.
//
// Per tick k (simulated time T = k * flush interval):
//   1. admission: queries that expired by the tick's start are removed from
//      their agents; due submissions run parse -> analyze -> lint -> plan
//      and install on central (or the combiner tier) and every target
//      agent;
//   2. the tick's events are handed to each host's agent;
//   3. flush at T: every agent's Flush + Retransmits, the batches handed to
//      the transport in host order, combiner PumpUpstream, central OnTick,
//      coordinator OnTick;
//   4. delivery: the scheduler runs to T + interval/2 (every batch and
//      envelope lands) and then to T + interval - 1 (every ack lands).
//      Delivery closures only queue work; the replay then calls the
//      receiving component for the whole queue, so each layer is timed per
//      (tick, layer) or (tick, host) loop rather than per call. Each queued
//      batch is ingested with its own delivery time.
// The next tick's events are handed over only after all of that returned
// (a closed loop).

#ifndef SCRUBBENCH_REPLAY_H_
#define SCRUBBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "scrubbench/spans.h"
#include "scrubbench/workloads.h"
#include "src/central/executor.h"

namespace scrubbench {

struct QueryOutcome {
  size_t submission = 0;  // index into Workload::submissions
  scrub::QueryId id = 0;
  TimeMicros submit_time = 0;
  int tick = 0;
  bool sampled = false;
  bool hierarchical = false;
  std::vector<scrub::ResultRow> rows;
};

// Sums over every (host, query) or query of one pass.
struct PassCounts {
  // Deterministic for a seed: compared exactly across passes.
  uint64_t events = 0;            // events handed to LogEvent
  uint64_t ticks = 0;
  uint64_t rows = 0;
  uint64_t batches = 0;           // agent batches flushed (incl. heartbeats)
  uint64_t batch_events = 0;      // events carried by those batches
  uint64_t egress_bytes = 0;      // EventBatch::WireSize of those batches
  uint64_t central_link_bytes = 0;  // raw batches + partials into central
  uint64_t partial_bytes = 0;     // the partial envelopes alone
  uint64_t messages = 0;          // transport messages, all categories
  uint64_t host_installs = 0;     // (host, query) installs
  uint64_t submissions = 0;
  uint64_t partials_shipped = 0;  // WindowPartials in combiner envelopes
  uint64_t partials_absorbed = 0;
  // Agent counters.
  uint64_t considered = 0;
  uint64_t shipped = 0;
  uint64_t agent_shed = 0;        // staging drops + abandoned batches
  // Central-tier counters (flat central plus the combiners' inner centrals).
  uint64_t ingested = 0;
  uint64_t late = 0;
  uint64_t central_shed = 0;      // join shed + memory-pressure shed
  uint64_t join_events = 0;       // events ingested by join queries
  uint64_t tuples_joined = 0;
  uint64_t windows_closed = 0;    // flat central
  uint64_t coordinator_windows = 0;
  // Batches of combiner-routed queries seen by the flat IngestBatch.
  uint64_t flat_batches_for_combiner_queries = 0;
};

struct PassResult {
  std::string error;  // admission or install failure
  PassCounts counts;
  std::vector<QueryOutcome> queries;
  std::vector<double> freshness_ms;  // simulated, one per emitted row
  // Measured.
  double replay_wall_s = 0.0;   // tick loop wall time minus harness time
  int64_t pass_cpu_ns = 0;      // thread CPU of the whole tick loop
  std::vector<double> submit_ms;
  int64_t heap_peak_bytes = 0;  // peak in-use heap minus pre-pass baseline
  int64_t install_heap_bytes = 0;  // in-use heap delta across agent installs
  int64_t modeled_agent_ns = 0;    // CostMeter::scrub_ns over all agents
  // Central operator metrics (decode / join / fold), cpu and rows.
  uint64_t decode_cpu_ns = 0, decode_rows = 0;
  uint64_t join_cpu_ns = 0, join_rows = 0;
  uint64_t fold_cpu_ns = 0, fold_rows = 0;
  uint64_t peak_state_bytes = 0;  // central + combiner state accountants
};

PassResult RunPass(const Workload& workload, const Recording& recording,
                   uint64_t seed, Tracer& tracer);

}  // namespace scrubbench

#endif  // SCRUBBENCH_REPLAY_H_
