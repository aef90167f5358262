// The full-logging baseline Scrub is contrasted against (Sections 1, 8.1,
// 8.4 of the paper).
//
// Discipline: queries are not known a priori, so EVERY event, with ALL its
// fields, is serialized on the host, shipped over the network to a central
// warehouse, stored, and queried later in batch. This pipeline reuses the
// same event codec and the same query-answering machinery (ScrubCentral run
// offline over the stored log), so the comparison with Scrub isolates
// exactly the strategy difference: ship-everything-then-ask versus
// ask-then-ship-only-what-matches.
//
// The E11 experiment reads three costs from here: host CPU spent
// serializing, bytes moved (TrafficCategory::kBaselineLog), and
// time-to-answer (data must finish arriving before the batch job can run).

#ifndef SRC_BASELINE_LOGGING_BASELINE_H_
#define SRC_BASELINE_LOGGING_BASELINE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/bidsim/platform.h"
#include "src/central/central.h"
#include "src/cluster/host_registry.h"
#include "src/cluster/scheduler.h"
#include "src/cluster/transport.h"
#include "src/query/analyzer.h"

namespace scrub {

struct BaselineConfig {
  // Events per shipped log batch (0 = do not split: one batch per flush).
  size_t max_batch_events = 1024;
  // Per-event scan cost of the batch query engine (a Hadoop-style pass over
  // the warehouse touches every stored event).
  int64_t scan_cost_ns = 250;
  CostModel costs;
};

class LoggingPipeline {
 public:
  LoggingPipeline(Scheduler* scheduler, Transport* transport,
                  HostRegistry* registry, const SchemaRegistry* schemas,
                  HostId warehouse_host, BaselineConfig config = {});

  // The platform-facing logger: charges the host for full serialization and
  // stages the event for shipping. Install via
  // platform.SetEventLogger(pipeline.Logger()).
  EventLoggerFn Logger();

  // Ships staged events to the warehouse. Call on a flush cadence.
  void PumpFlushes();

  // ---- Warehouse state ----
  uint64_t events_stored() const { return stored_.size(); }
  uint64_t bytes_stored() const { return bytes_stored_; }
  // Simulated instant the last shipped event landed in the warehouse.
  TimeMicros data_complete_at() const { return last_arrival_; }

  // ---- Batch querying ----
  struct BatchAnswer {
    std::vector<ResultRow> rows;
    uint64_t events_scanned = 0;  // full warehouse scan
    int64_t processing_ns = 0;    // scan + query execution cost
    // Earliest simulated time the answer could exist: all data arrived,
    // then the batch job ran.
    TimeMicros answer_at = 0;
  };
  Result<BatchAnswer> RunQuery(std::string_view query_text,
                               const AnalyzerOptions& options = {});

 private:
  struct StoredEvent {
    HostId host = kInvalidHost;
    Event event;
  };

  Scheduler* scheduler_;
  Transport* transport_;
  HostRegistry* registry_;
  const SchemaRegistry* schemas_;
  HostId warehouse_host_;
  BaselineConfig config_;

  // Host-side staging: events waiting for the next ship.
  std::unordered_map<HostId, std::vector<Event>> staged_;
  std::vector<StoredEvent> stored_;
  uint64_t bytes_stored_ = 0;
  TimeMicros last_arrival_ = 0;
  QueryId next_query_id_ = 1;
};

}  // namespace scrub

#endif  // SRC_BASELINE_LOGGING_BASELINE_H_
