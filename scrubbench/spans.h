// In-memory span recorder for the benchmark's layer breakdown.
//
// The replay wraps every call it makes into a Scrub component in a Scope
// naming the layer. Untraced runs time only the scopes the end-to-end
// metrics need (agent and central-tier CPU, harness wall time) and keep no
// span records. Traced runs time every scope and keep one Span per scope:
// its layer, thread-CPU start and end, the enclosing span and the (tick,
// host) it served. Spans stay in memory until the run ends; self time is a
// span's duration minus the durations of its direct children.

#ifndef SCRUBBENCH_SPANS_H_
#define SCRUBBENCH_SPANS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace scrubbench {

enum class Layer : uint8_t {
  kTick,               // root span of one replay tick
  kHarness,            // replay bookkeeping: event copies, heap sampling
  kServerAdmit,        // parse -> analyze -> lint -> plan
  kAgentInstall,       // ScrubAgent::InstallQuery
  kAgentRemove,        // ScrubAgent::RemoveQuery
  kAgentLog,           // ScrubAgent::LogEvent
  kAgentFlush,         // ScrubAgent::Flush + Retransmits
  kAgentAck,           // ScrubAgent::OnAck
  kTransportSend,      // Transport::Send
  kTransportDeliver,   // Scheduler delivery dispatch
  kCentralInstall,     // ScrubCentral / combiner / coordinator installs
  kCentralIngest,      // ScrubCentral::IngestBatch
  kCentralClose,       // ScrubCentral::OnTick
  kCombinerIngest,     // RegionalCombiner::IngestBatch
  kCombinerPump,       // RegionalCombiner::PumpUpstream + OnAck
  kCoordinatorAbsorb,  // PartialCoordinator::AdmitSequenced/Absorb*
  kCoordinatorClose,   // PartialCoordinator::OnTick
  kCount,
};

inline constexpr size_t kLayerCount = static_cast<size_t>(Layer::kCount);

const char* LayerName(Layer layer);

// Which tier a layer's CPU is charged to in the end-to-end metrics.
bool IsAgentLayer(Layer layer);
bool IsCentralTierLayer(Layer layer);

int64_t ThreadCpuNs();
int64_t WallNs();

struct Span {
  Layer layer = Layer::kTick;
  int32_t parent = -1;  // index into the span vector, -1 for roots
  int32_t tick = -1;
  int32_t host = -1;    // -1 when the span serves no single host
  int64_t start_ns = 0;  // thread CPU clock
  int64_t end_ns = 0;
};

using LayerTotals = std::array<int64_t, kLayerCount>;

class Tracer {
 public:
  explicit Tracer(bool traced) : traced_(traced) { totals_.fill(0); }

  class Scope {
   public:
    Scope(Tracer& tracer, Layer layer, int tick, int host = -1)
        : tracer_(tracer) {
      tracer_.Begin(layer, tick, host);
    }
    ~Scope() { tracer_.End(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
  };

  bool traced() const { return traced_; }
  // Inclusive thread-CPU ns per layer over every timed scope.
  const LayerTotals& totals() const { return totals_; }
  // Wall ns spent in harness scopes (subtracted from replay wall time).
  int64_t harness_wall_ns() const { return harness_wall_ns_; }
  const std::vector<Span>& spans() const { return spans_; }

  // Self time per layer, from the recorded spans (traced runs only).
  LayerTotals SelfTimes() const;

  // Tab-separated dump: name, start, end, parent, tick, host.
  bool WriteTsv(const std::string& path) const;

 private:
  struct Open {
    Layer layer;
    bool timed;
    int32_t span;
    int64_t cpu0;
    int64_t wall0;
  };

  void Begin(Layer layer, int tick, int host);
  void End();

  bool traced_;
  LayerTotals totals_;
  int64_t harness_wall_ns_ = 0;
  std::vector<Open> stack_;
  std::vector<Span> spans_;
};

}  // namespace scrubbench

#endif  // SCRUBBENCH_SPANS_H_
