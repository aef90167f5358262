// The benchmark's workloads: a bidsim platform shape, a Poisson request
// rate, and the query submissions replayed against the recorded traffic.
// Everything is a pure function of (workload name, seed).

#ifndef SCRUBBENCH_WORKLOADS_H_
#define SCRUBBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/bidsim/platform.h"
#include "src/cluster/host_registry.h"
#include "src/event/event.h"
#include "src/event/schema.h"

namespace scrubbench {

using scrub::TimeMicros;

// One query submission: entered at the start of replay tick `tick`, i.e. at
// simulated time (tick - 1) * flush interval.
struct Submission {
  int tick = 1;
  std::string text;
};

struct Workload {
  std::string name;
  scrub::PlatformConfig platform;
  double requests_per_second = 1000.0;
  TimeMicros horizon = 0;          // traffic is recorded over [0, horizon]
  size_t combiner_regions = 0;     // 0 = flat topology
  TimeMicros flush_interval = 500 * scrub::kMicrosPerMilli;
  std::vector<Submission> submissions;
};

// False if `name` is not a workload.
bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out);

// The recorded event stream, bucketed into replay ticks. Tick k (k >= 1)
// holds the events with timestamp in ((k-1) * interval, k * interval],
// grouped per host in ascending host order, each host's events in the order
// the application logged them.
struct HostEvents {
  scrub::HostId host = scrub::kInvalidHost;
  std::vector<scrub::Event> events;
};

struct Tick {
  std::vector<HostEvents> hosts;
  size_t events = 0;
};

struct Recording {
  // Owns the schemas every recorded event points at; the replay's central
  // decodes against the same registry.
  scrub::SchemaRegistry schemas;
  // The platform's hosts, in registration order (replays rebuild a fresh
  // registry from this so host ids match).
  std::vector<scrub::HostInfo> hosts;
  std::vector<Tick> ticks;  // ticks[0] is unused; ticks[k] is tick k
  size_t events = 0;
};

// Runs the bidsim platform under the workload's Poisson load and records
// every event its hosts log. This is the benchmark's setup: the application
// is the generator, so none of it is timed as Scrub work.
std::unique_ptr<Recording> RecordTraffic(const Workload& workload,
                                         uint64_t seed);

}  // namespace scrubbench

#endif  // SCRUBBENCH_WORKLOADS_H_
