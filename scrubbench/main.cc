// scrub_bench: replays recorded bidsim traffic through Scrub's agents,
// transport, central tier, combiners and coordinator, checks the results
// against the reference executor, and reports end-to-end metrics (untraced
// run) or per-layer metrics (traced run) as one JSON line.
//
//   scrub_bench --workload mixed_flat --seed 1 --seconds 10 --trace 0
//               [--trace-out spans.tsv]
//
// See METRICS.md for every metric, its unit and its layer.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "scrubbench/oracle.h"
#include "scrubbench/replay.h"
#include "scrubbench/spans.h"
#include "scrubbench/workloads.h"
#include "src/common/strings.h"

namespace scrubbench {
namespace {

constexpr int kSetupRepeats = 5;
constexpr int kMinTimedPasses = 4;

// Reference-speed normalization. A shared virtual machine's speed drifts by
// 20-30% between regimes lasting seconds to minutes, moving every timing of
// a run together (over six 30 s mixed_flat runs, this kernel's speed and the
// replay's correlated 0.97). A fixed CPU kernel, sharing no code with Scrub
// and allocation-free, runs before every pass and every setup; each timing
// is reported at the speed where the kernel takes kNominalKernelNs (its
// typical thread-CPU time on a 2.1 GHz Xeon VM), i.e. divided by the
// kernel's measured / nominal time over the same passes.
constexpr double kNominalKernelNs = 13e6;

class ReferenceKernel {
 public:
  ReferenceKernel() : keys_(1 << 18), values_(1 << 18), input_(1 << 17),
                      sorted_(1 << 17) {
    uint64_t x = 88172645463325252ULL;
    for (uint64_t& v : input_) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      v = x;
    }
  }

  // Open-addressing hash upserts plus a sort, in preallocated buffers.
  // Returns the thread-CPU ns it took.
  int64_t Run() {
    const int64_t t0 = ThreadCpuNs();
    std::fill(keys_.begin(), keys_.end(), 0);
    const uint64_t mask = keys_.size() - 1;
    for (const uint64_t v : input_) {
      const uint64_t key = v % 60000 + 1;
      uint64_t h = (key * 0x9E3779B97F4A7C15ULL) >> 46;
      while (keys_[h & mask] != 0 && keys_[h & mask] != key) {
        ++h;
      }
      keys_[h & mask] = key;
      values_[h & mask] += v;
    }
    std::copy(input_.begin(), input_.end(), sorted_.begin());
    std::sort(sorted_.begin(), sorted_.end());
    checksum_ += sorted_[7] + values_[3];
    return ThreadCpuNs() - t0;
  }

  // Printed with the report, so the kernel's work is observable.
  uint64_t checksum() const { return checksum_; }

 private:
  std::vector<uint64_t> keys_, values_, input_, sorted_;
  uint64_t checksum_ = 0;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1 && args->seconds > 0;
}

// Linear-interpolated percentile (q in [0, 1]) of unsorted samples.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Percentile(v, 0.5); }

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

uint64_t Fnv(uint64_t h, const std::string& s) {
  for (const unsigned char c : s) {
    h = (h ^ c) * 1099511628211ULL;
  }
  return h;
}

// Everything a pass must reproduce exactly for one seed.
std::string Fingerprint(const PassResult& r) {
  const PassCounts& c = r.counts;
  std::string out = scrub::StrFormat(
      "events=%llu ticks=%llu rows=%llu batches=%llu batch_events=%llu "
      "egress_bytes=%llu central_link_bytes=%llu messages=%llu",
      static_cast<unsigned long long>(c.events),
      static_cast<unsigned long long>(c.ticks),
      static_cast<unsigned long long>(c.rows),
      static_cast<unsigned long long>(c.batches),
      static_cast<unsigned long long>(c.batch_events),
      static_cast<unsigned long long>(c.egress_bytes),
      static_cast<unsigned long long>(c.central_link_bytes),
      static_cast<unsigned long long>(c.messages));
  uint64_t h = 1469598103934665603ULL;
  for (const QueryOutcome& q : r.queries) {
    for (const scrub::ResultRow& row : q.rows) {
      h = Fnv(h, scrub::StrFormat("%llu w%lld %s c=%.17g f=%.17g|",
                                  static_cast<unsigned long long>(q.id),
                                  static_cast<long long>(row.window_start),
                                  row.ToString().c_str(), row.completeness,
                                  row.fidelity));
    }
  }
  return out + scrub::StrFormat(" rows_digest=%016llx",
                                static_cast<unsigned long long>(h));
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

using LayerMetrics = std::map<std::string, double>;

double AgentCpu(const LayerTotals& t) {
  double sum = 0.0;
  for (size_t i = 0; i < kLayerCount; ++i) {
    if (IsAgentLayer(static_cast<Layer>(i))) {
      sum += static_cast<double>(t[i]);
    }
  }
  return sum;
}

double CentralCpu(const LayerTotals& t) {
  double sum = 0.0;
  for (size_t i = 0; i < kLayerCount; ++i) {
    if (IsCentralTierLayer(static_cast<Layer>(i))) {
      sum += static_cast<double>(t[i]);
    }
  }
  return sum;
}

// Per-layer metrics of a traced pass `r` with span self times `self`.
LayerMetrics PerLayer(const PassResult& r, const LayerTotals& self) {
  auto s = [&self](Layer l) {
    return static_cast<double>(self[static_cast<size_t>(l)]);
  };
  const PassCounts& c = r.counts;
  const double events = static_cast<double>(c.events);
  const double installs = static_cast<double>(c.host_installs);
  LayerMetrics m;
  m["agent.log_ns_per_event"] = Ratio(s(Layer::kAgentLog), events);
  m["agent.flush_ns_per_event"] =
      Ratio(s(Layer::kAgentFlush) + s(Layer::kAgentAck), events);
  m["agent.install_us_per_query"] =
      Ratio(s(Layer::kAgentInstall) + s(Layer::kAgentRemove), installs) / 1e3;
  m["agent.heap_bytes_per_query"] =
      Ratio(static_cast<double>(r.install_heap_bytes), installs);
  m["agent.ship_ratio"] = Ratio(static_cast<double>(c.shipped),
                                static_cast<double>(c.considered));
  m["agent.shed_frac"] = Ratio(static_cast<double>(c.agent_shed),
                               static_cast<double>(c.considered));
  m["agent.modeled_ns_per_event"] =
      Ratio(static_cast<double>(r.modeled_agent_ns), events);
  m["agent.measured_ns_per_event"] = Ratio(AgentCpu(self), events);
  m["wire.egress_bytes_per_event"] =
      Ratio(static_cast<double>(c.egress_bytes), events);
  m["wire.events_per_batch"] = Ratio(static_cast<double>(c.batch_events),
                                     static_cast<double>(c.batches));
  m["wire.decode_ns_per_row"] = Ratio(static_cast<double>(r.decode_cpu_ns),
                                      static_cast<double>(r.decode_rows));
  m["transport.send_ns_per_msg"] =
      Ratio(s(Layer::kTransportSend) + s(Layer::kTransportDeliver),
            static_cast<double>(c.messages));
  m["transport.msgs_per_tick"] = Ratio(static_cast<double>(c.messages),
                                       static_cast<double>(c.ticks));
  m["central.ingest_ns_per_event"] = Ratio(s(Layer::kCentralIngest), events);
  m["central.join_ns_per_row"] = Ratio(static_cast<double>(r.join_cpu_ns),
                                       static_cast<double>(r.join_rows));
  m["central.fold_ns_per_row"] = Ratio(static_cast<double>(r.fold_cpu_ns),
                                       static_cast<double>(r.fold_rows));
  m["central.close_ns_per_window"] =
      Ratio(s(Layer::kCentralClose), static_cast<double>(c.windows_closed));
  m["central.late_frac"] = Ratio(static_cast<double>(c.late),
                                 static_cast<double>(c.ingested));
  m["central.join_match_ratio"] = Ratio(static_cast<double>(c.tuples_joined),
                                        static_cast<double>(c.join_events));
  m["central.peak_state_mb"] = static_cast<double>(r.peak_state_bytes) / 1e6;
  m["central.flat_batches_for_combiner_queries"] =
      static_cast<double>(c.flat_batches_for_combiner_queries);
  m["combiner.ingest_ns_per_event"] = Ratio(s(Layer::kCombinerIngest), events);
  m["combiner.pump_ns_per_partial"] =
      Ratio(s(Layer::kCombinerPump), static_cast<double>(c.partials_shipped));
  m["combiner.partial_bytes_per_event"] =
      Ratio(static_cast<double>(c.partial_bytes), events);
  m["coordinator.absorb_ns_per_partial"] =
      Ratio(s(Layer::kCoordinatorAbsorb),
            static_cast<double>(c.partials_absorbed));
  m["coordinator.close_ns_per_window"] =
      Ratio(s(Layer::kCoordinatorClose),
            static_cast<double>(c.coordinator_windows));
  m["server.admit_us_per_query"] =
      Ratio(s(Layer::kServerAdmit), static_cast<double>(c.submissions)) / 1e3;

  // Where the traced pass's CPU went. Shares are of the Scrub layers' self
  // time (harness and tick-root time excluded); coverage is every named
  // span's self time over the pass's thread CPU.
  double layers = 0.0, named = 0.0;
  for (size_t i = 0; i < kLayerCount; ++i) {
    const Layer l = static_cast<Layer>(i);
    if (l == Layer::kTick) {
      continue;
    }
    named += static_cast<double>(self[i]);
    if (l != Layer::kHarness) {
      layers += static_cast<double>(self[i]);
    }
  }
  m["trace.span_coverage"] = Ratio(named, static_cast<double>(r.pass_cpu_ns));
  m["share.harness"] =
      Ratio(s(Layer::kHarness), static_cast<double>(r.pass_cpu_ns));
  m["share.agent"] = Ratio(AgentCpu(self), layers);
  m["share.central"] = Ratio(s(Layer::kCentralInstall) +
                                 s(Layer::kCentralIngest) +
                                 s(Layer::kCentralClose),
                             layers);
  m["share.central_ingest_close"] =
      Ratio(s(Layer::kCentralIngest) + s(Layer::kCentralClose), layers);
  m["share.combiner"] =
      Ratio(s(Layer::kCombinerIngest) + s(Layer::kCombinerPump), layers);
  m["share.coordinator"] =
      Ratio(s(Layer::kCoordinatorAbsorb) + s(Layer::kCoordinatorClose),
            layers);
  m["share.transport"] =
      Ratio(s(Layer::kTransportSend) + s(Layer::kTransportDeliver), layers);
  m["share.server"] = Ratio(s(Layer::kServerAdmit), layers);
  return m;
}

std::string UnitOf(const std::string& name) {
  auto ends = [&name](const char* suffix) {
    const std::string s(suffix);
    return name.size() >= s.size() &&
           name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  if (ends("_ns_per_event") || ends("_ns_per_row") || ends("_ns_per_msg") ||
      ends("_ns_per_window") || ends("_ns_per_partial")) {
    return "ns";
  }
  if (ends("_us_per_query")) {
    return "us";
  }
  if (ends("_bytes_per_event") || ends("_bytes_per_query")) {
    return "B";
  }
  if (ends("_mb")) {
    return "MB";
  }
  if (ends("_per_tick") || ends("_per_batch") ||
      name == "central.flat_batches_for_combiner_queries") {
    return "count";
  }
  return "ratio";
}

// A timing's median and its worst-side tail: the most extreme percentile
// that still has at least ten samples beyond it (none below 11 samples).
void PrintTiming(const char* name, const std::vector<double>& v,
                 bool high_is_worse) {
  std::string tail = "tail n/a";
  if (v.size() >= 11) {
    const double beyond = 10.0 / static_cast<double>(v.size());
    const double q = high_is_worse ? 1.0 - beyond : beyond;
    tail = scrub::StrFormat("p%.4g %.6g", 100.0 * q, Percentile(v, q));
  }
  std::printf("timing %-22s median %.6g  %s  samples %zu\n", name, Median(v),
              tail.c_str(), v.size());
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<Metric>& metrics) {
  std::string out = scrub::StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    out += scrub::StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                            i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                            metrics[i].unit.c_str());
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: scrub_bench --workload <mixed_flat|fanout_churn|"
                 "fleet_hier> --seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <file>]\n");
    return 2;
  }
  Workload workload;
  if (!MakeWorkload(args.workload, args.seed, &workload)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  // Setup, several times: record the platform's traffic. Each setup time
  // is normalized by a kernel run just before it, and every recording of
  // one seed must hold the same events.
  ReferenceKernel kernel;
  std::vector<double> setup_s, setup_raw_s;
  std::unique_ptr<Recording> recording;
  std::vector<std::string> problems;
  size_t recorded_events = 0;
  for (int i = 0; i < kSetupRepeats; ++i) {
    recording.reset();
    const double speed = static_cast<double>(kernel.Run()) / kNominalKernelNs;
    const int64_t t0 = WallNs();
    recording = RecordTraffic(workload, args.seed);
    setup_raw_s.push_back(static_cast<double>(WallNs() - t0) / 1e9);
    setup_s.push_back(setup_raw_s.back() / speed);
    if (i > 0 && recording->events != recorded_events) {
      problems.push_back("setup recorded a different stream on repeat " +
                         std::to_string(i));
    }
    recorded_events = recording->events;
  }

  uint64_t attempted = 0, failed = 0;

  // Warm-up pass: fills caches and the allocator, and is the one checked
  // against the oracle. Every later pass must reproduce its fingerprint.
  Tracer warm_tracer(false);
  const PassResult warm =
      RunPass(workload, *recording, args.seed, warm_tracer);
  if (!warm.error.empty()) {
    std::fprintf(stderr, "replay failed: %s\n", warm.error.c_str());
    return 1;
  }
  for (const QueryOutcome& q : warm.queries) {
    ++attempted;
    if (q.sampled) {
      continue;  // no exact oracle; held to the fingerprint below
    }
    const std::string diff = CheckAgainstOracle(
        *recording, workload.submissions[q.submission].text, q.id,
        q.submit_time, q.tick, workload.flush_interval, q.rows);
    if (!diff.empty()) {
      ++failed;
      problems.push_back(scrub::StrFormat("query %llu: %s",
                                          static_cast<unsigned long long>(q.id),
                                          diff.c_str()));
    }
  }
  const std::string fingerprint = Fingerprint(warm);
  std::printf("counts: %s\n", fingerprint.c_str());

  // Timed passes. Throughput and CPU per event are totals over all passes
  // of a kind (events over wall time, CPU over events): the machine's speed
  // drifts between regimes lasting seconds, and a ratio of totals moves
  // smoothly with the mix where a per-pass median jumps between regimes.
  struct Totals {
    double events = 0, wall_s = 0, agent_ns = 0, central_ns = 0;
    double kernel_ns = 0;
    int passes = 0;
    // Measured kernel time over nominal: > 1 when the machine ran slow.
    double Speed() const {
      return passes == 0 ? 1.0 : kernel_ns / passes / kNominalKernelNs;
    }
  };
  Totals untraced, traced;
  std::vector<double> eps, host_ns, central_ns, submit_ms, heap_mb;
  // Traced passes: measured fields summed, then averaged into one pass.
  PassResult traced_mean;
  LayerTotals traced_self{};
  int traced_passes = 0;
  std::unique_ptr<Tracer> last_traced;
  const int64_t start = WallNs();
  for (int pass = 0;; ++pass) {
    // Stop once --seconds have passed (with enough passes for a median),
    // or at four times that if passes are slow, so a run always ends.
    const double elapsed = static_cast<double>(WallNs() - start) / 1e9;
    if ((elapsed >= args.seconds && pass >= kMinTimedPasses) ||
        (elapsed >= 4 * args.seconds && pass >= 2)) {
      break;
    }
    // Traced runs alternate traced and untraced passes so the tracing
    // overhead is measured on the same machine state.
    const bool is_traced = args.trace && pass % 2 == 1;
    const int64_t kernel_ns = kernel.Run();
    auto tracer = std::make_unique<Tracer>(is_traced);
    PassResult r = RunPass(workload, *recording, args.seed, *tracer);
    const double events = static_cast<double>(r.counts.events);
    attempted += r.queries.size();
    if (!r.error.empty() || Fingerprint(r) != fingerprint) {
      failed += r.queries.size();
      problems.push_back("pass " + std::to_string(pass) +
                         " did not reproduce the warm-up pass: " +
                         (r.error.empty() ? Fingerprint(r) : r.error));
      continue;
    }
    Totals& t = is_traced ? traced : untraced;
    t.events += events;
    t.wall_s += r.replay_wall_s;
    t.kernel_ns += static_cast<double>(kernel_ns);
    ++t.passes;
    if (is_traced) {
      const LayerTotals self = tracer->SelfTimes();
      for (size_t i = 0; i < kLayerCount; ++i) {
        traced_self[i] += self[i];
      }
      if (traced_passes++ == 0) {
        traced_mean = r;
      } else {
        traced_mean.pass_cpu_ns += r.pass_cpu_ns;
        traced_mean.install_heap_bytes += r.install_heap_bytes;
        traced_mean.decode_cpu_ns += r.decode_cpu_ns;
        traced_mean.join_cpu_ns += r.join_cpu_ns;
        traced_mean.fold_cpu_ns += r.fold_cpu_ns;
      }
      last_traced = std::move(tracer);
      continue;
    }
    t.agent_ns += AgentCpu(tracer->totals());
    t.central_ns += CentralCpu(tracer->totals());
    eps.push_back(Ratio(events, r.replay_wall_s));
    host_ns.push_back(Ratio(AgentCpu(tracer->totals()), events));
    central_ns.push_back(Ratio(CentralCpu(tracer->totals()), events));
    submit_ms.insert(submit_ms.end(), r.submit_ms.begin(), r.submit_ms.end());
    heap_mb.push_back(static_cast<double>(r.heap_peak_bytes) / 1e6);
  }
  if (traced_passes > 0) {
    // Mean over the traced passes, at reference speed.
    const double n = traced_passes * traced.Speed();
    auto scale = [n](auto& v) {
      v = static_cast<std::remove_reference_t<decltype(v)>>(
          static_cast<double>(v) / n);
    };
    for (int64_t& v : traced_self) {
      scale(v);
    }
    scale(traced_mean.pass_cpu_ns);
    scale(traced_mean.decode_cpu_ns);
    scale(traced_mean.join_cpu_ns);
    scale(traced_mean.fold_cpu_ns);
    traced_mean.install_heap_bytes /= traced_passes;
  }
  const double speed = untraced.Speed();

  const PassCounts& c = warm.counts;
  const double events = static_cast<double>(c.events);
  std::vector<Metric> metrics;
  if (!args.trace) {
    const double lost = static_cast<double>(c.agent_shed + c.late +
                                            c.central_shed);
    metrics = {
        {"events_per_s", "1/s",
         Ratio(untraced.events, untraced.wall_s) * speed},
        {"host_ns_per_event", "ns",
         Ratio(untraced.agent_ns, untraced.events) / speed},
        {"central_ns_per_event", "ns",
         Ratio(untraced.central_ns, untraced.events) / speed},
        {"central_link_bytes_per_event", "B",
         Ratio(static_cast<double>(c.central_link_bytes), events)},
        {"freshness_ms_p50", "sim_ms", Percentile(warm.freshness_ms, 0.5)},
        {"freshness_ms_p99", "sim_ms", Percentile(warm.freshness_ms, 0.99)},
        {"submit_ms_p50", "ms", Percentile(submit_ms, 0.5) / speed},
        {"submit_ms_p90", "ms", Percentile(submit_ms, 0.9) / speed},
        {"heap_peak_mb", "MB", Median(heap_mb)},
        {"events_counted_frac", "ratio",
         1.0 - Ratio(lost, static_cast<double>(c.considered))},
        {"setup_s", "s", Median(setup_s)},
    };
    std::printf("reference kernel: %.3f ms per run over %d passes, nominal "
                "%.3f ms (speed factor %.4f, checksum %llx; the timings "
                "below are raw)\n",
                untraced.kernel_ns / std::max(1, untraced.passes) / 1e6,
                untraced.passes, kNominalKernelNs / 1e6, speed,
                static_cast<unsigned long long>(kernel.checksum()));
    PrintTiming("events_per_s", eps, /*high_is_worse=*/false);
    PrintTiming("host_ns_per_event", host_ns, true);
    PrintTiming("central_ns_per_event", central_ns, true);
    PrintTiming("submit_ms", submit_ms, true);
    PrintTiming("heap_peak_mb", heap_mb, true);
    PrintTiming("freshness_ms", warm.freshness_ms, true);
    PrintTiming("setup_s (raw)", setup_raw_s, true);
  } else {
    for (const auto& [name, value] : PerLayer(traced_mean, traced_self)) {
      metrics.push_back({name, UnitOf(name), value});
    }
    metrics.push_back(
        {"trace.events_per_s_ratio", "ratio",
         Ratio(Ratio(traced.events, traced.wall_s) * traced.Speed(),
               Ratio(untraced.events, untraced.wall_s) * speed)});
    const double coverage =
        traced_passes > 0 ? PerLayer(traced_mean, traced_self)
                                .at("trace.span_coverage")
                          : 0.0;
    if (coverage < 0.95) {
      problems.push_back(scrub::StrFormat(
          "named spans cover only %.3f of the traced passes' CPU", coverage));
      ++failed;
    }
    if (last_traced != nullptr && !args.trace_out.empty() &&
        !last_traced->WriteTsv(args.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
    }
    std::printf("samples: traced passes=%d untraced passes=%zu spans=%zu\n",
                traced_passes, eps.size(),
                last_traced ? last_traced->spans().size() : size_t{0});
  }
  for (const std::string& p : problems) {
    std::printf("MISMATCH %s\n", p.c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("%-44s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  PrintJson(problems.empty(), attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace scrubbench

int main(int argc, char** argv) { return scrubbench::Main(argc, argv); }
