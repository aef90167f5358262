#include "scrubbench/spans.h"

#include <time.h>

#include <cstdio>

namespace scrubbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kTick: return "tick";
    case Layer::kHarness: return "harness";
    case Layer::kServerAdmit: return "server.admit";
    case Layer::kAgentInstall: return "agent.install";
    case Layer::kAgentRemove: return "agent.remove";
    case Layer::kAgentLog: return "agent.log";
    case Layer::kAgentFlush: return "agent.flush";
    case Layer::kAgentAck: return "agent.ack";
    case Layer::kTransportSend: return "transport.send";
    case Layer::kTransportDeliver: return "transport.deliver";
    case Layer::kCentralInstall: return "central.install";
    case Layer::kCentralIngest: return "central.ingest";
    case Layer::kCentralClose: return "central.close";
    case Layer::kCombinerIngest: return "combiner.ingest";
    case Layer::kCombinerPump: return "combiner.pump";
    case Layer::kCoordinatorAbsorb: return "coordinator.absorb";
    case Layer::kCoordinatorClose: return "coordinator.close";
    case Layer::kCount: break;
  }
  return "?";
}

bool IsAgentLayer(Layer layer) {
  return layer == Layer::kAgentInstall || layer == Layer::kAgentRemove ||
         layer == Layer::kAgentLog || layer == Layer::kAgentFlush ||
         layer == Layer::kAgentAck;
}

bool IsCentralTierLayer(Layer layer) {
  return layer == Layer::kCentralInstall || layer == Layer::kCentralIngest ||
         layer == Layer::kCentralClose || layer == Layer::kCombinerIngest ||
         layer == Layer::kCombinerPump || layer == Layer::kCoordinatorAbsorb ||
         layer == Layer::kCoordinatorClose;
}

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

int64_t WallNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

void Tracer::Begin(Layer layer, int tick, int host) {
  Open open{layer, false, -1, 0, 0};
  if (layer == Layer::kHarness) {
    open.wall0 = WallNs();
  }
  // Untraced runs read the CPU clock only where an end-to-end metric needs
  // it, so the untraced replay pays as little timing overhead as possible.
  open.timed = traced_ || IsAgentLayer(layer) || IsCentralTierLayer(layer);
  if (open.timed) {
    open.cpu0 = ThreadCpuNs();
  }
  if (traced_) {
    open.span = static_cast<int32_t>(spans_.size());
    Span span;
    span.layer = layer;
    span.parent = stack_.empty() ? -1 : stack_.back().span;
    span.tick = tick;
    span.host = host;
    span.start_ns = open.cpu0;
    spans_.push_back(span);
  }
  stack_.push_back(open);
}

void Tracer::End() {
  const Open open = stack_.back();
  stack_.pop_back();
  if (open.timed) {
    const int64_t cpu1 = ThreadCpuNs();
    totals_[static_cast<size_t>(open.layer)] += cpu1 - open.cpu0;
    if (open.span >= 0) {
      spans_[static_cast<size_t>(open.span)].end_ns = cpu1;
    }
  }
  if (open.layer == Layer::kHarness) {
    harness_wall_ns_ += WallNs() - open.wall0;
  }
}

LayerTotals Tracer::SelfTimes() const {
  std::vector<int64_t> child(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  LayerTotals self;
  self.fill(0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[static_cast<size_t>(s.layer)] += s.end_ns - s.start_ns - child[i];
  }
  return self;
}

bool Tracer::WriteTsv(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "name\tstart_ns\tend_ns\tparent\ttick\thost\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%s\t%lld\t%lld\t%d\t%d\t%d\n", LayerName(s.layer),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, s.tick, s.host);
  }
  return std::fclose(f) == 0;
}

}  // namespace scrubbench
