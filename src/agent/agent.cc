#include "src/agent/agent.h"

#include <algorithm>
#include <utility>

#include "src/event/wire.h"
#include "src/plan/vectorized.h"

namespace scrub {

void ScrubAgent::InstallQuery(const HostPlan& plan) {
  // Idempotent: a retried install whose predecessor was delivered but whose
  // ack was lost must not wipe staged events or stats. Plans are immutable
  // per query id, so "already installed" means "nothing to do".
  if (queries_.count(plan.query_id) > 0) {
    return;
  }
  auto [it, inserted] = queries_.emplace(plan.query_id, ActiveQuery(plan));
  for (const HostSourcePlan& sp : plan.sources) {
    it->second.stats.source_types.push_back(sp.event_type);
  }
}

void ScrubAgent::RemoveQuery(QueryId query_id) {
  queries_.erase(query_id);
  staging_accountant_.ReleaseAll(query_id);  // staged events die with it
}

TimeMicros ScrubAgent::WindowStartFor(const ActiveQuery& q,
                                      TimeMicros ts) const {
  // Counters are kept per slide period; for tumbling queries the slide
  // equals the window, so this is the window grid.
  TimeMicros grid = q.plan.slide_micros;
  if (grid <= 0) {
    grid = q.plan.window_micros;
  }
  if (grid <= 0) {
    return q.plan.start_time;
  }
  const TimeMicros rel = ts - q.plan.start_time;
  return q.plan.start_time + (rel / grid) * grid;
}

void ScrubAgent::CountShed(ActiveQuery& q, TimeMicros ts) {
  const TimeMicros start = WindowStartFor(q, ts);
  WindowCounter& counter = q.pending_counters[start];
  counter.window_start = start;
  ++counter.shed;
}

void ScrubAgent::Stage(ActiveQuery& q, size_t source, const Event& event,
                       int64_t* shared_row) {
  // Row cap first, then the byte budget, both over the query's own staged
  // events. Staging keeps the un-projected event until the flush pre-pass,
  // so the budget is charged at the full wire size. Both degrade the same
  // way: drop, count, never block the application thread.
  if (StagedRows(q) >= config_.staging_capacity ||
      (staging_accountant_.active() &&
       !staging_accountant_.TryCharge(q.plan.query_id, event.WireSize()))) {
    ++q.stats.events_dropped;
    CountShed(q, event.timestamp());
    return;
  }
  if (*shared_row < 0) {
    ColumnBatch& batch =
        shared_.try_emplace(event.type_name(), event.schema()).first->second;
    batch.AppendEvent(event);
    *shared_row = static_cast<int64_t>(batch.rows()) - 1;
  }
  q.staged_rows[source].push_back(static_cast<uint32_t>(*shared_row));
  if (q.plan.sources.size() > 1) {
    q.staging_order.push_back(static_cast<uint8_t>(source));
  }
}

int64_t ScrubAgent::LogEvent(const Event& event) {
  ++total_events_logged_;
  const CostModel& c = config_.costs;
  // Fixed cost of the instrumentation point itself: metadata stamping plus
  // the active-query table lookup. Paid once per log() call whether or not
  // any query matches — this is the "no active query" floor the paper's
  // Section 9 measures.
  int64_t ns = c.log_fixed_ns +
               c.log_per_field_ns * static_cast<int64_t>(event.field_count());

  const TimeMicros ts = event.timestamp();
  int64_t shared_row = -1;  // appended to shared_ by the first accepting query
  for (auto& [qid, q] : queries_) {
    // Span check: cheap, and implements local self-expiry.
    if (ts < q.plan.start_time || ts >= q.plan.end_time) {
      continue;
    }
    const HostSourcePlan* sp = q.plan.FindSource(event.type_name());
    if (sp == nullptr) {
      continue;
    }
    ++q.stats.events_considered;

    // Window counters: M_i before anything else.
    const TimeMicros window_start = WindowStartFor(q, ts);
    WindowCounter& counter = q.pending_counters[window_start];
    counter.window_start = window_start;
    ++counter.seen;

    // 1. Event sampling, before any predicate work.
    if (q.plan.event_sample_rate < 1.0) {
      ns += c.sample_flip_ns;
      if (!rng_.NextBool(q.plan.event_sample_rate)) {
        ++q.stats.events_sampled_out;
        continue;
      }
    }
    ++counter.sampled;

    // 2. Staging: record the sampled event's row in the shared batch for
    // its type (appending it on first use) and defer selection + projection
    // to the vectorized flush pre-pass. Only the enqueue cost is paid at
    // log() time, per query; the predicate and projection charges are paid
    // at flush, where the work actually runs.
    ns += c.enqueue_ns;
    Stage(q, static_cast<size_t>(sp - q.plan.sources.data()), event,
          &shared_row);
  }

  meter_->ChargeScrub(ns);
  return ns;
}

size_t ScrubAgent::StagedRows(const ActiveQuery& q) const {
  size_t rows = 0;
  for (const std::vector<uint32_t>& r : q.staged_rows) {
    rows += r.size();
  }
  return rows;
}

std::vector<uint32_t> ScrubAgent::SelectStaged(ActiveQuery& q,
                                               const HostSourcePlan& sp,
                                               const ColumnBatch& cols,
                                               std::vector<uint32_t> selection,
                                               int64_t* ns) {
  const CostModel& c = config_.costs;
  const size_t staged = selection.size();
  if (sp.never_matches) {
    selection.clear();
  }
  for (const ExprProgram& program : sp.programs) {
    if (selection.empty()) {
      break;
    }
    *ns += c.predicate_term_ns * static_cast<int64_t>(program.insts.size()) *
           static_cast<int64_t>(selection.size());
    EvalProgramPredicateBatch(program, cols, &selection);
  }
  q.stats.events_filtered += staged - selection.size();
  q.stats.events_staged += selection.size();
  // Projection is column selection on the wire: charged per surviving row,
  // never materialized.
  *ns += c.projection_per_field_ns * sp.kept_fields *
         static_cast<int64_t>(selection.size());
  return selection;
}

void ScrubAgent::EmitBatch(QueryId query_id, ActiveQuery& q,
                           BatchFormat format, std::string payload,
                           size_t event_count, TimeMicros now,
                           std::vector<EventBatch>* batches) {
  EventBatch batch;
  batch.query_id = query_id;
  batch.host = host_;
  batch.seq = outbox_.NextSeq(query_id);
  batch.epoch = epoch_;
  batch.format = format;
  batch.payload = std::move(payload);
  batch.event_count = event_count;
  q.stats.events_shipped += event_count;
  // Counters ride with the first batch of the flush.
  for (auto& [window_start, counter] : q.pending_counters) {
    batch.counters.push_back(counter);
  }
  q.pending_counters.clear();
  // Serialization is Scrub work on the host.
  meter_->ChargeScrub(static_cast<int64_t>(batch.payload.size()) *
                      config_.costs.serialize_per_byte_ns);
  ++q.stats.batches_sent;
  // Keep a retransmit copy until acked, budget permitting.
  outbox_.Hold(batch, now, [&q](const EventBatch& evicted) {
    ++q.stats.batches_evicted;
    q.stats.events_abandoned += evicted.event_count;
  });
  batches->push_back(std::move(batch));
}

void ScrubAgent::FlushColumns(QueryId query_id, ActiveQuery& q,
                              TimeMicros now,
                              std::vector<EventBatch>* batches) {
  if (q.staged_rows[0].empty()) {
    return;
  }
  const HostSourcePlan& sp = q.plan.sources[0];
  const ColumnBatch& cols = shared_.at(sp.event_type);

  int64_t ns = 0;
  const std::vector<uint32_t> selection =
      SelectStaged(q, sp, cols, std::exchange(q.staged_rows[0], {}), &ns);
  meter_->ChargeScrub(ns);

  const size_t max_batch = BatchCap(selection.size());
  for (size_t start = 0; start < selection.size(); start += max_batch) {
    const size_t n = std::min(max_batch, selection.size() - start);
    if (q.stats.last_encodings.empty()) {
      q.stats.last_encodings.resize(1);
    }
    std::string payload;
    EncodeColumnBatch(cols, selection.data() + start, n, &sp.keep_field,
                      &payload, &q.stats.last_encodings[0]);
    EmitBatch(query_id, q, BatchFormat::kColumnar, std::move(payload), n, now,
              batches);
  }
}

void ScrubAgent::FlushColumnJoin(QueryId query_id, ActiveQuery& q,
                                 TimeMicros now,
                                 std::vector<EventBatch>* batches) {
  if (q.staging_order.empty()) {
    return;
  }
  const size_t num_sources = q.plan.sources.size();
  std::vector<uint8_t> order = std::exchange(q.staging_order, {});

  int64_t ns = 0;
  std::vector<const ColumnBatch*> batch_of(num_sources, nullptr);
  std::vector<std::vector<uint32_t>> staged(num_sources);
  std::vector<std::vector<uint32_t>> survivors(num_sources);
  for (size_t si = 0; si < num_sources; ++si) {
    staged[si] = std::exchange(q.staged_rows[si], {});
    if (staged[si].empty()) {
      continue;
    }
    batch_of[si] = &shared_.at(q.plan.sources[si].event_type);
    survivors[si] =
        SelectStaged(q, q.plan.sources[si], *batch_of[si], staged[si], &ns);
  }
  meter_->ChargeScrub(ns);

  // Walk the arrival interleave once: surviving events keep the order the
  // host logged them in. Each source's staged rows and survivors are both
  // ascending, so one cursor into each decides survival.
  struct Arrival {
    uint8_t source;
    uint32_t row;
  };
  std::vector<Arrival> arrivals;
  std::vector<size_t> cursor(num_sources, 0);
  std::vector<size_t> next_survivor(num_sources, 0);
  for (const uint8_t s : order) {
    const uint32_t r = staged[s][cursor[s]++];
    if (next_survivor[s] < survivors[s].size() &&
        survivors[s][next_survivor[s]] == r) {
      ++next_survivor[s];
      arrivals.push_back({s, r});
    }
  }

  if (!arrivals.empty()) {
    // Reset only when this flush ships data, so a trailing empty drain
    // does not wipe the "most recent shipped encodings" report.
    q.stats.last_encodings.assign(num_sources, {});
  }
  const size_t max_batch = BatchCap(arrivals.size());
  for (size_t start = 0; start < arrivals.size(); start += max_batch) {
    const size_t n = std::min(max_batch, arrivals.size() - start);
    // Per-source row lists for this chunk. Rows within a source are in row
    // order (arrival order restricted to the source), so each section is a
    // plain ascending selection.
    std::vector<std::vector<uint32_t>> chunk_rows(num_sources);
    for (size_t i = 0; i < n; ++i) {
      chunk_rows[arrivals[start + i].source].push_back(
          arrivals[start + i].row);
    }
    // Sections carry only the sources present in this chunk, in plan order;
    // the order bytes index sections. Central re-identifies each section's
    // source by its schema type name.
    std::vector<ColumnJoinSection> sections;
    std::vector<int> section_of(num_sources, -1);
    for (size_t si = 0; si < num_sources; ++si) {
      if (chunk_rows[si].empty()) {
        continue;
      }
      section_of[si] = static_cast<int>(sections.size());
      ColumnJoinSection section;
      section.batch = batch_of[si];
      section.selection = chunk_rows[si].data();
      section.selected = chunk_rows[si].size();
      section.keep_field = &q.plan.sources[si].keep_field;
      sections.push_back(section);
    }
    std::vector<uint8_t> chunk_order(n);
    for (size_t i = 0; i < n; ++i) {
      chunk_order[i] =
          static_cast<uint8_t>(section_of[arrivals[start + i].source]);
    }

    std::string payload;
    std::vector<std::vector<int>> encodings;
    EncodeColumnJoinBatch(sections, chunk_order, &payload, &encodings);
    size_t section = 0;
    for (size_t si = 0; si < num_sources; ++si) {
      if (section_of[si] >= 0) {
        q.stats.last_encodings[si] = std::move(encodings[section++]);
      }
    }
    EmitBatch(query_id, q, BatchFormat::kColumnarJoin, std::move(payload), n,
              now, batches);
  }
}

std::vector<EventBatch> ScrubAgent::Flush(TimeMicros now,
                                          std::vector<QueryId>* expired) {
  std::vector<EventBatch> batches;

  for (auto it = queries_.begin(); it != queries_.end();) {
    ActiveQuery& q = it->second;
    // Heartbeat: make sure the current window has a counter entry even if
    // no event touched it, so ScrubCentral counts this host as reachable
    // for the window. operator[] creates a zeroed counter if absent.
    if (config_.flush_heartbeats && now >= q.plan.start_time) {
      const TimeMicros hb_ts = std::min(now, q.plan.end_time - 1);
      const TimeMicros w = WindowStartFor(q, hb_ts);
      q.pending_counters[w].window_start = w;
      // A flush landing exactly on a slot boundary belongs to the slot that
      // just OPENED, so the slot that just closed under it would never hear
      // from an event-less host (with window <= flush interval the first
      // window reports only event-bearing hosts). Cover it explicitly; the
      // slot map dedups, so off-boundary flushes add nothing.
      if (hb_ts - 1 >= q.plan.start_time) {
        const TimeMicros prev = WindowStartFor(q, hb_ts - 1);
        q.pending_counters[prev].window_start = prev;
      }
    }
    if (q.plan.sources.size() > 1) {
      FlushColumnJoin(it->first, q, now, &batches);
    } else {
      FlushColumns(it->first, q, now, &batches);
    }
    // Counters nothing shipped to carry (heartbeats, or no staged event
    // survived selection) go out as a counters-only frame: an empty row
    // batch, so its bytes and seq numbering are fixed by the wire format.
    if (!q.pending_counters.empty()) {
      EmitBatch(it->first, q, BatchFormat::kRow, EncodeBatch({}), 0, now,
                &batches);
    }
    // A flush drains the query's staging completely, so its whole byte
    // charge comes back.
    if (staging_accountant_.active()) {
      staging_accountant_.ReleaseAll(it->first);
    }
    // Retire expired queries after their final drain.
    if (now >= q.plan.end_time) {
      if (expired != nullptr) {
        expired->push_back(it->first);
      }
      retired_stats_[it->first] = q.stats;
      it = queries_.erase(it);
    } else {
      ++it;
    }
  }
  // Every query drained its rows above, so the shared staging restarts.
  shared_.clear();
  return batches;
}

std::vector<EventBatch> ScrubAgent::Retransmits(TimeMicros now) {
  // A batch whose budget is spent belonged to a window that has closed at
  // the receiver anyway: shed and count it.
  std::vector<EventBatch> out;
  outbox_.Retries(now, &out, [this](const EventBatch& batch) {
    if (AgentQueryStats* stats = MutableStatsFor(batch.query_id)) {
      ++stats->batches_expired;
      stats->events_abandoned += batch.event_count;
    }
  });
  for (const EventBatch& batch : out) {
    if (AgentQueryStats* stats = MutableStatsFor(batch.query_id)) {
      ++stats->batches_retransmitted;
    }
  }
  return out;
}

void ScrubAgent::OnAck(QueryId query_id, uint64_t seq) {
  AgentQueryStats* stats = MutableStatsFor(query_id);
  if (outbox_.Release(query_id, seq) && stats != nullptr) {
    ++stats->batches_acked;
  }
}

size_t ScrubAgent::shared_staged_events() const {
  size_t n = 0;
  for (const auto& [type, batch] : shared_) {
    n += batch.rows();
  }
  return n;
}

AgentQueryStats* ScrubAgent::MutableStatsFor(QueryId query_id) {
  const auto it = queries_.find(query_id);
  if (it != queries_.end()) {
    return &it->second.stats;
  }
  const auto rit = retired_stats_.find(query_id);
  return rit == retired_stats_.end() ? nullptr : &rit->second;
}

const AgentQueryStats* ScrubAgent::StatsFor(QueryId query_id) const {
  return const_cast<ScrubAgent*>(this)->MutableStatsFor(query_id);
}

}  // namespace scrub
