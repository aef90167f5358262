// Sequenced delivery, the one reliability contract of every Scrub hop
// (DESIGN.md §8.2). A sender numbers its messages per query from 1 and
// stamps its incarnation (epoch); its Outbox holds a copy of each message
// until acked and re-sends it with doubling, jittered backoff, shedding it
// once the budget is spent or the hold is full. The receiver's Inbox admits
// each (sender, epoch, seq) once; seq 0 (hand-built batches, re-bucketed
// shard sub-batches) bypasses dedup.

#ifndef SRC_CLUSTER_DELIVERY_H_
#define SRC_CLUSTER_DELIVERY_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/cluster/host_registry.h"
#include "src/common/clock.h"
#include "src/common/rng.h"

namespace scrub {

// `base` +/-25% (one draw from `rng`), at least 1 us, so a fleet's retries
// do not synchronize.
TimeMicros JitteredDelay(Rng& rng, TimeMicros base);

// The seqs seen from one (sender, epoch): a contiguous watermark plus the
// out-of-order seqs beyond it, so state is O(reorder depth).
struct SeqTracker {
  uint64_t contiguous = 0;  // every seq <= this has been seen
  std::set<uint64_t> ahead;

  // Returns false (duplicate) if seq was already recorded.
  bool Insert(uint64_t seq) {
    if (seq <= contiguous || ahead.count(seq) > 0) {
      return false;
    }
    ahead.insert(seq);
    while (!ahead.empty() && *ahead.begin() == contiguous + 1) {
      ++contiguous;
      ahead.erase(ahead.begin());
    }
    return true;
  }
};

// Receiver side of one hop for one query.
class Inbox {
 public:
  // True for a new or unsequenced message: apply it. False for a duplicate.
  // Either way the caller acks, so a retransmit that raced its lost ack
  // still releases the sender's copy.
  bool Admit(HostId sender, uint64_t epoch, uint64_t seq) {
    return seq == 0 || seen_[sender][epoch].Insert(seq);
  }

 private:
  std::unordered_map<HostId, std::map<uint64_t, SeqTracker>> seen_;
};

// Sender side of one hop: per-query seq numbering and the held copies.
// `Msg` has `query_id` and `seq` members and a `Clone()` that makes the
// held copy and each re-sent one.
template <typename Msg>
class Outbox {
 public:
  using Key = decltype(Msg::query_id);

  // The first retry waits `backoff`, each later one twice as long, up to 8x.
  // A copy is shed `budget` after its send (0 holds nothing, for senders
  // nobody acks). `capacity` bounds the copies per query. `seed` starts a
  // jitter stream of its own, so retries never perturb the owner's others.
  Outbox(TimeMicros backoff, TimeMicros budget, size_t capacity,
         uint64_t seed)
      : backoff_(backoff), budget_(budget), capacity_(capacity), rng_(seed) {}

  uint64_t NextSeq(Key query_id) { return ++next_seq_[query_id]; }

  // Holds a copy of a just-sent message (one jitter draw). When that pushes
  // the hold over capacity, the query's oldest copy is handed to
  // `on_evicted` and shed.
  template <typename OnEvicted>
  void Hold(const Msg& msg, TimeMicros now, OnEvicted&& on_evicted) {
    if (budget_ <= 0) {
      return;
    }
    std::deque<Held>& held = held_[msg.query_id];
    held.push_back(Held{msg.Clone(), now + JitteredDelay(rng_, backoff_),
                        now + budget_, backoff_});
    if (held.size() > capacity_) {
      on_evicted(held.front().msg);
      held.pop_front();
      if (held.empty()) {
        held_.erase(msg.query_id);
      }
    }
  }

  // In ascending query id, then send order: drops each copy whose budget is
  // spent, handing it to `on_expired`, and appends to `out` a clone of each
  // copy whose retry is due, re-armed with the doubled delay (one jitter
  // draw).
  template <typename OnExpired>
  void Retries(TimeMicros now, std::vector<Msg>* out, OnExpired&& on_expired) {
    for (auto it = held_.begin(); it != held_.end();) {
      std::deque<Held>& held = it->second;
      for (auto h = held.begin(); h != held.end();) {
        if (now >= h->deadline) {
          on_expired(h->msg);
          h = held.erase(h);
          continue;
        }
        if (now >= h->next_retry) {
          out->push_back(h->msg.Clone());
          h->delay = std::min(2 * h->delay, 8 * backoff_);
          h->next_retry = now + JitteredDelay(rng_, h->delay);
        }
        ++h;
      }
      it = held.empty() ? held_.erase(it) : std::next(it);
    }
  }

  // The receiver acked (query_id, seq). Returns whether a copy was held.
  bool Release(Key query_id, uint64_t seq) {
    const auto it = held_.find(query_id);
    if (it != held_.end()) {
      std::deque<Held>& held = it->second;
      for (auto h = held.begin(); h != held.end(); ++h) {
        if (h->msg.seq == seq) {
          held.erase(h);
          if (held.empty()) {
            held_.erase(it);
          }
          return true;
        }
      }
    }
    return false;
  }

  // Drops the query's copies and restarts its numbering.
  void Forget(Key query_id) {
    held_.erase(query_id);
    next_seq_.erase(query_id);
  }

  bool Holding(Key query_id) const { return held_.count(query_id) > 0; }

  size_t pending() const {
    size_t n = 0;
    for (const auto& [query_id, held] : held_) {
      n += held.size();
    }
    return n;
  }

 private:
  struct Held {
    Msg msg;
    TimeMicros next_retry = 0;
    TimeMicros deadline = 0;  // send time + budget
    TimeMicros delay = 0;     // un-jittered delay before next_retry
  };

  TimeMicros backoff_;
  TimeMicros budget_;
  size_t capacity_;
  Rng rng_;
  std::unordered_map<Key, uint64_t> next_seq_;
  // By query id, for a deterministic retry order; no entry if none held.
  std::map<Key, std::deque<Held>> held_;
};

}  // namespace scrub

#endif  // SRC_CLUSTER_DELIVERY_H_
