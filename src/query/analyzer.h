// Semantic analysis: binds a parsed query against the schema registry,
// type-checks it, applies defaults, and enforces Scrub's language
// restrictions (Sections 2-3 of the paper):
//
//  * Joins are implicit and restricted to equi-joins on the request
//    identifier: naming two event types in FROM joins them on
//    __request_id. Any WHERE conjunct that mixes fields of two different
//    sources is rejected — such a predicate would be a general join
//    condition, which the language deliberately omits, and it could not be
//    evaluated host-side anyway.
//  * Group-by / aggregation happen only at ScrubCentral, so WHERE (the
//    host-side filter) may not contain aggregates.
//  * Every query has a finite span: START/DURATION default if omitted, so a
//    forgotten query cannot load the system forever.

#ifndef SRC_QUERY_ANALYZER_H_
#define SRC_QUERY_ANALYZER_H_

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/status.h"
#include "src/event/schema.h"
#include "src/query/ast.h"

namespace scrub {

struct AnalyzerOptions {
  TimeMicros default_window_micros = 10 * kMicrosPerSecond;
  TimeMicros default_duration_micros = 5 * kMicrosPerMinute;
  TimeMicros max_duration_micros = 24 * kMicrosPerHour;
  // The paper's queries join at most two event types. Analyze also rejects
  // anything above kMaxColumnJoinSections (src/event/wire.h) regardless.
  size_t max_sources = 2;
};

// The validated query plus binding metadata the planner consumes.
struct AnalyzedQuery {
  Query query;  // defaults applied, every Expr::resolved_type filled

  // Schemas of query.sources, same order.
  std::vector<SchemaPtr> schemas;

  // Per source: the user/system fields the query reads anywhere (select,
  // where, group-by). This is the projection set hosts apply.
  std::vector<std::unordered_set<std::string>> fields_per_source;

  // Per source: the WHERE conjuncts that reference only this source (or no
  // source at all). Conjunct indexes into `conjuncts`.
  std::vector<ExprPtr> conjuncts;            // the split WHERE
  std::vector<int> conjunct_source;          // source index, -1 = const

  bool has_aggregates = false;
  bool is_join() const { return schemas.size() > 1; }

  AnalyzedQuery Clone() const;
};

// Analyze `query` against `registry`. On success the returned
// AnalyzedQuery owns a deep copy; the input is not modified.
Result<AnalyzedQuery> Analyze(const Query& query,
                              const SchemaRegistry& registry,
                              const AnalyzerOptions& options = {});

// Convenience: parse + analyze.
Result<AnalyzedQuery> ParseAndAnalyze(std::string_view text,
                                      const SchemaRegistry& registry,
                                      const AnalyzerOptions& options = {});

}  // namespace scrub

#endif  // SRC_QUERY_ANALYZER_H_
