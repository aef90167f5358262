// ScrubQL static query linter.
//
// Scrub's promise is that troubleshooting queries run against production
// hosts under strict SLOs, which means a bad query — an unbounded GROUP BY,
// an exact distinct count over millions of users, a sampling plan whose
// Eq. 1-3 error bound makes the answer useless — must be caught *before* it
// is admitted to the fleet, not after it has burned host CPU. The paper
// enforces this operationally; this pass enforces it statically: rule-based
// analysis over an AnalyzedQuery plus the cost model, emitting structured
// diagnostics with severity, stable rule id, message, and source span.
//
// Error-severity diagnostics reject admission at the QueryServer; warnings
// and notes ride back to the submitter alongside the accepted query, and all
// of them render in EXPLAIN output and the scrubql REPL's :lint command.

#ifndef SRC_LINT_LINT_H_
#define SRC_LINT_LINT_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/clock.h"
#include "src/common/cost_model.h"
#include "src/common/status.h"
#include "src/query/analyzer.h"

namespace scrub {

enum class LintSeverity { kError, kWarning, kNote };

// "error", "warning", "note".
const char* LintSeverityName(LintSeverity severity);

// Stable rule identifiers (clang-tidy style). Tests, suppression lists and
// the DESIGN.md rule catalog key off these strings.
namespace lint_rules {
// (a) GROUP BY over a high-cardinality field with no TOPK bound.
inline constexpr std::string_view kUnboundedGroupBy =
    "scrubql-unbounded-group-by";
// (b) Distinct-value enumeration where COUNT_DISTINCT (HLL) would do.
inline constexpr std::string_view kExactDistinct = "scrubql-exact-distinct";
// (c) Sampling plan whose predicted Eq. 1-3 relative error is useless.
inline constexpr std::string_view kSamplingError = "scrubql-sampling-error";
// (d) Full-fleet target with no host/event sampling.
inline constexpr std::string_view kFullFleet = "scrubql-full-fleet";
// (e) Field ships with every event but is never read at ScrubCentral.
inline constexpr std::string_view kDeadProjection = "scrubql-dead-projection";
// (f) Host-side WHERE with estimated selectivity ~ 1 (ships everything).
inline constexpr std::string_view kIneffectiveFilter =
    "scrubql-ineffective-filter";
// (g) Window shorter than the agent flush interval.
inline constexpr std::string_view kWindowUnderFlush =
    "scrubql-window-under-flush";
// (h) Query span consuming most of the admission duration budget.
inline constexpr std::string_view kSpanBudget = "scrubql-span-budget";
// (i) Allowed-lateness budget too small for even one retransmit round trip:
// a single lost batch at a window's last flush arrives after the window
// closed, so faults silently become missing data.
inline constexpr std::string_view kNoRetryHeadroom =
    "scrubql-no-retry-headroom";
// (j) Informational: a sampled, grouped COUNT/SUM gets a per-group Eq. 2-3
// error bound when executed on the sharded central (the coordinator's
// Finalize merges per-(group, host) readings globally); a single instance
// reports the Eq. 1 ratio estimate without bounds for grouped plans.
inline constexpr std::string_view kSamplingShardedEstimate =
    "scrubql-sampling-sharded-estimate";
// Semantic rules driven by the expression-IR abstract interpreter
// (src/plan/expr_analysis.h).
// (k) WHERE conjunct provably unsatisfiable, alone or jointly with the other
// conjuncts on the same field (`status == 200 AND status >= 500`): the
// query ships nothing. Warning, not error: the query is well-formed and the
// planner executes it (as a no-op filter) either way.
inline constexpr std::string_view kFilterContradiction =
    "scrubql-filter-contradiction";
// (l) Conjunct always true, or implied by the other conjuncts on the same
// field: it filters nothing and is pruned from the executed program.
inline constexpr std::string_view kRedundantConjunct =
    "scrubql-redundant-conjunct";
// (m) Division whose divisor is provably zero: the result is always NULL.
inline constexpr std::string_view kDivisionByZero =
    "scrubql-division-by-zero";
// (n) Ordered comparison (<, <=, >, >=) with an always-NULL operand: never
// true under ScrubQL null semantics.
inline constexpr std::string_view kNullComparison =
    "scrubql-null-comparison";
// (o) Estimated per-window central state (group maps, join buffers) exceeds
// the configured per-query state budget: the query runs under memory
// pressure from its first full window — every window spills to disk
// (lossless but slower) or, with spill unconfigured, sheds events with
// fidelity < 1. Only fires when a budget is configured.
inline constexpr std::string_view kWindowStateBudget =
    "scrubql-window-state-budget";
}  // namespace lint_rules

struct Diagnostic {
  LintSeverity severity = LintSeverity::kWarning;
  std::string rule;     // one of lint_rules::*
  std::string message;
  SourceSpan span;      // invalid span => applies to the whole query
};

struct LintOptions {
  // Fleet shape assumptions. The query server overrides `fleet_hosts` with
  // the live registry count before admission linting.
  uint64_t fleet_hosts = 100;
  double events_per_host_per_second = 1000.0;

  // Eq. 1-3 prediction knobs (rule scrubql-sampling-error). Host-to-host
  // and within-host coefficients of variation stand in for the unknown
  // s_u / s_i of Equation 3; the defaults model a mildly skewed fleet.
  double host_total_cv = 0.25;
  double reading_cv = 1.0;
  double confidence = 0.95;
  double max_relative_error = 0.5;  // fire above +/-50% predicted error

  // Rule thresholds.
  uint64_t high_cardinality_threshold = 10'000;   // scrubql-unbounded-group-by
  double max_where_selectivity = 0.95;            // scrubql-ineffective-filter
  TimeMicros flush_interval_micros = 500 * kMicrosPerMilli;  // window rule
  double span_budget_fraction = 0.5;              // scrubql-span-budget
  TimeMicros max_duration_micros = 24 * kMicrosPerHour;
  // scrubql-no-retry-headroom: how long central waits for stragglers, and
  // one retransmit round trip (retry backoff + two one-way transits) as the
  // deployment sees it. retry_rtt_micros == 0 disables the rule; the
  // ScrubSystem wires both from its live configuration.
  TimeMicros allowed_lateness_micros = 2 * kMicrosPerSecond;
  TimeMicros retry_rtt_micros = 0;
  // scrubql-window-state-budget: central's per-query window-state budget in
  // logical bytes (CentralConfig::query_state_budget_bytes). 0 disables the
  // rule; the ScrubSystem wires it from its live configuration.
  uint64_t query_state_budget_bytes = 0;

  // Known distinct-value counts, keyed "event_type.field" (a bare "field"
  // key matches any source). Fields with unknown cardinality never trip the
  // group-by rule; __request_id is always treated as unbounded.
  std::unordered_map<std::string, uint64_t> field_cardinality;

  // Unit costs quoted in wire/CPU-waste messages.
  CostModel costs;
};

// Runs every rule over an analyzed query. Diagnostics come back ordered by
// rule id, errors never after warnings of the same rule. An empty vector
// means the query is clean.
std::vector<Diagnostic> LintQuery(const AnalyzedQuery& analyzed,
                                  const LintOptions& options = {});

bool HasLintErrors(const std::vector<Diagnostic>& diagnostics);

// "error[scrubql-unbounded-group-by]: ..."; with the original query text,
// valid spans render the offending snippet underneath.
std::string RenderDiagnostic(const Diagnostic& diagnostic,
                             std::string_view query_text = {});
std::string RenderDiagnostics(const std::vector<Diagnostic>& diagnostics,
                              std::string_view query_text = {});

// Convenience: parse + analyze + lint. Parse/analysis failures surface as
// the error status (they are hard errors, not lint findings).
Result<std::vector<Diagnostic>> LintQueryText(
    std::string_view text, const SchemaRegistry& registry,
    const AnalyzerOptions& analyzer_options = {},
    const LintOptions& options = {});

// Predicted steady-state central CPU demand of a query, in nanoseconds per
// second of wall time, from the same fleet/traffic assumptions the lint
// rules use and the cost model's per-row central unit costs: shipped
// events/sec (fleet x per-host rate x sampling x WHERE selectivity) times
// per-event central work (ingest + join probe if joining + one group update
// per aggregate). The QueryServer's predicted-cost admission check sums this
// over live queries against ServerConfig::central_cpu_budget_ns_per_sec;
// calibrating the cost model from observed operator metrics
// (ScrubSystem::CalibrateLintCosts) tightens the prediction.
uint64_t PredictCentralCostNsPerSec(const AnalyzedQuery& analyzed,
                                    const LintOptions& options);

// Heuristic selectivity of a (type-checked) boolean predicate, in [0, 1].
// Equality against a field with known cardinality contributes 1/cardinality;
// range comparisons 1/3; unknown equality 1/20. Exposed for tests and for
// the sampling-error rule, which derives COUNT indicator variance from it.
double EstimateSelectivity(const Expr& predicate, const LintOptions& options);

}  // namespace scrub

#endif  // SRC_LINT_LINT_H_
