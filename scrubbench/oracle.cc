#include "scrubbench/oracle.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "src/common/strings.h"
#include "tests/reference_executor.h"

namespace scrubbench {

using scrub::ColumnCheck;
using scrub::ResultRow;

std::string CheckAgainstOracle(const Recording& recording,
                               const std::string& text, scrub::QueryId id,
                               TimeMicros submit_time, int first_tick,
                               TimeMicros interval,
                               const std::vector<ResultRow>& rows) {
  scrub::Result<scrub::AnalyzedQuery> analyzed =
      scrub::ParseAndAnalyze(text, recording.schemas);
  if (!analyzed.ok()) {
    return "oracle analyze: " + analyzed.status().ToString();
  }
  scrub::Result<scrub::QueryPlan> plan =
      scrub::PlanQuery(*analyzed, id, submit_time);
  if (!plan.ok()) {
    return "oracle plan: " + plan.status().ToString();
  }
  const scrub::CentralPlan& central = plan->central;
  scrub::ReferenceExecutor oracle(*analyzed, central);
  for (size_t k = static_cast<size_t>(first_tick);
       k < recording.ticks.size() &&
       static_cast<TimeMicros>(k - 1) * interval < central.end_time;
       ++k) {
    for (const HostEvents& he : recording.ticks[k].hosts) {
      for (const scrub::Event& event : he.events) {
        oracle.Observe(event);
      }
    }
  }
  const std::vector<ResultRow> truth = oracle.Execute();

  if (!central.aggregate_mode) {
    auto rendered = [](const std::vector<ResultRow>& rs) {
      std::vector<std::string> out;
      for (const ResultRow& r : rs) {
        out.push_back(r.ToString());
      }
      std::sort(out.begin(), out.end());
      return out;
    };
    return rendered(rows) == rendered(truth) ? "" : "raw rows differ";
  }

  const std::vector<ColumnCheck> checks = oracle.ColumnChecks();
  const std::vector<scrub::OutputColumn>& outputs = central.outputs;
  auto row_key = [&](const ResultRow& row) {
    std::string key = std::to_string(row.window_start);
    for (size_t i = 0; i < outputs.size() && i < row.values.size(); ++i) {
      if (outputs[i].expr.kind == scrub::OutputKind::kGroupKey) {
        key += "|" + row.values[i].ToString();
      }
    }
    return key;
  };
  std::map<std::string, const ResultRow*> by_key;
  for (const ResultRow& row : truth) {
    by_key[row_key(row)] = &row;
  }
  if (rows.size() != truth.size()) {
    return scrub::StrFormat("%zu rows, oracle has %zu", rows.size(),
                            truth.size());
  }
  for (const ResultRow& row : rows) {
    const std::string key = row_key(row);
    const auto it = by_key.find(key);
    if (it == by_key.end()) {
      return "unexpected row " + key;
    }
    const ResultRow& want = *it->second;
    if (row.completeness != 1.0 || row.fidelity != 1.0) {
      return "incomplete row " + key;
    }
    if (row.values.size() != want.values.size()) {
      return "column count differs at " + key;
    }
    for (size_t i = 0; i < row.values.size(); ++i) {
      const scrub::Value& got = row.values[i];
      const scrub::Value& exp = want.values[i];
      bool same = false;
      switch (checks[i]) {
        case ColumnCheck::kExact:
          same = got.ToString() == exp.ToString();
          break;
        case ColumnCheck::kApproxDouble:
          if (exp.is_null() || got.is_null()) {
            same = exp.is_null() && got.is_null();
          } else {
            const double w = exp.AsNumber();
            same = std::fabs(got.AsNumber() - w) <= 1e-6 * (1.0 + std::fabs(w));
          }
          break;
        case ColumnCheck::kDistinctEstimate:
        case ColumnCheck::kTopK:
          return "sketch column " + outputs[i].name + " has no exact check";
      }
      if (!same) {
        return scrub::StrFormat("%s column %s: got %s, oracle %s",
                                key.c_str(), outputs[i].name.c_str(),
                                got.ToString().c_str(),
                                exp.ToString().c_str());
      }
    }
  }
  return "";
}

}  // namespace scrubbench
