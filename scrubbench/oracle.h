// Output correctness for the benchmark: a replayed query's rows against the
// naive reference executor (tests/reference_executor.h) over the recorded
// stream, checked the way the differential tests check them.

#ifndef SCRUBBENCH_ORACLE_H_
#define SCRUBBENCH_ORACLE_H_

#include <string>
#include <vector>

#include "scrubbench/workloads.h"
#include "src/central/executor.h"

namespace scrubbench {

// Returns an empty string when `rows` match the oracle, else a one-line
// description of the first mismatch. `first_tick` is the tick the query was
// installed at (agents never saw earlier events); `submit_time` anchors its
// span exactly as admission did. Sampled queries have no exact oracle and
// are not passed here.
std::string CheckAgainstOracle(const Recording& recording,
                               const std::string& text, scrub::QueryId id,
                               TimeMicros submit_time, int first_tick,
                               TimeMicros interval,
                               const std::vector<scrub::ResultRow>& rows);

}  // namespace scrubbench

#endif  // SCRUBBENCH_ORACLE_H_
