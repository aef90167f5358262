#include "src/cluster/delivery.h"

#include <algorithm>

namespace scrub {

TimeMicros JitteredDelay(Rng& rng, TimeMicros base) {
  const TimeMicros quarter = std::max<TimeMicros>(base / 4, 1);
  const auto draw = static_cast<TimeMicros>(
      rng.NextBelow(static_cast<uint64_t>(2 * quarter)));
  return std::max<TimeMicros>(base - quarter + draw, 1);
}

}  // namespace scrub
