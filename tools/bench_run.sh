#!/usr/bin/env bash
# Refreshes BENCH_scrub.json: builds the benchmark suite in a plain
# (non-sanitized, optimized) tree, runs the parallel-central sweep and the
# row-vs-columnar ingest microbench, and merges their JSON into one document:
#
#   {"bench": "scrub", "parallel_central": {...}, "ingest": {...},
#    "ingest_samples": [{...}, ...], "fleet": {...}, "multitenant": {...}}
#
# bench_ingest runs INGEST_RUNS times back to back. "ingest" is the first
# run (the relative events/sec gates read it); "ingest_samples" holds every
# run, and tools/bench_compare.py gates each absolute ratio floor on the
# median across them, so one sample taken under contention cannot flip it.
#
# The committed BENCH_scrub.json is the regression baseline
# tools/bench_compare.py gates against in tools/check.sh.
#
#   tools/bench_run.sh              # rewrite BENCH_scrub.json in place
#   tools/bench_run.sh /tmp/out.json  # write elsewhere (what check.sh does)

set -euo pipefail

REPO="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${REPO}/build-bench"
OUT="${1:-${REPO}/BENCH_scrub.json}"
JOBS="$(nproc 2>/dev/null || echo 4)"
INGEST_RUNS=5

# Logs live inside the build tree (gitignored as a directory); nothing is
# ever written next to it at the repo root.
mkdir -p "${BUILD_DIR}"
cmake -B "${BUILD_DIR}" -S "${REPO}" -DCMAKE_BUILD_TYPE=Release \
  > "${BUILD_DIR}/cmake.log" 2>&1
cmake --build "${BUILD_DIR}" -j "${JOBS}" \
  --target bench_parallel_central bench_ingest bench_fleet \
           bench_multitenant \
  > "${BUILD_DIR}/build.log" 2>&1

PC_JSON="$(mktemp /tmp/bench_pc.XXXXXX.json)"
INGEST_DIR="$(mktemp -d /tmp/bench_ingest.XXXXXX)"
FLEET_JSON="$(mktemp /tmp/bench_fleet.XXXXXX.json)"
MT_JSON="$(mktemp /tmp/bench_mt.XXXXXX.json)"
trap 'rm -rf "${PC_JSON}" "${INGEST_DIR}" "${FLEET_JSON}" "${MT_JSON}"' EXIT

"${BUILD_DIR}/bench/bench_parallel_central" > "${PC_JSON}"
for i in $(seq -w 1 "${INGEST_RUNS}"); do
  "${BUILD_DIR}/bench/bench_ingest" > "${INGEST_DIR}/${i}.json"
done
"${BUILD_DIR}/bench/bench_fleet" > "${FLEET_JSON}"
"${BUILD_DIR}/bench/bench_multitenant" > "${MT_JSON}"

python3 - "${OUT}" "${PC_JSON}" "${FLEET_JSON}" "${MT_JSON}" \
  "${INGEST_DIR}"/*.json <<'EOF'
import json
import sys

out_path, pc_path, fleet_path, mt_path = sys.argv[1:5]
ingest_paths = sys.argv[5:]
with open(pc_path) as f:
    pc = json.load(f)
samples = []
for path in ingest_paths:
    with open(path) as f:
        samples.append(json.load(f))
with open(fleet_path) as f:
    fleet = json.load(f)
with open(mt_path) as f:
    mt = json.load(f)
doc = {"bench": "scrub", "parallel_central": pc, "ingest": samples[0],
       "ingest_samples": samples, "fleet": fleet, "multitenant": mt}
with open(out_path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
EOF
echo "wrote ${OUT}"
