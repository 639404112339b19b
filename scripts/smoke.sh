#!/usr/bin/env bash
# Smoke check: tier-1 tests plus the pipeline throughput micro-benchmark on
# small sizes.  Run before merging any change to an inference hot path so
# perf regressions show up here instead of in production throughput; the
# repo benchmark (BENCHMARK.json, perfbench/run.py) is the performance
# record.
# Runs with -p no:cacheprovider, as scripts/ci.sh does, so it never writes
# .pytest_cache state.
#
# Usage:  scripts/smoke.sh [extra pytest args]
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export REPRO_PROFILE="${REPRO_PROFILE:-quick}"

echo "== repro.analysis lint =="
python -m repro.analysis src benchmarks examples scripts

echo "== tier-1 tests =="
python -m pytest -x -q -p no:cacheprovider -W "error::DeprecationWarning" tests "$@"

echo "== streaming + parallel worker-pool tests (shm ring, pooled == serial) =="
python -m pytest -x -q -p no:cacheprovider -W "error::DeprecationWarning" \
    tests/pipeline/test_parallel.py tests/pipeline/test_streaming.py "$@"

echo "== pipeline throughput bench (quick profile) =="
python -m pytest -x -q -p no:cacheprovider benchmarks/bench_pipeline_throughput.py "$@"

echo "== pipeline throughput mini-bench (2 workers) =="
python -m pytest -x -q -p no:cacheprovider \
    benchmarks/bench_pipeline_throughput.py --num-workers 2 "$@"

echo "== Compiled inference =="
# Fused-graph equivalence across the model zoo, then the throughput bench
# with the worker sweep running compiled pipelines (records the >=1.3x
# model-forward speedup into artifacts/results/pipeline_throughput.txt).
python -m pytest -x -q -p no:cacheprovider \
    tests/nn/test_fusion.py tests/pipeline/test_compiled_pipeline.py "$@"
python -m pytest -x -q -p no:cacheprovider \
    benchmarks/bench_pipeline_throughput.py --compile "$@"
