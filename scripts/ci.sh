#!/usr/bin/env bash
# CI entry point: the tier-1 suite, an explicit pass over the fusion
# equivalence suites (every registry model, fused vs unfused, <= 1e-12, on
# the default compute team of up to two cores and again on a team of one),
# an explicit pass over the streaming + parallel worker-pool suites (persistent
# shm ring, intra-mask sharding — all bit-identical to serial), the
# supervision chaos gate (deterministic fault injection: crash detection,
# chunk retry, worker respawn, graceful degradation), short serial, pooled
# and OPC runs of the repo benchmark (serial within 1e-12 of the unfused
# pipeline, pooled bit-identical to serial, incremental OPC bit-identical
# to always-full), a traced OPC run of the benchmark (its per-layer wrappers
# still find every entry point they time), and /dev/shm leak checks after
# the chaos gate and at the end.
# Benchmark modules are collected and examples imported right after the
# static-analysis gate, so a deleted public name they use fails the build.
# Every pytest leg runs under -W error::DeprecationWarning: the tree has no
# deprecated path left, so any DeprecationWarning (ours or a dependency's
# on a code path we call) fails the build.
# Runs with -p no:cacheprovider so repeated CI invocations on read-only or
# shared checkouts never write .pytest_cache state.
#
# Usage:  scripts/ci.sh [extra pytest args]
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# The whole run must leave /dev/shm clean: every pipeline segment is named
# repro_<pid>_<token> and owned by the registry in repro.pipeline.streaming.
# A segment whose owning pid is still alive belongs to a concurrent run (a
# live persistent ring is by design); only segments of dead processes are
# leaks, which keeps the gate race-free on shared runners.
check_shm_clean() {
    echo "== /dev/shm leak check ($1) =="
    if [ -d /dev/shm ]; then
        leftovers=""
        for seg in /dev/shm/repro_*; do
            [ -e "${seg}" ] || continue
            name=$(basename "${seg}")
            pid=$(echo "${name}" | cut -d_ -f2)
            if ! kill -0 "${pid}" 2>/dev/null; then
                leftovers="${leftovers}${name} "
            fi
        done
        if [ -n "${leftovers}" ]; then
            echo "stale repro shared-memory segments (owners dead): ${leftovers}" >&2
            exit 1
        fi
        echo "clean"
    else
        echo "skipped (/dev/shm not present)"
    fi
}

# Static-analysis gate first: the AST linter machine-checks the engine's
# conventions (knob registry, shm hygiene, dtype boundaries, hot-path
# allocation discipline, exception discipline — see docs/static_analysis.md)
# over every Python file in the tree, with zero baseline entries.  It is the
# cheapest gate, so a convention violation fails the build before any test
# time is spent.
echo "== repro.analysis static-analysis gate (zero findings, zero baseline) =="
python -m repro.analysis src benchmarks examples scripts

# Import smoke: no test leg imports benchmarks/ or examples/, so a public
# name they use could be deleted without any other leg noticing.
# Collecting the benchmark modules imports them (and their conftest)
# without running a benchmark; each example is imported without running
# its main().
echo "== import smoke (benchmarks collect, examples import) =="
python -m pytest --collect-only -q -p no:cacheprovider -W "error::DeprecationWarning" \
    benchmarks/bench_*.py
python -W "error::DeprecationWarning" - <<'PY'
import importlib.util
import pathlib

for path in sorted(pathlib.Path("examples").glob("*.py")):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
    print(f"imported {path}")
PY

# The stages partition the tier-1 suite (no test runs twice): everything
# except the fusion, streaming/parallel, incremental OPC and supervision
# files first, then each suite as its own visibly-labelled gate.
echo "== tier-1 tests =="
python -m pytest -x -q -p no:cacheprovider -W "error::DeprecationWarning" tests \
    --ignore=tests/nn/test_fusion.py --ignore=tests/pipeline/test_compiled_pipeline.py \
    --ignore=tests/pipeline/test_parallel.py --ignore=tests/pipeline/test_streaming.py \
    --ignore=tests/pipeline/test_cache.py --ignore=tests/opc/test_incremental.py \
    --ignore=tests/pipeline/test_supervision.py --ignore=tests/pipeline/test_backends.py \
    --ignore=tests/pipeline/test_config.py --ignore=tests/litho/test_hopkins_batch.py \
    --ignore=tests/opc/test_fragment_table.py "$@"

# The execution-config contract (docs/architecture.md): one resolved
# ExecutionConfig document with explicit > REPRO_* > default precedence and
# per-field provenance, and JSON-round-tripping ExecutionPlans that match
# the executed stats.
echo "== execution-config suite (one resolution pass, plans == stats) =="
python -m pytest -x -q -p no:cacheprovider \
    -W "error::DeprecationWarning" \
    tests/pipeline/test_config.py "$@"

# -W error::FusionFallbackWarning: a fallback silently re-appearing anywhere
# in the zoo (e.g. a transposed-conv declaration rotting back to unfused)
# fails the build instead of just degrading throughput.  Tests that exercise
# the fallback machinery on purpose catch the warning with pytest.warns,
# which scopes its own filter, so they still pass under the global error.
echo "== fusion equivalence suite (compiled == unfused for the whole zoo, no fallbacks) =="
python -m pytest -x -q -p no:cacheprovider \
    -W "error::repro.nn.fusion.FusionFallbackWarning" -W "error::DeprecationWarning" \
    tests/nn/test_fusion.py tests/pipeline/test_compiled_pipeline.py "$@"

# The leg above runs the fused kernels on the serial compiled default team
# (the usable cores, at most two); this one re-runs the same suites on a
# team of one, the units inline on the calling thread, so both team sizes
# are held to the same pins on a multi-core runner.
echo "== fusion equivalence suite on a compute team of one (REPRO_BLAS_THREADS=1) =="
REPRO_BLAS_THREADS=1 python -m pytest -x -q -p no:cacheprovider \
    -W "error::repro.nn.fusion.FusionFallbackWarning" -W "error::DeprecationWarning" \
    tests/nn/test_fusion.py tests/pipeline/test_compiled_pipeline.py "$@"

# Backend matrix over the two compute lanes, float64 and float32: the
# per-lane pipeline suite runs under the default environment (both lanes
# pinned explicitly), then the fusion + compiled pipeline + backend suites
# re-run with REPRO_BACKEND=float32 — proving the env knob engages end to
# end while compile_model and every explicitly pinned comparison stay
# deterministic.  Both legs keep the fallback warning escalated (no lane
# may reintroduce a silent unfused fallback).
echo "== compute-backend matrix: per-lane pipeline suite (float64 env) =="
python -m pytest -x -q -p no:cacheprovider \
    -W "error::repro.nn.fusion.FusionFallbackWarning" -W "error::DeprecationWarning" \
    tests/pipeline/test_backends.py "$@"

echo "== compute-backend matrix: REPRO_BACKEND=float32 over fusion + pipeline suites =="
REPRO_BACKEND=float32 python -m pytest -x -q -p no:cacheprovider \
    -W "error::repro.nn.fusion.FusionFallbackWarning" -W "error::DeprecationWarning" \
    tests/nn/test_fusion.py tests/pipeline/test_compiled_pipeline.py \
    tests/pipeline/test_backends.py "$@"

echo "== streaming + parallel worker-pool suites (pooled == serial, bit for bit) =="
python -m pytest -x -q -p no:cacheprovider -W "error::DeprecationWarning" \
    tests/pipeline/test_parallel.py tests/pipeline/test_streaming.py "$@"

# With them, the batched aerial-image suite: the packed SOCS planes against
# the per-kernel loop (1e-8, defocus 0 and defocused) and the team-size bit
# pins of the packed fixed-order loop.  The incremental suites hold
# field-delta patches within 1e-12 of whole-mask simulation over successive
# edits (equal resist) and the incremental OPC loop bit for bit equal to the
# always-full one; the fragment-table suite holds the OPC digests and the
# degenerate-layout loop pins.
echo "== incremental OPC + aerial-image suites (field-delta patches == full re-simulation) =="
python -m pytest -x -q -p no:cacheprovider -W "error::DeprecationWarning" \
    tests/pipeline/test_cache.py tests/opc/test_incremental.py \
    tests/opc/test_fragment_table.py tests/litho/test_hopkins_batch.py "$@"

# The leg above runs the golden simulator's aerial image on the serial
# default team (the usable cores, at most two); this one re-runs the same
# suites on a team of one, so field-delta patches == full re-simulation
# holds at both team sizes.
echo "== incremental OPC + aerial-image suites on a compute team of one (REPRO_BLAS_THREADS=1) =="
REPRO_BLAS_THREADS=1 python -m pytest -x -q -p no:cacheprovider -W "error::DeprecationWarning" \
    tests/pipeline/test_cache.py tests/opc/test_incremental.py \
    tests/opc/test_fragment_table.py tests/litho/test_hopkins_batch.py "$@"

# The chaos gate kills, crashes and hangs workers on purpose (deterministic
# REPRO_FAULT_PLAN injection); its own /dev/shm check right after proves the
# supervision + registry teardown survives every fault mode without leaking.
echo "== supervision chaos gate (fault injection: heal bit-identically or fail structured) =="
python -m pytest -x -q -p no:cacheprovider -W "error::DeprecationWarning" \
    tests/pipeline/test_supervision.py "$@"
check_shm_clean "after chaos gate"

# Benchmark smokes: short runs of the repo benchmark (BENCHMARK.json).  The
# serial large_tile run checks the first stitched 256 px mask against the
# unfused pipeline to 1e-12, which covers the one blocked stride-1 conv
# kernel (one C_in*kw-row pack per block, kh accumulating kernel-row GEMMs)
# that every fused conv runs through, strided convs as space-to-depth convs
# and transposed convs as sub-pixel convs, on the compute team, on
# full-mask shapes, and the fused GP op (lift folded into the mode mix) on
# 8-tile batches.  The pooled run holds sampled outputs
# bit-identical to serial while each worker runs a team of one.  The OPC run
# holds each sampled incremental correction (field-delta patches and full
# refreshes, the aerial image's packed SOCS planes on the compute team) bit
# for bit equal to the always-full correction.  Each gate fails unless the
# run's last (JSON) line reports correct with 0 failed calls.
bench_smoke() {
    echo "== benchmark smoke ($1: correct, 0 failed) =="
    bench_json=$(python3 perfbench/run.py --workload "$1" --seed 1 --seconds 5 --trace 0 | tail -n 1)
    echo "${bench_json}"
    python3 -c '
import json, sys
result = json.loads(sys.argv[1])
sys.exit(0 if result.get("correct") is True and result.get("failed") == 0 else 1)
' "${bench_json}" || { echo "$1 benchmark smoke failed" >&2; exit 1; }
}
bench_smoke large_tile
bench_smoke large_tile_pool
bench_smoke opc_loop

# The traced run wraps each layer's entry points by name
# (perfbench/tracing.py); a renamed or removed entry point fails it at
# install (AttributeError or KeyError).  It must also be correct with 0
# failed calls and have timed the per-iteration mask building and EPE
# measurement (opc.build_mask.ms > 0, opc.measure_epe.ms > 0): the tracer
# wraps the module-level names in repro.opc.engine, so both only read > 0
# while OPCEngine.correct still calls build_mask and measure_layout_epe
# through them.  It must also have timed the patched plan and its
# whole-mask refreshes (cache.patch.self_ms > 0, litho.run_aerial.ms > 0):
# both only read > 0 while predict_patched refreshes through
# SimulatorExecutor.run_aerial.
echo "== traced benchmark smoke (opc_loop --trace 1: correct, 0 failed, mask building, EPE, patch and aerial timed) =="
traced_json=$(python3 perfbench/run.py --workload opc_loop --seed 1 --seconds 3 --trace 1 \
    | tail -n 1)
python3 -c '
import json, sys
result = json.loads(sys.argv[1])
metrics = result.get("metrics", {})
timed = ("opc.build_mask.ms", "opc.measure_epe.ms", "litho.run_aerial.ms", "cache.patch.self_ms")
values = {name: metrics.get(name, {}).get("value", 0.0) for name in timed}
print("correct:", result.get("correct"), "failed:", result.get("failed"))
print(" ".join(f"{name}: {value}" for name, value in values.items()))
ok = result.get("correct") is True and result.get("failed") == 0
ok = ok and all(value > 0.0 for value in values.values())
sys.exit(0 if ok else 1)
' "${traced_json}" || { echo "traced opc_loop benchmark smoke failed" >&2; exit 1; }

check_shm_clean "final"
