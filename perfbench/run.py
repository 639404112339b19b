"""Closed-loop benchmark of the DOINN reproduction: three paper workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload large_tile --seed 1 --seconds 30 --trace 0

One caller runs one workload as a closed loop: the next call starts only
after the previous one returned, for ``--seconds`` of wall time (input
generation and per-call checks included; only the calls themselves are
timed), and for at least ``MIN_CALLS`` calls.  Before the loop the
program-side objects are constructed ``SETUP_REPEATS`` times; each
construction plus its warm call is one ``setup_s`` sample.

The host-speed probe of ``hostspeed.py`` runs right before every call and
every set-up sample.  The end-to-end timings are each sample's time scaled
to the host speed at which the probe takes ``REFERENCE_MS``; the times as
measured are printed beside them.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced blocks of ``BLOCK_SECONDS`` and
prints the per-layer metrics from the traced calls (see ``tracing.py``),
the tracing overhead against the untraced blocks, the host fingerprint and
a report that tests three earlier profiling findings.

Human-readable lines come first; the last line of standard output is the
JSON result.  Spans of a traced run are also written to
``.perfbench_out/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import os
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from hostspeed import REFERENCE_MS

ROOT = Path(__file__).resolve().parent.parent

SETUP_REPEATS = 7
MIN_CALLS = 20
BLOCK_SECONDS = 2.0
#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10

#: Earlier profiling findings the traced report tests (claimed values).
CLAIM_REFINE_SHARE_PCT = 86.0
CLAIM_RECONSTRUCTION_SHARE_PCT = 91.0
CLAIM_MAX_OVER_P50 = 7.0


@dataclass
class Call:
    index: int
    ms: float
    cpu_s: float
    traced: bool
    ok: bool
    #: Time of the host-speed probe right before the call (``hostspeed.py``).
    probe_ms: float
    quality: object = None


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _declared(mode: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[mode]}


def _stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    Registered with ``atexit`` before the program is imported, so it runs
    after the program's own exit hooks (which release shared-memory segments
    and so still talk to the resource tracker).  Shared memory starts
    multiprocessing's resource tracker, a child that otherwise outlives this
    process; stopping it here waits for it.  Any other child left is killed
    and reaped.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    for children in Path("/proc/self/task").glob("*/children"):
        for pid in map(int, children.read_text().split()):
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ChildProcessError, ProcessLookupError):
                pass


def _children_cpu() -> tuple[float, float]:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
def set_up(workload, probe) -> tuple[list[float], list[float], object]:
    """``SETUP_REPEATS`` cold constructions.

    Returns the seconds of each, the probe time before each, and the handle
    of the last.
    """
    seconds = []
    probes = []
    handle = None
    for _ in range(SETUP_REPEATS):
        if handle is not None:
            workload.close(handle)
            # Free the previous sample's objects (graphs hold reference
            # cycles) so peak RSS reflects one set of program objects.
            handle = None
            gc.collect()
        probes.append(probe.measure())
        t0 = time.perf_counter()
        handle = workload.build()
        seconds.append(time.perf_counter() - t0)
    return seconds, probes, handle


def run_loop(workload, handle, seconds: float, trace: bool, tracer, instrumentation, probe):
    """The closed loop; returns the calls and the kept (index, inputs, output)."""
    calls: list[Call] = []
    kept = []
    start = time.perf_counter()
    deadline = start + seconds
    index = 0
    while index < MIN_CALLS or time.perf_counter() < deadline:
        traced = trace and int((time.perf_counter() - start) / BLOCK_SECONDS) % 2 == 1
        inputs = workload.inputs(index)
        probe_ms = probe.measure()
        if traced:
            tracer.call = index
            instrumentation.install()
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            output = workload.call(handle, inputs)
            error = None
        except Exception as exc:  # a failed call is counted, not fatal
            output, error = None, exc
        t1 = time.perf_counter()
        cpu1 = time.process_time()
        if traced:
            instrumentation.remove()
            tracer.call = -1
        quality = None
        if error is None:
            quality = workload.check(handle, inputs, output)
            if workload.keep(index):
                kept.append((index, inputs, output))
        else:
            print(f"call {index} failed: {error!r}", file=sys.stderr)
        calls.append(
            Call(
                index=index,
                ms=(t1 - t0) * 1e3,
                cpu_s=cpu1 - cpu0,
                traced=traced,
                ok=quality is not None and quality.ok,
                probe_ms=probe_ms,
                quality=quality,
            )
        )
        index += 1
    return calls, kept


def _iqr(values: list[float]) -> float:
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with ``TAIL_BEYOND`` samples beyond it: (value, pct)."""
    ordered = sorted(values)
    n = len(ordered)
    rank = n - TAIL_BEYOND - 1
    return ordered[rank], 100.0 * (rank + 1) / n


def throughput(workload, calls: list[Call]) -> float:
    busy = sum(c.ms for c in calls) / 1e3
    return len(calls) * workload.area_um2 / busy


def at_reference(seconds: float, probe_ms: float) -> float:
    """A time scaled to the host speed at which the probe takes ``REFERENCE_MS``."""
    return seconds * REFERENCE_MS / probe_ms


# ---------------------------------------------------------------------------
def end_to_end(workload, calls, setups, setup_probes, peak_rss_mb) -> tuple[dict, list[str]]:
    raw_ms = [c.ms for c in calls]
    ms = [at_reference(c.ms, c.probe_ms) for c in calls]
    setup = [at_reference(s, p) for s, p in zip(setups, setup_probes)]
    scored = [c.quality for c in calls if c.quality is not None]
    tail_ms, tail_pct = tail(ms)
    n = len(calls)
    metrics = {
        "um2_per_s": (n * workload.area_um2 / (sum(ms) / 1e3), "um2/s"),
        "call_ms_p50": (statistics.median(ms), "ms"),
        "call_ms_tail": (tail_ms, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "miou_pct": (statistics.fmean(q.miou_pct for q in scored), "%"),
        "epe_nm": (statistics.fmean(q.epe_nm for q in scored), "nm"),
    }
    notes = {
        "um2_per_s": f"N={n} calls x {workload.area_um2:.3f} um2 over busy time",
        "call_ms_p50": f"N={n}",
        "call_ms_tail": f"p{tail_pct:.1f}, N={n}, {TAIL_BEYOND} beyond",
        "setup_s": f"median of N={len(setup)}: " + ", ".join(f"{s:.3f}" for s in setup),
        "peak_rss_mb": "N=1, ru_maxrss after the loop",
        "miou_pct": f"N={len(scored)} calls",
        "epe_nm": f"N={len(scored)} calls",
    }
    probes = [c.probe_ms for c in calls]
    raw_tail, _ = tail(raw_ms)
    lines = [
        f"  {name:<14} = {value:12.4f} {unit:<6} ({notes[name]})"
        for name, (value, unit) in metrics.items()
    ] + [
        "  timings above are at the reference host speed (probe = "
        f"{REFERENCE_MS:g} ms); as measured: probe p50 {statistics.median(probes):.2f} ms "
        f"(IQR {_iqr(probes):.2f}), um2_per_s {throughput(workload, calls):.4f}, "
        f"call_ms_p50 {statistics.median(raw_ms):.4f}, call_ms_tail {raw_tail:.4f}, "
        f"setup_s {statistics.median(setups):.4f}"
    ]
    return metrics, lines


def per_layer(workload, calls, tracer, pool, fingerprint_info) -> tuple[dict, list[str]]:
    import tracing

    traced = [c for c in calls if c.traced]
    untraced = [c for c in calls if not c.traced]
    if not traced or not untraced:
        raise RuntimeError("a traced run needs both traced and untraced calls; raise --seconds")
    n = len(traced)
    total, own, count = tracer.totals()
    tiles = n * workload.tiles_per_call

    def per_call_ms(name: str, table=total) -> float:
        return 1e3 * table.get(name, 0.0) / n

    metrics: dict[str, tuple[float, str]] = {}
    for row in tracing.NN_ROWS:
        seconds = total.get(f"nn.{row}", 0.0)
        flop = tracer.flops.get(row, 0.0)
        metrics[f"nn.{row}.ms_per_tile"] = (1e3 * seconds / tiles if tiles else 0.0, "ms")
        metrics[f"nn.{row}.mflop_per_tile"] = (flop / tiles / 1e6 if tiles else 0.0, "MFLOP")
        metrics[f"nn.{row}.mbyte_per_tile"] = (
            tracer.bytes.get(row, 0.0) / tiles / 1e6 if tiles else 0.0,
            "MB",
        )
        metrics[f"nn.{row}.gflop_per_s"] = (flop / seconds / 1e9 if seconds else 0.0, "GFLOP/s")
    for op in tracing.REFINE_OPS:
        seconds = total.get(f"nn.ir_refine.{op}", 0.0)
        flop = tracer.flops.get(f"ir_refine.{op}", 0.0)
        metrics[f"nn.ir_refine.{op}.ms_per_tile"] = (
            1e3 * seconds / tiles if tiles else 0.0,
            "ms",
        )
        metrics[f"nn.ir_refine.{op}.mflop_per_tile"] = (
            flop / tiles / 1e6 if tiles else 0.0,
            "MFLOP",
        )
        metrics[f"nn.ir_refine.{op}.gflop_per_s"] = (
            flop / seconds / 1e9 if seconds else 0.0,
            "GFLOP/s",
        )
    busy_untraced = sum(c.ms for c in untraced) / 1e3
    metrics["nn.blas_cpu_per_wall"] = (sum(c.cpu_s for c in untraced) / busy_untraced, "ratio")
    metrics["nn.blas_threads_default"] = (float(fingerprint_info["numpy_blas_threads"] or 0), "count")
    metrics["nn.blas_threads_after_cap"] = (float(fingerprint_info["numpy_blas_threads_after_cap"] or 0), "count")

    counts = [c.quality.counts for c in traced if c.quality is not None]

    def per_call_count(key: str) -> float:
        return statistics.fmean(q.get(key, 0) for q in counts) if counts else 0.0

    for method in ("run_batch", "run_gp", "run_reconstruction"):
        metrics[f"pipeline.{method}.ms"] = (per_call_ms(f"pipeline.{method}"), "ms")
    metrics["pipeline.predict.self_ms"] = (per_call_ms("pipeline.predict", own), "ms")
    metrics["pipeline.tiles"] = (per_call_count("tiles"), "count")
    metrics["layout.extract_tiles.ms"] = (per_call_ms("layout.extract_tiles"), "ms")
    metrics["layout.stitch_cores.ms"] = (per_call_ms("layout.stitch_cores"), "ms")

    dispatch = sum(total.get(f"pool.{m}", 0.0) for m in ("run_batch", "run_gp", "run_reconstruction"))
    metrics["pool.dispatch_ms"] = (1e3 * dispatch / n, "ms")
    metrics["pool.parent_cpu_s"] = (pool["parent_cpu_s"], "s")
    metrics["pool.worker_cpu_s"] = (pool["worker_cpu_s"], "s")
    metrics["pool.cpu_per_wall"] = (pool["cpu_per_wall"], "ratio")
    metrics["pool.worker_peak_rss_mb"] = (pool["worker_peak_rss_mb"], "MB")
    for key in ("chunks_retried", "workers_respawned", "degraded_runs"):
        metrics[f"pool.{key}"] = (float(pool[key]), "count")

    metrics["litho.run_aerial.ms"] = (per_call_ms("litho.run_aerial"), "ms")
    metrics["litho.windows_simulated"] = (per_call_count("windows_simulated"), "count")
    metrics["cache.tile_equivalents"] = (per_call_count("tile_equivalents"), "count")
    metrics["cache.patch.self_ms"] = (per_call_ms("cache.patch", own), "ms")
    ideal = per_call_count("ideal_tile_equivalents")
    metrics["cache.useful_ratio"] = (
        per_call_count("tile_equivalents") / ideal if ideal else 0.0,
        "ratio",
    )
    metrics["opc.build_mask.ms"] = (per_call_ms("opc.build_mask"), "ms")
    metrics["opc.measure_epe.ms"] = (per_call_ms("opc.measure_epe"), "ms")
    metrics["opc.correct.self_ms"] = (per_call_ms("opc.correct", own), "ms")
    metrics["opc.frozen_fragments"] = (per_call_count("frozen_fragments"), "count")

    # -- the report: three earlier findings, confirmed or refuted ----------
    fused = sum(total.get(f"nn.{row}", 0.0) for row in tracing.CHAIN_ROWS.values())
    refine_share = 100.0 * total.get("nn.ir_refine", 0.0) / fused if fused else 0.0
    predict = total.get("pipeline.predict", 0.0)
    reconstruction = total.get("pipeline.run_reconstruction", 0.0) + total.get(
        "pool.run_reconstruction", 0.0
    )
    stitched = count.get("layout.stitch_cores", 0) > 0
    reconstruction_share = 100.0 * reconstruction / predict if stitched and predict else 0.0
    untraced_ms = [c.ms for c in untraced]
    max_over_p50 = max(untraced_ms) / statistics.median(untraced_ms)
    metrics["report.refine_share_pct"] = (refine_share, "%")
    metrics["report.reconstruction_share_pct"] = (reconstruction_share, "%")
    metrics["report.call_max_over_p50"] = (max_over_p50, "ratio")

    traced_rate = throughput(workload, traced)
    untraced_rate = throughput(workload, untraced)
    metrics["trace.um2_per_s_traced"] = (traced_rate, "um2/s")
    metrics["trace.um2_per_s_untraced"] = (untraced_rate, "um2/s")
    metrics["trace.overhead_pct"] = (100.0 * (untraced_rate / traced_rate - 1.0), "%")

    def verdict(measured: float, claimed: float, tolerance: float) -> str:
        return "confirmed" if abs(measured - claimed) <= tolerance else "refuted"

    lines = [
        f"  traced calls N={n}, untraced calls N={len(untraced)}, "
        f"{workload.area_um2:.3f} um2 per call",
        f"  tracing overhead: {traced_rate:.2f} um2/s traced vs {untraced_rate:.2f} "
        f"um2/s untraced (base) = {metrics['trace.overhead_pct'][0]:+.2f}%",
    ]
    if fused:
        lines.append(
            f"  finding refine-tail share of fused-kernel time (claimed ~{CLAIM_REFINE_SHARE_PCT:.0f}%): "
            f"{refine_share:.1f}% of {1e3 * fused / n:.1f} ms/call -> "
            f"{verdict(refine_share, CLAIM_REFINE_SHARE_PCT, 10.0)} (+-10 points)"
        )
    else:
        lines.append("  finding refine-tail share: not applicable (no fused kernels in this process)")
    if stitched:
        lines.append(
            f"  finding run_reconstruction share of stitched wall time (claimed {CLAIM_RECONSTRUCTION_SHARE_PCT:.0f}%): "
            f"{reconstruction_share:.1f}% of {1e3 * predict / n:.1f} ms/call -> "
            f"{verdict(reconstruction_share, CLAIM_RECONSTRUCTION_SHARE_PCT, 10.0)} (+-10 points)"
        )
    else:
        lines.append("  finding run_reconstruction share: not applicable (no stitched plan)")
    lines.append(
        f"  finding max/p50 per call under default BLAS threads (claimed {CLAIM_MAX_OVER_P50:.0f}x per tile): "
        f"{max_over_p50:.2f}x over N={len(untraced)} untraced calls of "
        f"{workload.area_um2:.3f} um2 -> "
        f"{'confirmed' if max_over_p50 >= CLAIM_MAX_OVER_P50 / 2 else 'refuted'} (>= half the claim)"
    )
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:<36} = {value:14.6f} {unit}")
    return metrics, lines


# ---------------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        return _fail("--seed must be >= 0 and --seconds > 0")

    atexit.register(_stop_children)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return _fail(f"no program sources under {src}; run from a repository checkout")
    sys.path.insert(0, str(src))

    import fingerprint
    import hostspeed
    import tracing
    import workloads

    if not workloads.WEIGHTS.is_file():
        return _fail(f"missing model weights {workloads.WEIGHTS.relative_to(ROOT)}")
    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    workload = workloads.WORKLOADS[args.workload](args.seed)

    probe = hostspeed.HostProbe()
    setups, setup_probes, handle = set_up(workload, probe)
    tracer = tracing.Tracer()
    graph = workload.model_graph(handle)
    instrumentation = tracing.Instrumentation(
        tracer, tracing.refine_op_names(graph) if graph is not None else {}
    )
    children_cpu0, _ = _children_cpu()
    try:
        calls, kept = run_loop(
            workload, handle, args.seconds, bool(args.trace), tracer, instrumentation, probe
        )
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        robustness = workload.pool_counters(handle)
    finally:
        workload.close(handle)
    children_cpu1, children_rss = _children_cpu()

    failed = {c.index for c in calls if not c.ok}
    failed |= workload.verify(kept)

    busy = sum(c.ms for c in calls) / 1e3
    parent_cpu = sum(c.cpu_s for c in calls)
    worker_cpu = children_cpu1 - children_cpu0
    pooled = workload.num_workers > 1
    pool = {
        "parent_cpu_s": parent_cpu / len(calls) if pooled else 0.0,
        "worker_cpu_s": worker_cpu / len(calls) if pooled else 0.0,
        "cpu_per_wall": (parent_cpu + worker_cpu) / busy if pooled else 0.0,
        "worker_peak_rss_mb": children_rss if pooled else 0.0,
        **robustness,
    }

    print(
        f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}: {len(calls)} calls, {len(failed)} failed, "
        f"closed loop, 1 caller"
    )
    if args.trace:
        info = fingerprint.fingerprint(ROOT)
        # Defect record: repro.nn.backends.set_blas_threads caps the first
        # OpenBLAS it finds, which need not be the one numpy calls.  Probed
        # last, after every measurement, because it changes the process.
        from repro.nn.backends import set_blas_threads

        set_blas_threads(1)
        info["numpy_blas_threads_after_cap"] = fingerprint.numpy_blas_threads()
        info["openblas_after_cap"] = fingerprint.openblas_libraries()
        metrics, lines = per_layer(workload, calls, tracer, pool, info)
        print("host fingerprint: " + json.dumps(info, sort_keys=True))
        out = ROOT / ".perfbench_out"
        out.mkdir(exist_ok=True)
        (out / f"trace-{workload.name}-{args.seed}.json").write_text(
            json.dumps({"fingerprint": info, "spans": tracer.spans})
        )
        declared = _declared("per_layer")
    else:
        metrics, lines = end_to_end(workload, calls, setups, setup_probes, peak_rss_mb)
        declared = _declared("end_to_end")
    print("\n".join(lines))

    emitted = {name: unit for name, (_, unit) in metrics.items()}
    if emitted != declared:
        return _fail(
            "emitted metrics differ from BENCHMARK.json: "
            f"{sorted(set(emitted.items()) ^ set(declared.items()))}"
        )
    result = {
        "correct": not failed,
        "attempted": len(calls),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
