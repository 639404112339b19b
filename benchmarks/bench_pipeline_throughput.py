"""Benchmark P1 — batch-first inference pipeline throughput.

Guards the three headlines of the pipeline perf work:

* **Batched aerial path** (PR 1): the frequency-domain
  :func:`repro.litho.aerial_image` (one padded mask FFT reused across all
  cached SOCS transfer functions) must beat the seed per-kernel
  ``fftconvolve`` loop by >= 2x on the Figure 6 tile size with 12 kernels,
  while staying numerically equivalent within 1e-8.
* **Batch/worker scaling** (PR 2): the zero-copy conv hot path must keep
  batched model inference at least as fast per tile as ``batch_size=1``
  (the seed ``im2col`` path made bs=4 ~1.6x *slower* per tile), and the
  :class:`~repro.pipeline.parallel.WorkerPoolExecutor` must produce
  bit-identical outputs while scaling throughput with the physical cores
  (>= 1.8x with 4 workers, asserted when the host has >= 4 cores).
* **Fused inference graphs** (PR 3): compiling the model
  (:mod:`repro.nn.fusion`: conv->BN->LeakyReLU folded into single passes
  with a pad-once buffer cache) must give >= 1.3x model-forward throughput
  at ``batch_size=1`` while staying numerically equivalent within 1e-12;
  the sweep records fused and unfused columns side by side — and, with the
  fused-aware micro-batch budget (PR 4), compiled batched execution must be
  at least as fast per tile as compiled ``batch_size=1`` (the bs>=2
  regression PR 3 documented).
* **Streaming shm ring** (PR 4): on a repeated-call workload (a stream of
  small pipeline calls, the shape of OPC iteration loops and full-chip tile
  streams) the persistent shared-memory ring must beat the per-call segment
  transport by >= 1.2x masks/sec at the acceptance worker count (asserted
  when the host has >= 4 physical cores), while staying bit-identical.
* **Fused transposed-conv chains** (PR 5): with the decoder half of the
  graph compiled too (``conv_transpose_bn_act``: DOINN's ``dconvN -> vggN``
  stages, the UNet up path), compiled DOINN *and* compiled UNet must each
  beat their unfused pipelines by >= 1.2x ms/tile at ``batch_size=1`` while
  staying within 1e-12 — the UNet rows exist precisely because its whole up
  path is transposed convs, so they pin the deconv fusion win end to end.
* **Compute lanes** (PR 8): the serial compiled DOINN pipeline is timed
  once per compute lane (:mod:`repro.nn.backends`): ``float64`` must stay
  bit-identical to the default compiled pipeline, and ``float32`` must hold
  the calibrated lane tolerance while being at least as fast per tile — the
  per-lane rows land in the sweep table either way.
* **Supervised dispatch** (PR 7): the pooled rows run the supervised pool
  (liveness monitoring, per-chunk deadlines, retry/respawn bookkeeping in
  :mod:`repro.pipeline.supervision`); after the repeated-call streaming
  workload every robustness counter must be zero (no retries, no respawns,
  no degradation on a healthy pool).

The full engine x batch-size x worker-count sweep — including a ``Shm``
column naming the transport of each pooled row — is written to
``artifacts/results/pipeline_throughput.txt`` via the shared report hook.
Run with ``--num-workers N`` (or ``REPRO_NUM_WORKERS``) to add a custom
worker count to the sweep, and ``--compile`` (or ``REPRO_COMPILE``) to run
the worker sweep on compiled pipelines.
"""

from __future__ import annotations

import os
import time
import warnings

import numpy as np

from repro.core import create_model
from repro.litho import LithoSimulator, aerial_image, aerial_image_loop
from repro.pipeline import ExecutionConfig
from repro.utils import format_table

from conftest import record_report

# Serial throughput is noisy on a busy host; batched execution passes when it
# is at least as fast as bs=1 within this timing tolerance (the regression
# guarded against was a 1.6x per-tile slowdown, far outside it).
_NOISE_TOLERANCE = 1.05
_PARALLEL_SPEEDUP_TARGET = 1.8
_PARALLEL_SPEEDUP_CORES = 4
_FUSED_SPEEDUP_TARGET = 1.3
#: Floor for *both* compiled DOINN and compiled UNet once the transposed-conv
#: chains are fused (PR 5) — UNet's up path is entirely transposed convs.
_FUSED_DECONV_SPEEDUP_TARGET = 1.2
_FUSED_EQUIVALENCE_ATOL = 1e-12
#: Compute lanes swept on the serial compiled pipeline, with the max |delta|
#: each may show vs the default compiled float64 pipeline (float32 bound from
#: the calibrated tolerance suite in tests/nn/test_fusion.py).
# repro: ok(DTYPE001, the lane names of repro.nn.backends.BACKENDS, not a dtype narrowing)
_BACKEND_LANES = {"float64": 0.0, "float32": 2e-5}
#: float32 must be at least as fast per tile as float64 within timing noise
#: (the lane halves memory traffic and doubles BLAS FLOP throughput; the
#: measured win on a dedicated core is well above 1x, but a shared 1-core
#: host only supports asserting not-slower).
_FLOAT32_NOISE_TOLERANCE = 1.05
_STREAMING_SPEEDUP_TARGET = 1.2
#: Calls per timed round of the streaming comparison.  The streaming win is
#: per *call* (segment creation, mmap and page warming skipped), so the
#: workload is a stream of small calls — masks-per-call sized to one tile
#: per worker — rather than one big batch.
_STREAMING_REPEAT_CALLS = 8


def _physical_cores() -> int:
    """Physical core count (SMT siblings collapsed); logical count fallback.

    The 1.8x/4-worker target assumes 4 real cores — two hyperthreaded cores
    exposing 4 logical CPUs cannot double a BLAS/FFT-bound workload.
    """
    try:
        cores = set()
        for entry in os.listdir("/sys/devices/system/cpu"):
            if entry.startswith("cpu") and entry[3:].isdigit():
                topology = f"/sys/devices/system/cpu/{entry}/topology"
                with open(f"{topology}/physical_package_id") as handle:
                    package = handle.read().strip()
                with open(f"{topology}/core_id") as handle:
                    cores.add((package, handle.read().strip()))
        if cores:
            return len(cores)
    except OSError:
        pass
    return os.cpu_count() or 1


def _interleaved_best(runs: dict, rounds: int = 5) -> dict:
    """Per-config minimum over round-robin rounds.

    Configurations compared against each other (seed loop vs batched FFT,
    bs=1 vs batched) are timed in alternating rounds, so load drift on a
    shared host biases every config equally instead of whichever happened to
    run first.  Each minimum is clamped to one timer tick so a
    sub-resolution run cannot yield a zero (and downstream an infinite
    throughput).
    """
    best: dict = {}
    for _ in range(rounds):
        for key, run in runs.items():
            start = time.perf_counter()
            run()
            elapsed = time.perf_counter() - start
            best[key] = min(best.get(key, float("inf")), elapsed)
    return {key: max(value, 1e-9) for key, value in best.items()}


def test_pipeline_throughput(benchmark, harness, execution_config):
    num_workers = execution_config.num_workers
    compile_inference = execution_config.compile
    profile = harness.profile
    size = profile.low_res_size
    rng = np.random.default_rng(7)
    masks = (rng.random((8, size, size)) > 0.7).astype(float)

    simulator = LithoSimulator(pixel_size=profile.low_res_pixel, num_kernels=12)
    kernels = simulator.kernels

    # Numerical equivalence first (also warms the transfer-function cache).
    reference = np.stack([aerial_image_loop(m, kernels) for m in masks])
    np.testing.assert_allclose(aerial_image(masks, kernels), reference, atol=1e-8)

    aerial_times = _interleaved_best(
        {
            "loop": lambda: [aerial_image_loop(m, kernels) for m in masks],
            "batched": lambda: aerial_image(masks, kernels),
        }
    )
    loop_per_mask = aerial_times["loop"] / len(masks)
    batched_per_mask = aerial_times["batched"] / len(masks)
    aerial_speedup = loop_per_mask / batched_per_mask

    # ------------------------------------------------------------------ #
    # Engine x batch-size x worker-count sweep on the DOINN tile workload
    # ------------------------------------------------------------------ #
    model = create_model("doinn", image_size=size)
    # The serial baselines are pinned to num_workers=0 so they stay serial
    # even under a fleet-wide REPRO_NUM_WORKERS override.
    serial = harness.model_pipeline(model, config=ExecutionConfig(num_workers=0))
    fused_serial = harness.model_pipeline(
        model, config=ExecutionConfig(num_workers=0, compile=True)
    )
    serial.predict(masks)        # warm-up (weights, FFT plans, window views)
    fused_serial.predict(masks)  # warm-up (BN folds, pad-once buffer cache)

    # Config-vs-kwarg parity (the satellite pinning the refactor): routing
    # the same knobs through ExecutionConfig must leave the measured outputs
    # bit-identical to the deprecated per-knob keyword path.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        kwarg_serial = harness.model_pipeline(model, num_workers=0)
    kwarg_outputs = kwarg_serial.predict(masks, batch_size=profile.batch_size)

    reference_outputs = serial.predict(masks, batch_size=profile.batch_size)
    assert np.array_equal(kwarg_outputs, reference_outputs), (
        "ExecutionConfig-routed pipeline diverged from the legacy kwarg path"
    )
    fused_outputs = fused_serial.predict(masks, batch_size=profile.batch_size)
    fused_max_err = float(np.abs(fused_outputs - reference_outputs).max())
    assert fused_max_err <= _FUSED_EQUIVALENCE_ATOL, (
        f"compiled pipeline diverged from the unfused path: max |delta| = {fused_max_err:.3e}"
    )

    batch_sizes = sorted({1, 2, profile.batch_size, 2 * profile.batch_size})
    # Default sweep covers the acceptance worker counts; an explicit
    # --num-workers N narrows it to {0, N} (the smoke.sh mini-bench).
    worker_counts = [0, num_workers] if num_workers else [0, 2, _PARALLEL_SPEEDUP_CORES]

    # Serial rounds time the unfused and compiled engines interleaved, so
    # host-load drift cannot bias the fused-speedup ratio.
    per_tile: dict[tuple[str, int, int], float] = {}  # (engine, workers, bs)
    serial_runs = {}
    for bs in batch_sizes:
        serial_runs[("plain", bs)] = lambda bs=bs: serial.predict(masks, batch_size=bs)
        serial_runs[("fused", bs)] = lambda bs=bs: fused_serial.predict(masks, batch_size=bs)
    for (engine, bs), seconds in _interleaved_best(serial_runs).items():
        per_tile[(engine, 0, bs)] = seconds / len(masks)

    # The worker sweep runs whichever engine --compile selects; parallel
    # outputs must be bit-identical to the same engine run serially.
    pool_engine = "fused" if compile_inference else "plain"
    pool_expected = fused_outputs if compile_inference else reference_outputs
    for workers in worker_counts:
        if workers == 0:
            continue
        # streaming=True is pinned explicitly (not left to REPRO_STREAMING)
        # so the sweep rows labeled "ring" below really ran the ring.
        pipeline = (
            (fused_serial if compile_inference else serial)
            if workers <= 1
            else harness.model_pipeline(
                model,
                config=execution_config.merged(num_workers=workers, streaming=True),
            )
        )
        if workers > 1:
            outputs = pipeline.predict(masks, batch_size=profile.batch_size)
            assert np.array_equal(outputs, pool_expected), (
                f"worker-pool outputs (workers={workers}, {pool_engine}) must be "
                "bit-identical to the serial run of the same engine"
            )
        timings = _interleaved_best(
            {
                bs: (lambda bs=bs: pipeline.predict(masks, batch_size=bs))
                for bs in batch_sizes
            },
            rounds=3,
        )
        for bs, seconds in timings.items():
            per_tile[(pool_engine, workers, bs)] = seconds / len(masks)
        if pipeline is not serial and pipeline is not fused_serial:
            pipeline.close()

    # ------------------------------------------------------------------ #
    # Fused-deconv rows: UNet's up path is entirely transposed convs, so a
    # compiled-vs-unfused UNet comparison isolates the PR 5 chain link the
    # way the DOINN rows above isolate the conv/BN/act fusion.
    # ------------------------------------------------------------------ #
    unet = create_model("unet", image_size=size)
    unet_serial = harness.model_pipeline(unet, config=ExecutionConfig(num_workers=0))
    unet_fused = harness.model_pipeline(
        unet, config=ExecutionConfig(num_workers=0, compile=True)
    )
    unet_serial.predict(masks)  # warm-up
    unet_fused.predict(masks)   # warm-up (BN folds, scatter/pad buffer cache)
    unet_reference = unet_serial.predict(masks, batch_size=profile.batch_size)
    unet_fused_outputs = unet_fused.predict(masks, batch_size=profile.batch_size)
    unet_max_err = float(np.abs(unet_fused_outputs - unet_reference).max())
    assert unet_max_err <= _FUSED_EQUIVALENCE_ATOL, (
        f"compiled UNet pipeline diverged from the unfused path: max |delta| = {unet_max_err:.3e}"
    )
    unet_times = _interleaved_best(
        {
            "plain": lambda: unet_serial.predict(masks, batch_size=1),
            "fused": lambda: unet_fused.predict(masks, batch_size=1),
        }
    )
    unet_per_tile = {key: seconds / len(masks) for key, seconds in unet_times.items()}
    unet_speedup = unet_per_tile["plain"] / unet_per_tile["fused"]

    # ------------------------------------------------------------------ #
    # Compute-backend lanes (PR 8): serial compiled DOINN, one row per lane
    # ------------------------------------------------------------------ #
    backend_pipes = {
        lane: harness.model_pipeline(
            model, config=ExecutionConfig(num_workers=0, compile=True, backend=lane)
        )
        for lane in _BACKEND_LANES
    }
    backend_max_err = {}
    for lane, pipe in backend_pipes.items():
        pipe.predict(masks)  # warm-up (lane conversion, buffer caches)
        outputs = pipe.predict(masks, batch_size=profile.batch_size)
        backend_max_err[lane] = float(np.abs(outputs - fused_outputs).max())
    for lane, bound in _BACKEND_LANES.items():
        assert backend_max_err[lane] <= bound, (
            f"{lane} lane diverged from the compiled float64 pipeline: "
            f"max |delta| = {backend_max_err[lane]:.3e} (bound {bound:.0e})"
        )
    backend_times = _interleaved_best(
        {
            lane: (lambda p=pipe: p.predict(masks, batch_size=profile.batch_size))
            for lane, pipe in backend_pipes.items()
        }
    )
    backend_per_tile = {lane: seconds / len(masks) for lane, seconds in backend_times.items()}
    # repro: ok(DTYPE001, backend lane name used as a dict key, not a dtype narrowing)
    float32_speedup = backend_per_tile["float64"] / backend_per_tile["float32"]

    # ------------------------------------------------------------------ #
    # Streaming shm ring vs per-call segments on a repeated-call workload
    # ------------------------------------------------------------------ #
    # OPC iteration loops and full-chip tile streams issue many consecutive
    # small pipeline calls; the ring's win is per call (no shm_open/mmap/page
    # warming after the first), so the comparison streams
    # _STREAMING_REPEAT_CALLS calls of one-tile-per-worker batches.
    stream_workers = num_workers if num_workers and num_workers > 1 else (
        _PARALLEL_SPEEDUP_CORES if _physical_cores() >= _PARALLEL_SPEEDUP_CORES else 2
    )
    stream_masks = masks[:stream_workers]
    stream_expected = pool_expected[: stream_masks.shape[0]]
    # Both transports are pinned explicitly so a fleet-wide REPRO_STREAMING
    # override cannot turn the A/B comparison into ring-vs-ring (or fail it).
    ring_pipe = harness.model_pipeline(
        model, config=execution_config.merged(num_workers=stream_workers, streaming=True)
    )
    percall_pipe = harness.model_pipeline(
        model, config=execution_config.merged(num_workers=stream_workers, streaming=False)
    )
    assert ring_pipe.streaming and not percall_pipe.streaming
    for pipe, transport in ((ring_pipe, "ring"), (percall_pipe, "per-call")):
        outputs = pipe.predict(stream_masks, batch_size=stream_masks.shape[0])
        assert np.array_equal(outputs, stream_expected), (
            f"streaming-comparison outputs ({transport}, workers={stream_workers}) "
            "must be bit-identical to the serial run of the same engine"
        )
    stream_times = _interleaved_best(
        {
            "ring": lambda: [
                ring_pipe.predict(stream_masks, batch_size=stream_masks.shape[0])
                for _ in range(_STREAMING_REPEAT_CALLS)
            ],
            "per-call": lambda: [
                percall_pipe.predict(stream_masks, batch_size=stream_masks.shape[0])
                for _ in range(_STREAMING_REPEAT_CALLS)
            ],
        },
        rounds=3,
    )
    # The ring pipeline dispatches through the supervised pool (PR 7).  A
    # healthy pool must report a clean ledger: monitoring is observability,
    # not behaviour — any nonzero counter here means supervision interfered.
    happy_counters = ring_pipe.executor.robustness
    assert (
        happy_counters.chunks_retried,
        happy_counters.workers_respawned,
        happy_counters.degraded_runs,
        happy_counters.fault_events,
    ) == (0, 0, 0, 0), f"happy-path run dirtied the robustness ledger: {happy_counters}"
    ring_pipe.close()
    percall_pipe.close()
    stream_tiles = _STREAMING_REPEAT_CALLS * stream_masks.shape[0]
    stream_per_tile = {key: seconds / stream_tiles for key, seconds in stream_times.items()}
    streaming_speedup = stream_per_tile["per-call"] / stream_per_tile["ring"]

    def _engine_label(engine: str) -> str:
        return "DOINN pipeline [compiled]" if engine == "fused" else "DOINN pipeline"

    # Pooled sweep rows run the default transport (the persistent ring);
    # serial rows have no shm transport at all.
    rows = [
        [
            _engine_label(engine),
            str(bs),
            str(workers),
            "ring" if workers else "-",
            f"{per_tile[(engine, workers, bs)] * 1e3:.2f}",
            f"{1.0 / per_tile[(engine, workers, bs)]:.1f}",
        ]
        for engine, workers, bs in sorted(per_tile, key=lambda k: (k[0] == "fused", k[1], k[2]))
    ]
    for engine in ("plain", "fused"):
        rows.append(
            [
                "UNet pipeline [compiled]" if engine == "fused" else "UNet pipeline",
                "1",
                "0",
                "-",
                f"{unet_per_tile[engine] * 1e3:.2f}",
                f"{1.0 / unet_per_tile[engine]:.1f}",
            ]
        )
    for lane in _BACKEND_LANES:
        rows.append(
            [
                f"DOINN pipeline [compiled, {lane}]",
                str(profile.batch_size),
                "0",
                "-",
                f"{backend_per_tile[lane] * 1e3:.2f}",
                f"{1.0 / backend_per_tile[lane]:.1f}",
            ]
        )
    stream_label = f"{_engine_label(pool_engine)} (x{_STREAMING_REPEAT_CALLS}-call stream)"
    for transport in ("per-call", "ring"):
        rows.append(
            [
                stream_label,
                str(stream_masks.shape[0]),
                str(stream_workers),
                transport,
                f"{stream_per_tile[transport] * 1e3:.2f}",
                f"{1.0 / stream_per_tile[transport]:.1f}",
            ]
        )

    fused_speedup = per_tile[("plain", 0, 1)] / per_tile[("fused", 0, 1)]
    table = format_table(
        ["Engine", "Batch size", "Workers", "Shm", "ms / tile", "masks / s"],
        [
            ["Hopkins per-kernel loop (seed)", "1", "0", "-", f"{loop_per_mask * 1e3:.2f}", "-"],
            ["Hopkins batched FFT", str(len(masks)), "0", "-", f"{batched_per_mask * 1e3:.2f}",
             f"{aerial_speedup:.2f}x vs seed"],
            *rows,
        ],
        title=(
            f"Pipeline throughput ({size}x{size} tiles, 12 SOCS kernels, "
            f"{os.cpu_count()} core(s))"
        ),
    )
    summary = (
        f"model-forward speedup at bs=1 (compiled vs unfused): {fused_speedup:.2f}x; "
        f"fused max |delta| = {fused_max_err:.3e}\n"
        f"fused transposed-conv chains (compiled vs unfused, bs=1): "
        f"DOINN {fused_speedup:.2f}x, UNet {unet_speedup:.2f}x; "
        f"UNet fused max |delta| = {unet_max_err:.3e}\n"
        f"compute lanes (serial compiled, bs={profile.batch_size}): "
        + ", ".join(
            f"{lane} {backend_per_tile[lane] * 1e3:.2f} ms/tile "
            f"(max |delta| {backend_max_err[lane]:.1e})"
            for lane in _BACKEND_LANES
        )
        + f"; float32 vs float64: {float32_speedup:.2f}x\n"
        f"streaming ring vs per-call shm ({stream_workers} workers, "
        f"x{_STREAMING_REPEAT_CALLS}-call stream): {streaming_speedup:.2f}x masks/sec; "
        "supervised-dispatch robustness counters all zero"
    )
    record_report("Pipeline throughput", table + "\n" + summary)

    assert aerial_speedup >= 2.0, (
        f"batched aerial path must be >=2x the per-kernel loop, got {aerial_speedup:.2f}x"
    )

    # The fusion headline: the compiled graph must beat the unfused path by
    # >= 1.3x per tile at batch_size=1 (measured: ~2x on one x86 core).
    assert fused_speedup >= _FUSED_SPEEDUP_TARGET, (
        f"compiled pipeline must give >= {_FUSED_SPEEDUP_TARGET}x model-forward "
        f"throughput at bs=1, got {fused_speedup:.2f}x"
    )

    # The fused-deconv acceptance (PR 5): with the transposed-conv chains
    # compiled, both upsampling models must beat their unfused pipelines.
    for label, speedup in (("DOINN", fused_speedup), ("UNet", unet_speedup)):
        assert speedup >= _FUSED_DECONV_SPEEDUP_TARGET, (
            f"compiled {label} must give >= {_FUSED_DECONV_SPEEDUP_TARGET}x "
            f"model-forward throughput at bs=1, got {speedup:.2f}x"
        )

    # The float32 lane halves memory traffic and doubles BLAS throughput: it
    # must never be slower per tile than the float64 lane (beyond noise).
    assert (
        backend_per_tile["float32"]  # repro: ok(DTYPE001, backend lane name keying the timing dict)
        <= backend_per_tile["float64"] * _FLOAT32_NOISE_TOLERANCE
    ), (
        f"float32 lane regressed vs float64: "
        f"{backend_per_tile['float32'] * 1e3:.2f} ms/tile vs "  # repro: ok(DTYPE001, backend lane name keying the timing dict)
        f"{backend_per_tile['float64'] * 1e3:.2f} ms/tile"
    )

    # The bs=4 regression fix: batched execution must be at least as fast per
    # tile as single-tile execution (seed im2col made it 1.6x slower).
    single = per_tile[("plain", 0, 1)]
    batched = per_tile[("plain", 0, profile.batch_size)]
    assert batched <= single * _NOISE_TOLERANCE, (
        f"batched (bs={profile.batch_size}) execution regressed vs bs=1: "
        f"{batched * 1e3:.2f} ms/tile vs {single * 1e3:.2f} ms/tile"
    )

    # The compiled micro-batch retune (PR 4): with the fused-aware budget,
    # compiled batched execution must also be at least as fast per tile as
    # compiled bs=1 (the unfused budget made compiled bs>=2 ~1.3x slower).
    fused_single = per_tile[("fused", 0, 1)]
    fused_batched = per_tile[("fused", 0, profile.batch_size)]
    assert fused_batched <= fused_single * _NOISE_TOLERANCE, (
        f"compiled batched (bs={profile.batch_size}) execution regressed vs compiled "
        f"bs=1: {fused_batched * 1e3:.2f} ms/tile vs {fused_single * 1e3:.2f} ms/tile"
    )

    # Streaming acceptance: where there are cores for the pool to win on,
    # the persistent ring must beat per-call segments by >= 1.2x masks/sec
    # on the repeated-call stream (smaller hosts still record the numbers).
    if _physical_cores() >= _PARALLEL_SPEEDUP_CORES:
        assert streaming_speedup >= _STREAMING_SPEEDUP_TARGET, (
            f"streaming ring must give >= {_STREAMING_SPEEDUP_TARGET}x masks/sec over "
            f"per-call shm on a repeated-call workload, got {streaming_speedup:.2f}x"
        )

    # Worker-pool scaling holds where there are cores to scale onto; on
    # smaller hosts the sweep is still recorded (sharding overhead on one
    # core is a small net loss, not a win — see the pipeline docstring).
    if (
        _PARALLEL_SPEEDUP_CORES in worker_counts
        and _physical_cores() >= _PARALLEL_SPEEDUP_CORES
    ):
        best_serial = min(t for (e, w, _), t in per_tile.items() if w == 0 and e == pool_engine)
        best_parallel = min(
            t for (e, w, _), t in per_tile.items()
            if w == _PARALLEL_SPEEDUP_CORES and e == pool_engine
        )
        assert best_serial / best_parallel >= _PARALLEL_SPEEDUP_TARGET, (
            f"{_PARALLEL_SPEEDUP_CORES} workers must give >= {_PARALLEL_SPEEDUP_TARGET}x "
            f"pipeline throughput, got {best_serial / best_parallel:.2f}x"
        )

    # Timed kernel: the batched aerial path on the full mask stream.
    benchmark(lambda: aerial_image(masks, kernels))
