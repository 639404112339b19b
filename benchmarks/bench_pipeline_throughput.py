"""Benchmark P1 — correctness of the batch-first inference pipeline paths.

The repo benchmark (``BENCHMARK.json``, ``perfbench/run.py``) is the
performance record; this file guards the equivalences the timed paths rest
on, on the Figure 6 tile size:

* **Batched aerial path**: the frequency-domain
  :func:`repro.litho.aerial_image` (one padded mask FFT reused across all
  cached SOCS transfer functions) matches the seed per-kernel
  ``fftconvolve`` loop within 1e-8.
* **Fused inference graphs**: compiled DOINN and compiled UNet (whose up
  path is all transposed convs) stay within 1e-12 of their unfused
  pipelines.
* **Compute lanes**: the serial compiled DOINN pipeline on the ``float64``
  lane is bit-identical to the default compiled pipeline, and ``float32``
  holds the calibrated lane tolerance.
* **Worker pool**: pooled outputs at 2 workers are bit-identical to the
  serial run of the same engine, unfused and compiled, and the supervised
  pool's robustness ledger stays clean (no retries, no respawns, no
  degradation on a healthy pool).

The pytest-benchmark fixture times the batched aerial path.
"""

from __future__ import annotations

import numpy as np

from repro.core import create_model
from repro.litho import LithoSimulator, aerial_image, aerial_image_loop
from repro.pipeline import ExecutionConfig

_FUSED_EQUIVALENCE_ATOL = 1e-12
#: Compute lanes run on the serial compiled pipeline, with the max |delta|
#: each may show vs the default compiled float64 pipeline (float32 bound from
#: the calibrated tolerance suite in tests/nn/test_fusion.py).
# repro: ok(DTYPE001, the lane names of repro.nn.backends.BACKENDS, not a dtype narrowing)
_BACKEND_LANES = {"float64": 0.0, "float32": 2e-5}
_POOL_WORKERS = 2


def test_pipeline_throughput(benchmark, harness):
    profile = harness.profile
    size = profile.low_res_size
    rng = np.random.default_rng(7)
    masks = (rng.random((8, size, size)) > 0.7).astype(float)

    simulator = LithoSimulator(pixel_size=profile.low_res_pixel, num_kernels=12)
    kernels = simulator.kernels
    reference = np.stack([aerial_image_loop(m, kernels) for m in masks])
    np.testing.assert_allclose(aerial_image(masks, kernels), reference, atol=1e-8)

    for name in ("doinn", "unet"):
        model = create_model(name, image_size=size)
        # The serial pipelines are pinned to num_workers=0 so they stay serial
        # even under a fleet-wide REPRO_NUM_WORKERS override.
        outputs = {}
        for compiled in (False, True):
            serial = harness.model_pipeline(
                model, config=ExecutionConfig(num_workers=0, compile=compiled)
            )
            outputs[compiled] = serial.predict(masks, batch_size=profile.batch_size)
            pooled = harness.model_pipeline(
                model, config=ExecutionConfig(num_workers=_POOL_WORKERS, compile=compiled)
            )
            try:
                assert np.array_equal(
                    pooled.predict(masks, batch_size=profile.batch_size), outputs[compiled]
                ), (
                    f"{name} worker-pool outputs (workers={_POOL_WORKERS}, compile={compiled}) "
                    "must be bit-identical to the serial run of the same engine"
                )
                # Monitoring is observability, not behaviour: any nonzero
                # counter here means supervision interfered.
                counters = pooled.executor.robustness
                assert (
                    counters.chunks_retried,
                    counters.workers_respawned,
                    counters.degraded_runs,
                    counters.fault_events,
                ) == (0, 0, 0, 0), f"happy-path run dirtied the robustness ledger: {counters}"
            finally:
                pooled.close()
        fused_max_err = float(np.abs(outputs[True] - outputs[False]).max())
        assert fused_max_err <= _FUSED_EQUIVALENCE_ATOL, (
            f"compiled {name} pipeline diverged from the unfused path: "
            f"max |delta| = {fused_max_err:.3e}"
        )
        if name != "doinn":
            continue
        for lane, bound in _BACKEND_LANES.items():
            pipe = harness.model_pipeline(
                model, config=ExecutionConfig(num_workers=0, compile=True, backend=lane)
            )
            lane_err = float(np.abs(pipe.predict(masks, batch_size=profile.batch_size) - outputs[True]).max())
            assert lane_err <= bound, (
                f"{lane} lane diverged from the compiled float64 pipeline: "
                f"max |delta| = {lane_err:.3e} (bound {bound:.0e})"
            )

    # Timed kernel: the batched aerial path on the full mask stream.
    benchmark(lambda: aerial_image(masks, kernels))
