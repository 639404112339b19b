"""Lane-parametrized pipeline equivalence.

One suite, both compute lanes, every execution plan.  The per-lane contracts:

* ``float64`` — the default; converting to it is a no-op numerically, so
  every plan is *bit*-identical to the unconverted compiled pipeline.
* ``float32`` — folded weights narrowed at compile time; equivalence to the
  float64 pipeline holds at the calibrated lane tolerance.  Still computed
  per sample, so it keeps partition invariance (pooled == serial, bitwise).

Whatever the lane, the executor hands float64 back to the stitching layer,
so pipeline outputs are always float64.

This file intentionally never reads ``REPRO_BACKEND`` implicitly: every
pipeline pins its lane explicitly, so the suite passes unchanged under the
CI backend matrix.  Env resolution itself is tested with monkeypatch below.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.litho import LithoSimulator
from repro.nn import compile_model
from repro.nn.backends import (
    BACKEND_ENV,
    BLAS_THREADS_ENV,
    DEFAULT_TEAM_LIMIT,
    ComputeTeam,
    compute_team,
    compute_threads,
    get_blas_threads,
    resolve_backend,
    set_blas_threads,
    usable_cores,
)
from repro.nn import backends
from repro.pipeline import (
    ConfigError,
    ExecutionConfig,
    Executor,
    InferencePipeline,
    ModelExecutor,
    RetryPolicy,
    WorkerPoolExecutor,
    as_executor,
)

LANES = ["float64", "float32"]

#: max |delta| vs the float64 compiled pipeline; resist outputs live in
#: [0, 1], so absolute bounds are meaningful.  float32 is calibrated from
#: the pinned reference run (measured ~3e-7 native, ~3e-7 stitched).
LANE_ATOL = {"float64": 0.0, "float32": 2.0e-5}

#: Lanes whose pooled/sharded plans are bit-identical to serial.
PARTITION_INVARIANT = {"float64", "float32"}


@pytest.fixture(scope="module")
def model(tiny_model_factory):
    return tiny_model_factory("doinn")


def _random_masks(n: int, size: int, seed: int = 17) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.random((n, size, size)) > 0.8).astype(float)


def _assert_lane_close(actual, expected, lane, err_msg=""):
    if LANE_ATOL[lane] == 0.0:
        np.testing.assert_array_equal(actual, expected, err_msg=err_msg)
    else:
        np.testing.assert_allclose(
            actual, expected, rtol=0, atol=LANE_ATOL[lane], err_msg=err_msg
        )


# --------------------------------------------------------------------- #
# Registry and resolution
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("removed", ["blas", "fft"])
def test_removed_lanes_are_refused(monkeypatch, removed):
    """Only the two dtype lanes exist; the deleted ``blas`` / ``fft`` names
    fail loudly from the environment and from an explicit config."""
    monkeypatch.setenv(BACKEND_ENV, removed)
    with pytest.raises(ValueError, match=BACKEND_ENV) as excinfo:
        resolve_backend()
    assert "float32, float64" in str(excinfo.value)
    with pytest.raises(ConfigError) as excinfo:
        ExecutionConfig(backend=removed).validate()
    assert excinfo.value.field == "backend"


def test_resolve_backend_precedence(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    assert resolve_backend() == np.float64
    monkeypatch.setenv(BACKEND_ENV, "float32")
    assert resolve_backend() == np.float32
    assert resolve_backend("float64") == np.float64  # explicit beats env
    monkeypatch.setenv(BACKEND_ENV, "quantum")
    with pytest.raises(ValueError, match=BACKEND_ENV):
        resolve_backend()


def test_pipeline_resolves_backend_from_env(model, monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, "float32")
    pipeline = InferencePipeline(model, ExecutionConfig(compile=True))
    assert pipeline.dtype == np.float32
    # Explicit argument wins over the environment.
    pinned = InferencePipeline(model, ExecutionConfig(compile=True, backend="float64"))
    assert pinned.dtype == np.float64
    # Uncompiled pipelines ignore the env lane (no fused path to convert).
    assert InferencePipeline(model).dtype == np.float64


def test_preconverted_graph_lane_wins_over_env(model, monkeypatch):
    """A graph already converted to a lane keeps it: the env var must not
    silently re-convert an engine the caller prepared deliberately."""
    graph = compile_model(model, backend="float64")
    monkeypatch.setenv(BACKEND_ENV, "float32")
    executor = ModelExecutor(graph)
    assert executor.dtype == np.float64
    # An explicit executor lane converts the graph just the same.
    pinned = compile_model(model)
    ModelExecutor(pinned, backend="float64")
    assert ModelExecutor(pinned).dtype == np.float64


# --------------------------------------------------------------------- #
# Error contracts
# --------------------------------------------------------------------- #
def test_backend_requires_compiled_path(model):
    with pytest.raises(ValueError, match="compile=True"):
        ModelExecutor(model, backend="float32")
    with pytest.raises(ValueError, match="compile=True"):
        InferencePipeline(model, ExecutionConfig(backend="float32"))
    # The default lane is the uncompiled path's native behaviour: allowed.
    assert ModelExecutor(model, backend="float64").dtype == np.float64


def test_backend_rejects_simulator_engines():
    simulator = LithoSimulator(pixel_size=16.0, num_kernels=6, kernel_support=31)
    with pytest.raises(ValueError, match="golden simulator"):
        as_executor(simulator, backend="float32")
    with pytest.raises(ValueError, match="golden simulator"):
        InferencePipeline(simulator, ExecutionConfig(backend="float32"))


# --------------------------------------------------------------------- #
# Native and stitched plans, zoo-wide
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("lane", LANES)
def test_backend_native_plan_matches_float64(zoo_model, lane):
    name, model = zoo_model
    masks = _random_masks(4, 32)
    reference = InferencePipeline(model, ExecutionConfig(batch_size=2, compile=True, backend="float64"))
    pipeline = InferencePipeline(model, ExecutionConfig(batch_size=2, compile=True, backend=lane))
    assert pipeline.dtype.name == lane
    out = pipeline.predict(masks)
    assert out.dtype == np.float64  # the executor boundary re-widens every lane
    _assert_lane_close(out, reference.predict(masks), lane, err_msg=f"{name}/{lane}")


@pytest.mark.parametrize("lane", LANES)
def test_backend_stitched_plan_matches_float64(model, lane):
    masks = _random_masks(2, 64, seed=5)
    kwargs = dict(tile_size=32, batch_size=4, optical_diameter_pixels=8, compile=True)
    reference = InferencePipeline(model, ExecutionConfig(backend="float64", **kwargs))
    pipeline = InferencePipeline(model, ExecutionConfig(backend=lane, **kwargs))
    assert pipeline.run(masks).stats.mode == "stitched"
    _assert_lane_close(
        pipeline.predict(masks, stitch=True),
        reference.predict(masks, stitch=True),
        lane,
        err_msg=f"stitched/{lane}",
    )


# --------------------------------------------------------------------- #
# Worker pool and sharded stitching per lane
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("lane", LANES)
def test_backend_pooled_matches_serial(model, lane):
    masks = _random_masks(6, 32, seed=13)
    serial = InferencePipeline(model, ExecutionConfig(batch_size=2, compile=True, backend=lane))
    reference = serial.predict(masks)
    with InferencePipeline(
        model, ExecutionConfig(batch_size=2, num_workers=2, compile=True, backend=lane)
    ) as pooled:
        assert pooled.dtype.name == lane
        out = pooled.predict(masks)
    assert lane in PARTITION_INVARIANT
    np.testing.assert_array_equal(out, reference, err_msg=lane)


@pytest.mark.parametrize("lane", LANES)
def test_backend_sharded_stitched_matches_serial(model, lane):
    masks = _random_masks(2, 64, seed=9)
    kwargs = dict(tile_size=32, batch_size=4, optical_diameter_pixels=8, compile=True)
    serial = InferencePipeline(model, ExecutionConfig(backend=lane, **kwargs))
    reference = serial.predict(masks, stitch=True)
    with InferencePipeline(model, ExecutionConfig(num_workers=2, backend=lane, **kwargs)) as pooled:
        out = pooled.predict(masks, stitch=True)
    assert lane in PARTITION_INVARIANT
    np.testing.assert_array_equal(out, reference, err_msg=lane)


# --------------------------------------------------------------------- #
# Incremental (patched) plan per lane
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("lane", LANES)
def test_backend_patched_plan_matches_stitched(model, lane):
    pipeline = InferencePipeline(
        model, ExecutionConfig(
            tile_size=32, batch_size=8, optical_diameter_pixels=8, compile=True, backend=lane,
        ),
    )
    state = pipeline.incremental_state((64, 64))
    assert state.mode == "gp"
    mask = _random_masks(1, 64)[0]
    for step in range(3):
        patched = pipeline.predict_patched(mask, state)
        stitched = pipeline.predict(mask, stitch=True)
        np.testing.assert_array_equal(patched, stitched, err_msg=f"{lane}/{step}")
        mask = mask.copy()
        mask[2 * step, 3 * step] = 1.0 - mask[2 * step, 3 * step]
    assert state.counters.patched_calls >= 1


# --------------------------------------------------------------------- #
# BLAS thread caps
# --------------------------------------------------------------------- #
def test_pooled_pipeline_caps_worker_blas_threads(model, monkeypatch):
    monkeypatch.delenv(BLAS_THREADS_ENV, raising=False)
    with InferencePipeline(model, ExecutionConfig(num_workers=2, compile=True, backend="float64")) as pooled:
        assert pooled.executor.blas_threads == 1
        # The capped pool still computes the right answer.
        masks = _random_masks(2, 32)
        serial = InferencePipeline(model, ExecutionConfig(compile=True, backend="float64"))
        np.testing.assert_allclose(
            pooled.predict(masks), serial.predict(masks), rtol=0, atol=1e-12
        )


def _run_python(script: str) -> str:
    """Run ``script`` in a fresh interpreter (repo ``src`` on the path)."""
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}" + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps")
def test_set_blas_threads_caps_every_mapped_openblas():
    """Regression pin: the cap once reached only the first OpenBLAS listed in
    /proc/self/maps (scipy's), leaving numpy's own — the one its GEMMs call —
    at the library default.  Each library is queried here through its own
    getter, independently of ``get_blas_threads``, in a fresh interpreter so
    this session's BLAS state is untouched."""
    report = json.loads(_run_python(
        """
        import ctypes, json, os
        import numpy
        import scipy.linalg  # maps scipy's own OpenBLAS beside numpy's
        from repro.nn.backends import get_blas_threads, set_blas_threads

        GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads")
        capped = set_blas_threads(1)
        threads = {}
        with open("/proc/self/maps") as fh:
            for line in fh:
                path = "/" + line.rstrip("\\n").partition("/")[2]
                if "openblas" in os.path.basename(path).lower() and path not in threads:
                    lib = ctypes.CDLL(path)
                    getter = next(getattr(lib, n) for n in GETTERS if hasattr(lib, n))
                    getter.restype = ctypes.c_int
                    threads[path] = getter()
        print(json.dumps({"capped": capped, "reported": get_blas_threads(), "threads": threads}))
        """
    ))
    numpy_libs = [p for p in report["threads"] if Path(p).parent.name == "numpy.libs"]
    if not numpy_libs:
        pytest.skip("numpy is not linked against its bundled OpenBLAS")
    assert report["capped"] is True
    assert report["reported"] == 1
    assert [report["threads"][p] for p in numpy_libs] == [1]
    assert set(report["threads"].values()) == {1}, report["threads"]


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps")
def test_conv_bn_act_bits_do_not_depend_on_blas_threads():
    """Regression pin: with one whole-image GEMM per sample, ``conv_bn_act``
    on an image whose ``H*W`` is not a multiple of 16 differed by ~1e-14
    between 1 and 2 BLAS threads (BLAS rounds the ragged column edge, and
    splits columns across threads, differently per thread count), breaking
    pooled (1 thread) == serial (default) for such geometries.  The blocked
    stride-1 kernel keeps every GEMM width a multiple of 64, and every fused
    conv runs through it: the shapes cover the refine convs (the ``C_out ==
    1`` output conv included), a 4x4 kernel, DOINN's 4x4/stride-2 LP convs
    (space-to-depth) and its 4x4/stride-2 transposed convs and UNet's
    2x2/stride-2 up-convs (sub-pixel), so every one of the ``kh``
    accumulating kernel-row GEMMs is held to it, on a team of one that
    leaves BLAS alone.

    The same geometries must also give the same bits on compute teams of 1,
    2 and 3 threads: unit bounds depend on the geometry alone, and only
    which thread runs a unit depends on the team.  The spreading threshold
    is zeroed so every multi-unit conv is spread.  Runs in a fresh
    interpreter so this session's BLAS state and team are untouched."""
    report = json.loads(_run_python(
        """
        import json
        import numpy as np
        from repro.nn import functional as F
        from repro.nn.backends import ComputeTeam, set_blas_threads, set_compute_threads

        rng = np.random.default_rng(7)
        capped, mismatches = True, []
        kernels = [
            ("stride1", c_out, c_in, k, lambda x, w, b, k=k: F.conv_bn_act(
                x, w, b, padding=k // 2, activation="leaky_relu", negative_slope=0.1))
            for c_out, c_in, k in ((32, 4, 3), (16, 32, 3), (16, 16, 3), (1, 16, 3), (16, 16, 4))
        ] + [
            ("strided", c_out, c_in, 4, lambda x, w, b: F.conv_bn_act(
                x, w, b, stride=2, padding=1, activation="leaky_relu", negative_slope=0.1,
                output_padding=1))
            for c_out, c_in in ((4, 1), (16, 8))
        ] + [
            ("transposed", c_out, c_in, k, lambda x, w, b, k=k, p=p: F.conv_transpose_bn_act(
                x, w, b, stride=2, padding=p, activation="leaky_relu", negative_slope=0.1,
                output_padding=1))
            for c_out, c_in, k, p in ((16, 32, 4, 1), (4, 12, 4, 1), (16, 32, 2, 0))
        ]

        def operands(kind, batch, size, c_out, c_in, k):
            x = rng.standard_normal((batch, c_in, size, size))
            shape = (c_in, c_out, k, k) if kind == "transposed" else (c_out, c_in, k, k)
            return x, rng.standard_normal(shape), rng.standard_normal(c_out)

        set_compute_threads(0)  # a team of one that leaves BLAS alone
        for size in (37, 50, 63, 250):
            for kind, c_out, c_in, k, run in kernels:
                x, w, b = operands(kind, 1, size, c_out, c_in, k)
                outs = []
                for threads in (1, 2):
                    capped &= set_blas_threads(threads)
                    outs.append(run(x, w, b))
                if not np.array_equal(*outs):
                    mismatches.append(["blas", kind, size, c_out, c_in, k, float(np.abs(outs[0] - outs[1]).max())])

        ComputeTeam.MIN_UNIT_MACS = 0
        for size in (37, 50, 63, 250):
            for kind, c_out, c_in, k, run in kernels:
                x, w, b = operands(kind, 2, size, c_out, c_in, k)
                outs = []
                for team in (1, 2, 3):
                    set_compute_threads(team)
                    outs.append(run(x, w, b))
                for team, out in zip((2, 3), outs[1:]):
                    if not np.array_equal(outs[0], out):
                        mismatches.append([kind, team, size, c_out, c_in, k])
        print(json.dumps({"capped": capped, "mismatches": mismatches}))
        """
    ))
    if not report["capped"]:
        pytest.skip("no OpenBLAS thread setter to switch between 1 and 2 threads")
    assert report["mismatches"] == []


# --------------------------------------------------------------------- #
# Compute team: fork safety, budget, pickling
# --------------------------------------------------------------------- #
def test_compute_team_runs_every_unit_once_and_propagates_errors(compute_threads):
    """More members than a small runner has cores, and a shortened switch
    interval so the members interleave often: a unit handed out twice or
    never (a lost update on the shared index) breaks the exactly-once
    invariant."""
    compute_threads(3)
    team = compute_team()
    assert team.size == 3
    seen = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        team.run(lambda index, member: seen.append((index, member)), 5000, team.MIN_UNIT_MACS, 3)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(index for index, _ in seen) == list(range(5000))
    assert {member for _, member in seen} <= {0, 1, 2}

    def failing(index, member):
        if index == 7:
            raise KeyError("unit 7")

    for _ in range(2):  # a failed call leaves no stale error behind
        with pytest.raises(KeyError, match="unit 7"):
            team.run(failing, 20, team.MIN_UNIT_MACS, 3)
    seen.clear()
    team.run(lambda index, member: seen.append(index), 5, team.MIN_UNIT_MACS, 3)
    assert sorted(seen) == list(range(5))


def test_compute_team_keeps_small_units_on_the_caller(compute_threads):
    compute_threads(2)
    team = compute_team()
    members = set()
    team.run(lambda index, member: members.add(member), 64, team.MIN_UNIT_MACS - 1, 2)
    assert members == {0}
    team.run(lambda index, member: members.add(member), 64, team.MIN_UNIT_MACS, 1)
    assert members == {0}  # one scratch slice: one member, whatever the team size


def test_pooled_pipeline_after_serial_team_does_not_hang(model, compute_threads, monkeypatch):
    """Fork safety: a serial compiled forward leaves this process's team with
    live helper threads; a pool forked afterwards must not reuse that team
    (its threads do not exist in the child, so a worker waiting on them would
    hang).  Workers sized at the parent's team size are the case a shared
    team would hit; every unit is spread, and each worker chunk holds two
    masks so every conv has at least two units.  The deadline turns a hang
    into a structured failure instead of a stuck suite."""
    monkeypatch.setattr(ComputeTeam, "MIN_UNIT_MACS", 0)
    compute_threads(2)
    masks = _random_masks(5, 32, seed=23)
    config = dict(compile=True, backend="float64")
    expected = InferencePipeline(model, ExecutionConfig(blas_threads=2, **config)).predict(masks)
    assert compute_team().size == 2
    retry = RetryPolicy(timeout=60.0, max_retries=0, degrade=False)
    with InferencePipeline(
        model, ExecutionConfig(num_workers=2, blas_threads=2, retry=retry, **config)
    ) as pooled:
        got = pooled.predict(masks)
        robustness = pooled.executor.robustness
        assert (robustness.chunks_retried, robustness.degraded_runs) == (0, 0)
    np.testing.assert_array_equal(got, expected)


def _record_threads(pipeline) -> list[tuple[int, int | None]]:
    """Wrap the pipeline's executor hooks to record, inside every call, the
    compute team size and the BLAS thread count they run with."""
    seen = []
    for method in ("run_batch", "run_gp", "run_reconstruction"):
        original = getattr(pipeline.executor, method)

        def hook(*args, original=original, **kwargs):
            seen.append((compute_team().size, get_blas_threads()))
            return original(*args, **kwargs)

        setattr(pipeline.executor, method, hook)
    return seen


@pytest.fixture
def threaded_blas():
    """BLAS at two threads for one test (the library's own count on a
    one-core runner may already be 1, which would hide a leaked cap)."""
    before = get_blas_threads()
    if before is None:
        pytest.skip("no OpenBLAS thread control in this process")
    set_blas_threads(2)
    yield get_blas_threads()
    set_blas_threads(before)


def test_second_serial_compiled_pipeline_gets_the_full_budget(model, monkeypatch, threaded_blas):
    """The budget is resolved from the usable cores, never read back from the
    BLAS library, which reads 1 while a team has it capped."""
    monkeypatch.delenv(BLAS_THREADS_ENV, raising=False)
    monkeypatch.setattr(backends, "usable_cores", lambda: 2)
    config = ExecutionConfig(compile=True, backend="float64")
    masks = _random_masks(1, 32)
    for _ in range(2):
        pipeline = InferencePipeline(model, config)
        assert pipeline.config.blas_threads == 2
        seen = _record_threads(pipeline)
        pipeline.predict(masks)
        assert seen and set(seen) == {(2, 1)}


def test_compiled_team_and_blas_cap_end_with_the_call(model, monkeypatch, threaded_blas):
    """The cap is confined to the serial compiled pipeline that asked for a
    team: an unfused pipeline called afterwards in the same process runs
    with the BLAS thread count the process had, on a team of one."""
    monkeypatch.delenv(BLAS_THREADS_ENV, raising=False)
    masks = _random_masks(2, 32)
    compiled = InferencePipeline(model, ExecutionConfig(compile=True, blas_threads=2))
    seen = _record_threads(compiled)
    compiled.predict(masks)
    assert seen and set(seen) == {(2, 1)}
    assert (compute_team().size, get_blas_threads()) == (1, threaded_blas)
    unfused = InferencePipeline(model, ExecutionConfig())
    seen = _record_threads(unfused)
    unfused.predict(masks)
    assert seen and set(seen) == {(1, threaded_blas)}


def test_compute_threads_scope_restores_on_error(threaded_blas):
    with pytest.raises(KeyError):
        with compute_threads(3) as team:
            assert (team.size, get_blas_threads()) == (3, 1)
            with compute_threads(0):  # nested: team of one, BLAS left as it is
                assert (team.size, get_blas_threads()) == (1, 1)
            raise KeyError("inside the scope")
    assert (compute_team().size, get_blas_threads()) == (1, threaded_blas)


def test_overlapping_compute_thread_scopes_restore_once(threaded_blas):
    """Pipelines called from several threads overlap their scopes: every
    scope runs capped, and only the last one to leave restores the process.
    More threads than a small runner has cores, and a shortened switch
    interval, so the entries and exits interleave often."""
    capped = []

    def caller():
        for _ in range(50):
            with compute_threads(2):
                capped.append(get_blas_threads() == 1)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(capped) == 200 and all(capped)
    team = compute_team()
    assert (team.size, team.scopes, get_blas_threads()) == (1, 0, threaded_blas)


def test_serial_pipeline_thread_budget_defaults(model, monkeypatch):
    monkeypatch.delenv(BLAS_THREADS_ENV, raising=False)
    default = min(usable_cores(), DEFAULT_TEAM_LIMIT)
    assert ExecutionConfig(compile=True).resolve().blas_threads == default
    assert ExecutionConfig().resolve().blas_threads == 0
    assert ExecutionConfig(compile=True, num_workers=2).resolve().blas_threads == 1
    # Bigger hosts get the measured team size by default, more only on request.
    monkeypatch.setattr(backends, "usable_cores", lambda: 64)
    assert ExecutionConfig(compile=True).resolve().blas_threads == DEFAULT_TEAM_LIMIT
    assert ExecutionConfig(compile=True, blas_threads=8).resolve().blas_threads == 8
    monkeypatch.setenv(BLAS_THREADS_ENV, "1")
    assert ExecutionConfig(compile=True).resolve().blas_threads == 1


class _BlasThreadProbe(Executor):
    """Fills each output with the BLAS thread count of the process running it."""

    name = "blas-thread-probe"

    def run_batch(self, batch: np.ndarray) -> np.ndarray:
        return np.full(batch.shape, float(get_blas_threads() or 0))


def _worker_blas_threads(**knobs) -> set[float]:
    with WorkerPoolExecutor(_BlasThreadProbe(), num_workers=2, **knobs) as pool:
        out = pool.run_batch(np.zeros((5, 1, 2, 2)))
        assert pool.robustness.degraded_runs == 0  # every chunk ran in a worker
    return set(out[1:].ravel().tolist())  # row 0 is the in-process spec probe


def test_pool_workers_run_one_blas_thread(monkeypatch):
    """Worker-side pin: the pooled default reaches the libraries the workers'
    GEMMs call, not just the executor's ``blas_threads`` attribute."""
    monkeypatch.delenv(BLAS_THREADS_ENV, raising=False)
    assert _worker_blas_threads() == {1.0}


def test_uncapped_pool_workers_keep_library_default(monkeypatch):
    """``blas_threads=0`` leaves the workers' libraries at their default."""
    monkeypatch.delenv(BLAS_THREADS_ENV, raising=False)
    default = _run_python(
        """
        import repro.pipeline
        from repro.nn.backends import get_blas_threads
        print(get_blas_threads())
        """
    )
    assert _worker_blas_threads(blas_threads=0) == {float(default)}


# --------------------------------------------------------------------- #
# The golden simulator on the compute team
# --------------------------------------------------------------------- #
def test_compute_thread_scopes_reuse_the_blas_handles(monkeypatch, threaded_blas):
    """Reading the mapped libraries costs about a millisecond, and an OPC
    correction opens a scope per iteration: after the first scope in a
    process, scopes no longer read them.  A newly imported module (the way
    another OpenBLAS gets mapped) makes the next scope read them once."""
    reads = []
    paths = backends._openblas_paths
    monkeypatch.setattr(backends, "_openblas_paths", lambda: reads.append(1) or paths())
    with compute_threads(2):
        pass
    reads.clear()
    for _ in range(3):
        with compute_threads(2):
            assert get_blas_threads() == 1
    assert reads == []
    monkeypatch.setitem(sys.modules, "repro_test_newly_imported", sys.modules[__name__])
    for _ in range(3):
        with compute_threads(2):
            pass
    assert reads == [1]
    assert get_blas_threads() == threaded_blas


def test_kernels_do_not_depend_on_blas_threads(threaded_blas):
    """Regression pin: ``eigh`` of the TCC returned other eigenvectors at 1
    and at 2 OpenBLAS threads (a degenerate pair split differently, kernels
    up to 0.17 apart), and the synthesis GEMM rounded differently; kernel
    generation now runs on one BLAS thread, inside a team scope or not, and
    gives the thread counts back."""
    from repro.litho import generate_kernels

    generated = []
    for threads in (1, 2):
        set_blas_threads(threads)
        generated.append(generate_kernels(num_kernels=10, kernel_support=31))
        assert get_blas_threads() == threads
    with compute_threads(2):
        generated.append(generate_kernels(num_kernels=10, kernel_support=31))
        assert get_blas_threads() == 1
    for kernels in generated[1:]:
        np.testing.assert_array_equal(kernels.kernels, generated[0].kernels)
        np.testing.assert_array_equal(kernels.eigenvalues, generated[0].eigenvalues)


def test_simulator_pipelines_match_at_any_thread_budget(monkeypatch, threaded_blas):
    """A simulator whose kernels were generated in plain code at two BLAS
    threads, under the default pipeline, against fresh simulators whose
    kernels are generated inside ``blas_threads=1`` and ``blas_threads=0``
    calls: the same aerial bits (they were 1.55e-5 apart)."""
    monkeypatch.delenv(BLAS_THREADS_ENV, raising=False)
    masks = _random_masks(2, 48, seed=5)
    simulator = LithoSimulator(pixel_size=16.0, num_kernels=10, kernel_support=31)
    simulator.kernels
    expected = InferencePipeline(as_executor(simulator, output="aerial")).predict(masks)
    for threads in (1, 0):
        fresh = as_executor(
            LithoSimulator(pixel_size=16.0, num_kernels=10, kernel_support=31), output="aerial"
        )
        got = InferencePipeline(fresh, ExecutionConfig(blas_threads=threads)).predict(masks)
        np.testing.assert_array_equal(got, expected, err_msg=f"blas_threads={threads}")


def test_serial_simulator_pipeline_runs_on_the_team(monkeypatch, threaded_blas):
    """A serial simulator pipeline sizes the team like a serial compiled one:
    the default budget (source ``default``), every call on that team with
    BLAS at one thread, both given back when the call returns."""
    monkeypatch.delenv(BLAS_THREADS_ENV, raising=False)
    monkeypatch.setattr(backends, "usable_cores", lambda: 2)
    assert ExecutionConfig().resolve(team=True).blas_threads == 2
    assert ExecutionConfig(num_workers=2).resolve(team=True).blas_threads == 1
    simulator = LithoSimulator(pixel_size=16.0, num_kernels=6, kernel_support=31)
    pipeline = InferencePipeline(simulator)
    assert pipeline.on_team
    assert pipeline.config.blas_threads == 2
    assert pipeline.config.source_of("blas_threads") == "default"
    seen = []
    original = pipeline.executor.run_batch

    def run_batch(batch):
        seen.append((compute_team().size, get_blas_threads()))
        return original(batch)

    pipeline.executor.run_batch = run_batch
    pipeline.predict(_random_masks(2, 32))
    assert seen and set(seen) == {(2, 1)}
    assert (compute_team().size, get_blas_threads()) == (1, threaded_blas)


class _TeamProbe(Executor):
    """An engine on the compute team; fills each output with the team size
    and BLAS thread count of the process running it."""

    name = "team-probe"
    on_team = True

    def run_batch(self, batch: np.ndarray) -> np.ndarray:
        return np.full(batch.shape, 10.0 * compute_team().size + float(get_blas_threads() or 0))


def test_pool_workers_of_a_team_engine_run_a_team_of_one(monkeypatch):
    monkeypatch.delenv(BLAS_THREADS_ENV, raising=False)
    with WorkerPoolExecutor(_TeamProbe(), num_workers=2) as pool:
        assert pool.on_team
        out = pool.run_batch(np.zeros((5, 1, 2, 2)))
        assert pool.robustness.degraded_runs == 0
    assert set(out[1:].ravel().tolist()) == {11.0}  # team of one, one BLAS thread
