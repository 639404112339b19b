"""Tests for the unified execution-config document and serializable plans.

Pins the PR-10 contracts: :class:`ExecutionConfig` is the one knob document
(explicit > ``REPRO_*`` env > default, resolved exactly once, with per-field
provenance and structured :class:`ConfigError`\\ s), :class:`ExecutionPlan`
round-trips through JSON and matches the executed :class:`PipelineStats`,
and every consumer reaches the pipeline through ``config=``.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from repro import knobs
from repro.core import DOINN
from repro.experiments import Harness
from repro.litho import LithoSimulator
from repro.opc import OPCConfig, OPCEngine
from repro.pipeline import (
    ConfigError,
    ExecutionConfig,
    ExecutionPlan,
    InferencePipeline,
    RetryPolicy,
    WorkerPoolExecutor,
)
from repro.pipeline.supervision import DEFAULT_MAX_RETRIES

#: Every environment leg ExecutionConfig.resolve() consults.
KNOB_ENVS = (
    "REPRO_NUM_WORKERS",
    "REPRO_BLAS_THREADS",
    "REPRO_WORKER_TIMEOUT",
    "REPRO_WORKER_RETRIES",
    "REPRO_DEGRADE",
)


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    """Every test starts from an empty knob environment."""
    for name in KNOB_ENVS:
        monkeypatch.delenv(name, raising=False)


@pytest.fixture(scope="module")
def model(tiny_model_factory) -> DOINN:
    return tiny_model_factory("doinn")


def _mask(size: int, seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.random((size, size)) > 0.8).astype(float)


# --------------------------------------------------------------------- #
# Resolution: explicit > env > default, exactly once
# --------------------------------------------------------------------- #
def test_resolve_defaults():
    cfg = ExecutionConfig().resolve()
    assert cfg.resolved
    assert cfg.batch_size == 8
    assert cfg.optical_diameter_pixels == 16
    assert cfg.num_workers == 0
    assert cfg.compile is False
    assert cfg.blas_threads == 0
    assert cfg.retry == RetryPolicy(timeout=None, max_retries=DEFAULT_MAX_RETRIES, degrade=True)
    # Deliberate pass-throughs stay None.
    assert cfg.tile_size is None
    assert cfg.backend is None
    for name in (
        "batch_size", "num_workers", "blas_threads",
        "retry.timeout", "retry.max_retries", "retry.degrade",
    ):
        assert cfg.source_of(name) == "default"


def test_resolve_is_idempotent():
    cfg = ExecutionConfig(num_workers=2).resolve()
    assert cfg.resolve() is cfg


@pytest.mark.parametrize(
    ("env", "raw", "field", "env_value", "explicit", "explicit_value"),
    [
        ("REPRO_NUM_WORKERS", "3", "num_workers", 3, 1, 1),
        ("REPRO_BLAS_THREADS", "5", "blas_threads", 5, 2, 2),
    ],
)
def test_env_vs_explicit_precedence(monkeypatch, env, raw, field, env_value, explicit, explicit_value):
    monkeypatch.setenv(env, raw)
    from_env = ExecutionConfig().resolve()
    assert getattr(from_env, field) == env_value
    assert from_env.source_of(field) == env

    forced = ExecutionConfig(**{field: explicit}).resolve()
    assert getattr(forced, field) == explicit_value
    assert forced.source_of(field) == "explicit"


@pytest.mark.parametrize(
    ("env", "raw", "attr", "env_value", "explicit_retry", "explicit_value"),
    [
        ("REPRO_WORKER_TIMEOUT", "7.5", "timeout", 7.5, RetryPolicy(timeout=3.0), 3.0),
        ("REPRO_WORKER_RETRIES", "5", "max_retries", 5, RetryPolicy(max_retries=1), 1),
        ("REPRO_DEGRADE", "0", "degrade", False, RetryPolicy(degrade=True), True),
        ("REPRO_DEGRADE", "off", "degrade", False, RetryPolicy(degrade=True), True),
        ("REPRO_WORKER_RETRIES", "5", "max_retries", 5, RetryPolicy(max_retries=0), 0),
        # An explicit 0 turns the env deadline off, and stays 0.
        ("REPRO_WORKER_TIMEOUT", "7.5", "timeout", 7.5, RetryPolicy(timeout=0), 0),
    ],
)
def test_retry_env_vs_explicit_precedence(monkeypatch, env, raw, attr, env_value, explicit_retry, explicit_value):
    monkeypatch.setenv(env, raw)
    from_env = ExecutionConfig().resolve()
    assert getattr(from_env.retry, attr) == env_value
    assert from_env.source_of(f"retry.{attr}") == env

    forced = ExecutionConfig(retry=explicit_retry).resolve()
    assert getattr(forced.retry, attr) == explicit_value
    assert forced.source_of(f"retry.{attr}") == "explicit"


def test_retry_explicit_policy_beats_every_env_leg(monkeypatch):
    monkeypatch.setenv("REPRO_WORKER_TIMEOUT", "7.5")
    monkeypatch.setenv("REPRO_WORKER_RETRIES", "5")
    monkeypatch.setenv("REPRO_DEGRADE", "off")
    retry = ExecutionConfig(retry=RetryPolicy(timeout=2.0, max_retries=1, degrade=True)).resolve().retry
    assert (retry.timeout, retry.max_retries, retry.degrade) == (2.0, 1, True)


def test_retry_timeout_zero_sentinel_survives_env(monkeypatch):
    monkeypatch.setenv("REPRO_WORKER_TIMEOUT", "9")
    cfg = ExecutionConfig(retry=RetryPolicy(timeout=0)).resolve()
    assert cfg.retry.timeout == 0
    assert cfg.source_of("retry.timeout") == "explicit"


def test_blas_default_tracks_workers(monkeypatch):
    assert ExecutionConfig(num_workers=2).resolve().blas_threads == 1
    assert ExecutionConfig(num_workers=0).resolve().blas_threads == 0
    # The env leg beats the pooled default; an explicit budget beats both.
    monkeypatch.setenv("REPRO_BLAS_THREADS", "3")
    assert ExecutionConfig(num_workers=4).resolve().blas_threads == 3
    assert ExecutionConfig(num_workers=4, blas_threads=1).resolve().blas_threads == 1


@pytest.mark.parametrize(
    ("env", "raw"),
    [
        ("REPRO_NUM_WORKERS", "not-a-number"),
        ("REPRO_BLAS_THREADS", "many"),
        ("REPRO_WORKER_TIMEOUT", "soon"),
        ("REPRO_WORKER_RETRIES", "-2"),
        ("REPRO_DEGRADE", "sideways"),
    ],
)
def test_invalid_env_value_raises_naming_the_knob(monkeypatch, env, raw):
    monkeypatch.setenv(env, raw)
    with pytest.raises(ValueError, match=env):
        ExecutionConfig().resolve()


def test_sources_empty_before_resolution():
    cfg = ExecutionConfig(num_workers=2)
    assert cfg.sources == {}
    assert cfg.source_of("num_workers") == "explicit"
    assert cfg.source_of("tile_size") == "unset"
    assert set(cfg.resolve().sources) >= {"batch_size", "retry.timeout", "blas_threads"}


# --------------------------------------------------------------------- #
# Merging (the one field-by-field override pass)
# --------------------------------------------------------------------- #
def test_merged_other_wins_field_by_field():
    base = ExecutionConfig(num_workers=1, compile=True, batch_size=4)
    other = ExecutionConfig(num_workers=2, blas_threads=3)
    merged = base.merged(other)
    assert merged.num_workers == 2          # other's set field wins
    assert merged.blas_threads == 3
    assert merged.compile is True           # other's None never overrides
    assert merged.batch_size == 4


def test_merged_overrides_beat_other():
    base = ExecutionConfig(num_workers=1)
    other = ExecutionConfig(num_workers=2)
    assert base.merged(other, num_workers=4).num_workers == 4
    assert base.merged(other, num_workers=None).num_workers == 2


def test_merged_unknown_knob_raises():
    with pytest.raises(ConfigError) as excinfo:
        ExecutionConfig().merged(worker_count=2)
    assert excinfo.value.field == "worker_count"
    assert "worker_count" in str(excinfo.value)


def test_merged_no_changes_returns_self():
    cfg = ExecutionConfig(num_workers=1)
    assert cfg.merged() is cfg
    assert cfg.merged(ExecutionConfig(), num_workers=None) is cfg


def test_merged_invalidates_resolution():
    resolved = ExecutionConfig().resolve()
    assert resolved.merged(num_workers=2).resolved is False


# --------------------------------------------------------------------- #
# Validation: structured errors naming field + source
# --------------------------------------------------------------------- #
def test_validate_names_field_and_source():
    with pytest.raises(ConfigError) as excinfo:
        ExecutionConfig(batch_size=0).validate()
    assert excinfo.value.field == "batch_size"
    assert excinfo.value.source == "explicit"
    assert "batch_size" in str(excinfo.value)


def test_config_error_is_value_error():
    assert issubclass(ConfigError, ValueError)
    with pytest.raises(ValueError):
        ExecutionConfig(num_workers=-1).validate()


@pytest.mark.parametrize(
    ("field", "value"),
    [
        ("batch_size", True),           # bools are not sizes
        ("tile_size", 0),
        ("optical_diameter_pixels", 0),
        ("num_workers", -1),
        ("blas_threads", -1),
        ("blas_threads", 1.5),
        ("backend", "not-a-backend"),
        ("compile", 1),
        ("tile_size", 2.5),
        ("retry", object()),
        ("backend", ["float64"]),       # a JSON list is not a lane name
    ],
)
def test_validate_rejects_bad_values(field, value):
    with pytest.raises(ConfigError) as excinfo:
        ExecutionConfig(**{field: value}).validate()
    assert excinfo.value.field == field


def test_resolve_validates():
    with pytest.raises(ConfigError):
        ExecutionConfig(batch_size=0).resolve()


# --------------------------------------------------------------------- #
# Serialization (satellite 3: JSON round-trips)
# --------------------------------------------------------------------- #
def test_config_json_round_trip():
    cfg = ExecutionConfig(
        tile_size=32,
        batch_size=4,
        num_workers=2,
        retry=RetryPolicy(timeout=1.5, max_retries=1, degrade=False),
        backend="float32",
        blas_threads=1,
    )
    assert ExecutionConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


def test_resolved_config_json_round_trip():
    cfg = ExecutionConfig(num_workers=2).resolve()
    restored = ExecutionConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert restored == cfg
    assert restored.resolved


def test_resolved_document_is_resolved_again():
    """A ``"resolved": true`` document is validated like any other; its
    values come back with provenance (``explicit``), not empty sources."""
    with pytest.raises(ConfigError, match="batch_size") as excinfo:
        ExecutionConfig.from_dict({"num_workers": -5, "batch_size": 0, "resolved": True})
    assert excinfo.value.field == "batch_size"
    with pytest.raises(ConfigError, match="num_workers"):
        ExecutionConfig.from_dict({"num_workers": -5, "resolved": True})
    restored = ExecutionConfig.from_dict(ExecutionConfig(num_workers=2).resolve().to_dict())
    assert restored.source_of("num_workers") == "explicit"
    assert restored.sources["batch_size"] == "explicit"


def test_to_dict_serializes_backend_name():
    cfg = ExecutionConfig(backend="float32")
    assert cfg.to_dict()["backend"] == "float32"
    assert ExecutionConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


@pytest.mark.parametrize(
    ("retry", "named"),
    [
        ({"bogus": 1}, "bogus"),
        ({"timeout": -1}, "timeout"),
        # A document saved before the retry delay became a constant.
        ({"timeout": None, "max_retries": 2, "degrade": True, "backoff": 0.05,
          "backoff_cap": 0.5}, "backoff"),
    ],
    ids=["unknown-key", "bad-value", "saved-backoff"],
)
def test_from_dict_bad_retry_raises_config_error(retry, named):
    with pytest.raises(ConfigError, match=named) as excinfo:
        ExecutionConfig.from_dict({"num_workers": 2, "retry": retry})
    assert excinfo.value.field == "retry"


def test_config_field_sets_are_pinned():
    """The execution knobs, exactly: adding one means editing this test."""
    assert [spec.name for spec in fields(ExecutionConfig)] == [
        "tile_size", "batch_size", "optical_diameter_pixels", "num_workers",
        "compile", "backend", "blas_threads", "retry", "resolved",
    ]
    assert [spec.name for spec in fields(RetryPolicy)] == [
        "timeout", "max_retries", "degrade",
    ]


def test_from_dict_unknown_key_raises():
    with pytest.raises(ConfigError) as excinfo:
        ExecutionConfig.from_dict({"num_workers": 2, "workers": 3})
    assert excinfo.value.field == "workers"


def test_plan_from_dict_unknown_key_raises():
    with pytest.raises(ConfigError) as excinfo:
        ExecutionPlan.from_dict({"engine": "doinn", "modes": "native"})
    assert excinfo.value.field == "modes"


@pytest.mark.parametrize(
    ("payload", "missing"),
    [
        ({}, "engine, mode, num_masks, mask_shape, batch_size"),
        ({"engine": "x"}, "mode, num_masks, mask_shape, batch_size"),
    ],
    ids=["empty", "engine-only"],
)
def test_plan_from_dict_missing_key_raises(payload, missing):
    with pytest.raises(ConfigError, match=f"required key\\(s\\) {missing}$") as excinfo:
        ExecutionPlan.from_dict(payload)
    assert excinfo.value.field == missing.split(",")[0]


def test_knob_registry_maps_to_config_fields():
    """Every execution knob in the registry names a real config field."""
    config_fields = {spec.name for spec in fields(ExecutionConfig)}
    retry_fields = {spec.name for spec in fields(RetryPolicy)}
    mapped = set()
    for knob in knobs.all_knobs():
        if not knob.field:
            continue
        if knob.field.startswith("retry."):
            assert knob.field.removeprefix("retry.") in retry_fields, knob.name
        else:
            assert knob.field in config_fields, knob.name
        mapped.add(knob.name)
    assert {
        "REPRO_NUM_WORKERS",
        "REPRO_BACKEND", "REPRO_BLAS_THREADS",
        "REPRO_WORKER_TIMEOUT", "REPRO_WORKER_RETRIES", "REPRO_DEGRADE",
        "REPRO_COMPILE",
    } <= mapped


# --------------------------------------------------------------------- #
# Plans: serializable, executable, and honest about what ran
# --------------------------------------------------------------------- #
STITCHED = ExecutionConfig(tile_size=32, batch_size=4, optical_diameter_pixels=16)


def test_plan_stitched_geometry(model):
    with InferencePipeline(model, config=STITCHED) as pipeline:
        plan = pipeline.plan(np.stack([_mask(64, seed=s) for s in (1, 2)]))
    assert plan.engine == pipeline.name
    assert plan.mode == "stitched"
    assert plan.num_masks == 2
    assert plan.mask_shape == (64, 64)
    rows, cols = plan.tile_grid
    assert (rows, cols) == (3, 3)  # overlapping tiles: stride < tile_size
    assert plan.tiles_per_mask == rows * cols
    assert plan.num_tiles == plan.num_masks * plan.tiles_per_mask
    assert plan.sharded_tiles is False


def test_plan_json_round_trip(model):
    with InferencePipeline(model, config=STITCHED) as pipeline:
        plan = pipeline.plan(_mask(64))
    restored = ExecutionPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
    assert restored == plan
    assert isinstance(restored.mask_shape, tuple)
    assert isinstance(restored.tile_grid, tuple)


@pytest.mark.parametrize("size,mode", [(32, "native"), (64, "stitched")])
def test_plan_matches_executed_stats(model, size, mode):
    masks = np.stack([_mask(size, seed=s) for s in (3, 4, 5)])
    with InferencePipeline(model, config=STITCHED) as pipeline:
        plan = pipeline.plan(masks)
        result = pipeline.run(masks)
    assert plan.mode == mode
    stats = result.stats
    assert (stats.mode, stats.num_tiles, stats.num_batches, stats.sharded_tiles) == (
        plan.mode, plan.num_tiles, plan.num_batches, plan.sharded_tiles,
    )
    assert stats.num_masks == plan.num_masks


def test_execute_matches_predict(model):
    masks = np.stack([_mask(64, seed=s) for s in (6, 7)])
    with InferencePipeline(model, config=STITCHED) as pipeline:
        plan = pipeline.plan(masks)
        executed = pipeline.execute(plan, masks)
        reference = pipeline.predict(masks)
    assert np.array_equal(executed.outputs[:, 0], reference)


def test_execute_rejects_foreign_plans(model):
    masks = _mask(64)
    with InferencePipeline(model, config=STITCHED) as pipeline:
        plan = pipeline.plan(masks)
        with pytest.raises(ValueError, match="built for engine"):
            pipeline.execute(replace(plan, engine="someone-else"), masks)
        with pytest.raises(ValueError, match="plan covers"):
            pipeline.execute(plan, np.stack([masks, masks]))


def test_plan_pooled_sharded(model):
    masks = np.stack([_mask(64, seed=s) for s in (8, 9)])
    with InferencePipeline(model, config=STITCHED.merged(num_workers=2)) as pipeline:
        plan = pipeline.plan(masks)
        stats = pipeline.run(masks).stats
    assert plan.num_workers == 2
    assert plan.sharded_tiles is True
    assert plan.super_batch == 4 * 2
    assert (stats.mode, stats.num_tiles, stats.num_batches, stats.sharded_tiles) == (
        plan.mode, plan.num_tiles, plan.num_batches, plan.sharded_tiles,
    )


# --------------------------------------------------------------------- #
# config= is the one route into every consumer
# --------------------------------------------------------------------- #
def test_config_route_does_not_warn(model):
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        pipeline = InferencePipeline(model, config=ExecutionConfig(batch_size=2))
        pipeline.close()


def test_harness_config_route_does_not_warn(model):
    harness = Harness()
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        pipeline = harness.model_pipeline(
            model, config=ExecutionConfig(tile_size=32, batch_size=2)
        )
    assert pipeline.config.batch_size == 2
    pipeline.close()


def test_prebuilt_pool_settings_land_in_the_config(model):
    """A pre-built pool runs its own workers, retries and threads, so
    the pipeline's config reports those, not a serial default; every other
    field still comes from the config passed in."""
    retry = RetryPolicy(timeout=0, max_retries=1, degrade=False)
    pool = WorkerPoolExecutor(model, num_workers=2, retry=retry)
    pipeline = InferencePipeline(pool, ExecutionConfig(batch_size=4))
    try:
        cfg = pipeline.config
        assert cfg.resolved
        assert (cfg.num_workers, cfg.blas_threads) == (2, 1)
        assert (cfg.retry.timeout, cfg.retry.max_retries, cfg.retry.degrade) == (0, 1, False)
        assert cfg.blas_threads == pool.blas_threads
        assert cfg.batch_size == 4
        assert pipeline.num_workers == pipeline.plan(np.zeros((2, 64, 64))).num_workers == 2
    finally:
        pipeline.close()


def test_simulator_pipeline_forwards_every_knob():
    """The harness forwards the whole config: blas_threads is not dropped."""
    harness = Harness()
    cfg = ExecutionConfig(num_workers=0, blas_threads=0)
    pipeline = harness.simulator_pipeline(config=cfg)
    try:
        assert pipeline.config.blas_threads == 0
        assert pipeline.config.source_of("blas_threads") == "explicit"
    finally:
        pipeline.close()


def test_opc_config_execution_merge():
    """The OPC engine's pipeline runs the embedded execution document;
    incremental re-simulation is an OPC setting, on by default."""
    simulator = LithoSimulator(pixel_size=8.0, num_kernels=4, kernel_support=15)
    cfg = OPCConfig(
        incremental=False,
        execution=ExecutionConfig(num_workers=0, blas_threads=3, batch_size=2),
    )
    with OPCEngine(simulator, cfg) as engine:
        assert (engine.pipeline.config.blas_threads, engine.pipeline.config.batch_size) == (3, 2)
    assert OPCConfig().incremental is True
