"""One resolved :class:`ExecutionConfig` for every pipeline consumer.

Eight PRs of engine growth (workers, streaming, fusion, backends,
supervision, incremental OPC) each threaded a new keyword through the same
~8 signatures, and every consumer re-declared an overlapping subset with
subtly different defaults.  This module is the consolidation:

* :class:`ExecutionConfig` — a frozen dataclass owning **every** execution
  knob.  Unset fields are ``None``; :meth:`ExecutionConfig.resolve` performs
  the one resolution pass (explicit field > ``REPRO_*`` knob via
  :mod:`repro.knobs` > built-in default) exactly once and records where each
  value came from, so :meth:`ExecutionConfig.validate` can raise structured
  :class:`ConfigError`\\ s naming the field *and* the source.  Resolution is
  idempotent: re-resolving a resolved config is a no-op, and resolving its
  values again (the worker pool resolves the knobs it is handed) leaves them
  unchanged.
* :meth:`ExecutionConfig.to_dict` / :meth:`ExecutionConfig.from_dict` —
  JSON-safe round-trips, the request-admission contract of the future async
  serving front end (config doc in).
* :class:`ExecutionPlan` — the serializable output of
  :meth:`repro.pipeline.InferencePipeline.plan`: mode, tile grid,
  super-batch shape, pooled-vs-serial — everything
  ``PipelineStats`` used to reconstruct after the fact, known *before*
  execution (``show``-style state out; the unit the async scheduler will
  coalesce).

Two fields pass through unresolved: ``tile_size`` (``None`` disables
tiling; there is no env leg for geometry) and ``backend`` (``None`` means
"defer").  The compiled-graph lane precedence (a pre-converted graph's lane
wins over the environment; uncompiled pipelines ignore the env lane but
reject explicit non-default ones) lives at the executor boundary in
:mod:`repro.pipeline.executors` and must keep resolving there — folding
``REPRO_BACKEND`` into the config would silently override a compiled
graph's lane.  ``compile`` likewise has no environment leg here:
``REPRO_COMPILE`` is a benchmark-suite convention applied by
``benchmarks/conftest.py`` when it builds its session config.
"""

from __future__ import annotations

from dataclasses import MISSING, asdict, dataclass, fields, replace

from .. import knobs
from ..nn.backends import BACKENDS, BLAS_THREADS_ENV, default_blas_threads
from .supervision import (
    DEFAULT_MAX_RETRIES,
    DEGRADE_ENV,
    RetryPolicy,
    WORKER_RETRIES_ENV,
    WORKER_TIMEOUT_ENV,
)

__all__ = [
    "ConfigError",
    "ExecutionConfig",
    "ExecutionPlan",
    "NUM_WORKERS_ENV",
]

#: Environment leg of ``ExecutionConfig.num_workers``, so every pipeline
#: consumer (benchmarks, experiment drivers, examples) can be parallelized
#: without threading a flag through its call chain.
NUM_WORKERS_ENV = "REPRO_NUM_WORKERS"


class ConfigError(ValueError):
    """Invalid :class:`ExecutionConfig` value, naming the field and source.

    ``field`` is the config attribute (``"batch_size"``); ``source`` is where
    the offending value came from — ``"explicit"``, the ``REPRO_*`` variable
    name, or ``"default"``.  Subclasses :class:`ValueError` so every caller
    that caught ``ValueError`` from the old per-kwarg validation keeps
    working.
    """

    def __init__(self, message: str, *, field: str = "", source: str = "explicit") -> None:
        super().__init__(message)
        self.field = field
        self.source = source


@dataclass(frozen=True)
class ExecutionConfig:
    """Every execution knob of the inference pipeline, in one document.

    Unset fields are ``None`` and resolve through the registered ``REPRO_*``
    knob (one env leg per field, read via :mod:`repro.knobs`) down to the
    built-in default — the same precedence each knob has always had, now
    applied in exactly one place (:meth:`resolve`).  See
    ``docs/configuration.md`` for the knob -> field catalogue and
    ``docs/architecture.md`` for the config -> plan -> execute flow.
    """

    #: Native (training) tile size of the engine; ``None`` disables tiling.
    tile_size: int | None = None
    #: Tiles / masks per executor invocation (default 8).
    batch_size: int | None = None
    #: Optical ambit sizing the stitching core margin (default 16).
    optical_diameter_pixels: int | None = None
    #: Worker processes (``REPRO_NUM_WORKERS``, then 0 = serial).
    num_workers: int | None = None
    #: Compile model engines into fused inference graphs (default off; no env
    #: leg — ``REPRO_COMPILE`` is applied by the benchmark conftest).
    compile: bool | None = None
    #: Compute lane of the compiled graph.  Deliberately *not* resolved here:
    #: ``None`` defers to the executor boundary, where graph-lane precedence
    #: over ``REPRO_BACKEND`` lives (see the module docstring).
    backend: str | None = None
    #: Thread budget (``REPRO_BLAS_THREADS``, then 1 per worker when pooled,
    #: the usable core count up to 2 when serial and compiled or simulating,
    #: else 0 = leave the BLAS library alone).
    blas_threads: int | None = None
    #: Worker-pool supervision policy; ``None`` fields inside it defer to
    #: ``REPRO_WORKER_TIMEOUT`` / ``REPRO_WORKER_RETRIES`` / ``REPRO_DEGRADE``.
    retry: RetryPolicy | None = None
    #: Whether :meth:`resolve` has run on this instance.
    resolved: bool = False

    # ------------------------------------------------------------------ #
    # Merging (the one field-by-field override pass)
    # ------------------------------------------------------------------ #
    def merged(self, other: "ExecutionConfig | None" = None, /, **overrides) -> "ExecutionConfig":
        """A copy where ``other``'s set fields, then ``overrides``, win.

        ``None`` values never override.  Unknown override names raise
        :class:`ConfigError` (typo detection: a misspelt knob must not be
        silently dropped).
        """
        changes: dict = {}
        if other is not None:
            for spec in fields(self):
                if spec.name == "resolved":
                    continue
                value = getattr(other, spec.name)
                if value is not None:
                    changes[spec.name] = value
        valid = {spec.name for spec in fields(self)} - {"resolved"}
        unknown = sorted(set(overrides) - valid)
        if unknown:
            raise ConfigError(
                f"unknown execution knob(s) {', '.join(unknown)}; "
                f"valid fields: {', '.join(sorted(valid))}",
                field=unknown[0],
            )
        changes.update({k: v for k, v in overrides.items() if v is not None})
        if not changes:
            return self
        changes["resolved"] = False
        return replace(self, **changes)

    # ------------------------------------------------------------------ #
    # Resolution: the one explicit > env > default pass
    # ------------------------------------------------------------------ #
    def resolve(self, team: bool = False) -> "ExecutionConfig":
        """Apply the environment legs and defaults, exactly once.

        Returns a new config with every field concrete (except the
        deliberate pass-throughs ``backend`` and ``tile_size`` — see the
        field docs) and with :attr:`sources` recording per field whether
        the value was ``explicit``, came from its ``REPRO_*`` variable, or
        is the ``default``.  Resolving a resolved config returns it unchanged.
        ``team`` says the engine runs on the compute team even uncompiled
        (the golden simulator), which sets the ``blas_threads`` default the
        way ``compile`` does.
        """
        if self.resolved:
            return self
        values: dict = {}
        sources: dict[str, str] = {}

        def passthrough(name: str) -> None:
            values[name] = getattr(self, name)
            sources[name] = "explicit" if getattr(self, name) is not None else "default"

        def pick(name: str, env_name: str | None, env_value, default) -> None:
            explicit = getattr(self, name)
            if explicit is not None:
                values[name], sources[name] = explicit, "explicit"
            elif env_value is not None:
                values[name], sources[name] = env_value, env_name
            else:
                values[name], sources[name] = default, "default"

        passthrough("tile_size")
        passthrough("backend")
        pick("batch_size", None, None, 8)
        pick("optical_diameter_pixels", None, None, 16)
        pick("compile", None, None, False)
        pick("num_workers", NUM_WORKERS_ENV, knobs.read_int(NUM_WORKERS_ENV, minimum=0), 0)
        pick(
            "blas_threads",
            BLAS_THREADS_ENV,
            knobs.read_int(BLAS_THREADS_ENV, minimum=0),
            default_blas_threads(values["num_workers"], values["compile"] or team),
        )
        values["retry"] = self._resolve_retry(sources)
        sources["retry"] = "explicit" if self.retry is not None else "default"

        config = replace(self, resolved=True, **values)
        object.__setattr__(config, "_sources", dict(sources))
        config.validate()
        return config

    def _resolve_retry(self, sources: dict[str, str]) -> RetryPolicy:
        """Fill the retry policy's ``None`` fields from env / defaults.

        ``timeout`` keeps an explicit ``0`` as ``0`` (the "deadline off even
        when the environment sets one" sentinel) instead of folding it to
        ``None``: the worker pool resolves the policy it is handed again, and
        a ``None`` there would let the env deadline back in.  The supervisor
        arms a deadline only for a nonzero timeout.
        """
        base = self.retry if self.retry is not None else RetryPolicy()
        timeout = base.timeout
        if timeout is not None:
            sources["retry.timeout"] = "explicit"
        else:
            timeout = knobs.read_float(WORKER_TIMEOUT_ENV)
            sources["retry.timeout"] = WORKER_TIMEOUT_ENV if timeout is not None else "default"
        max_retries = base.max_retries
        if max_retries is not None:
            sources["retry.max_retries"] = "explicit"
        else:
            max_retries = knobs.read_int(WORKER_RETRIES_ENV, minimum=0)
            sources["retry.max_retries"] = (
                WORKER_RETRIES_ENV if max_retries is not None else "default"
            )
            if max_retries is None:
                max_retries = DEFAULT_MAX_RETRIES
        degrade = base.degrade
        if degrade is not None:
            sources["retry.degrade"] = "explicit"
        else:
            degrade = knobs.read_flag(DEGRADE_ENV)
            sources["retry.degrade"] = DEGRADE_ENV if degrade is not None else "default"
            if degrade is None:
                degrade = True
        return RetryPolicy(timeout=timeout, max_retries=max_retries, degrade=degrade)

    @property
    def sources(self) -> dict[str, str]:
        """``field -> provenance`` of a resolved config (empty before)."""
        return dict(getattr(self, "_sources", {}))

    def source_of(self, name: str) -> str:
        """Where a field's value came from: ``explicit`` / env name / ``default``."""
        stored = getattr(self, "_sources", None)
        if stored is not None and name in stored:
            return stored[name]
        return "explicit" if getattr(self, name, None) is not None else "unset"

    # ------------------------------------------------------------------ #
    # Validation (the future service's request-admission contract)
    # ------------------------------------------------------------------ #
    def validate(self) -> "ExecutionConfig":
        """Check every set field; raise :class:`ConfigError` naming field + source."""

        def fail(name: str, message: str) -> None:
            raise ConfigError(
                f"{name} {message} (from {self.source_of(name)})",
                field=name,
                source=self.source_of(name),
            )

        def check_min(name: str, minimum: int) -> None:
            value = getattr(self, name)
            if value is None:
                return
            if isinstance(value, bool) or not isinstance(value, int):
                fail(name, f"must be an integer, got {value!r}")
            if value < minimum:
                fail(name, f"must be at least {minimum}, got {value}")

        check_min("tile_size", 1)
        check_min("batch_size", 1)
        check_min("optical_diameter_pixels", 1)
        check_min("num_workers", 0)
        check_min("blas_threads", 0)
        if self.backend is not None and (
            not isinstance(self.backend, str) or self.backend not in BACKENDS
        ):
            fail(
                "backend",
                f"{self.backend!r} is not a compute backend; "
                f"valid backends: {', '.join(sorted(BACKENDS))}",
            )
        if self.retry is not None and not isinstance(self.retry, RetryPolicy):
            fail("retry", f"must be a RetryPolicy, got {self.retry!r}")
        if self.compile is not None and not isinstance(self.compile, bool):
            fail("compile", f"must be a boolean, got {self.compile!r}")
        return self

    # ------------------------------------------------------------------ #
    # Serialization (JSON-safe both ways)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """A JSON-safe dict: ``from_dict(json.loads(json.dumps(d)))`` round-trips."""
        payload: dict = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.name == "retry" and value is not None:
                value = asdict(value)
            payload[spec.name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ExecutionConfig":
        """Rebuild a config from :meth:`to_dict` output (unknown keys raise)."""
        valid = {spec.name for spec in fields(cls)}
        unknown = sorted(set(payload) - valid)
        if unknown:
            raise ConfigError(
                f"unknown execution config key(s) {', '.join(unknown)}",
                field=unknown[0],
            )
        data = dict(payload)
        retry = data.get("retry")
        if isinstance(retry, dict):
            data["retry"] = _retry_from_dict(retry)
        return cls(**data)


def _retry_from_dict(payload: dict) -> RetryPolicy:
    """The ``retry`` entry of a config document; bad keys or values raise
    :class:`ConfigError` with ``field="retry"``."""
    valid = {spec.name for spec in fields(RetryPolicy)}
    unknown = sorted(set(payload) - valid)
    if unknown:
        raise ConfigError(
            f"unknown retry key(s) {', '.join(unknown)}; "
            f"valid keys: {', '.join(sorted(valid))}",
            field="retry",
        )
    try:
        return RetryPolicy(**payload)
    except ValueError as exc:
        raise ConfigError(f"retry {exc}", field="retry") from exc


@dataclass(frozen=True)
class ExecutionPlan:
    """The serializable execution plan of one pipeline invocation.

    Produced by :meth:`repro.pipeline.InferencePipeline.plan` *before*
    anything runs; :meth:`~repro.pipeline.InferencePipeline.execute` carries
    it out, and the executed :class:`~repro.pipeline.PipelineStats` mirror
    its ``mode`` / ``num_tiles`` / ``num_batches`` / ``sharded_tiles``
    exactly.
    """

    engine: str
    mode: str                           # "native" | "stitched"
    num_masks: int
    mask_shape: tuple[int, int]
    batch_size: int
    tile_size: int | None = None
    tile_grid: tuple[int, int] = (0, 0)  # (rows, cols) of one mask's tiling
    tiles_per_mask: int = 0
    num_tiles: int = 0                   # GP tiles across the whole stream
    num_batches: int = 0                 # executor invocations
    super_batch: int = 0                 # tiles per GP dispatch (stitched only)
    num_workers: int = 0
    sharded_tiles: bool = False

    def to_dict(self) -> dict:
        payload = {spec.name: getattr(self, spec.name) for spec in fields(self)}
        payload["mask_shape"] = list(self.mask_shape)
        payload["tile_grid"] = list(self.tile_grid)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ExecutionPlan":
        """Rebuild a plan from :meth:`to_dict` output (unknown or missing
        keys raise :class:`ConfigError`)."""
        valid = {spec.name for spec in fields(cls)}
        unknown = sorted(set(payload) - valid)
        if unknown:
            raise ConfigError(
                f"unknown execution plan key(s) {', '.join(unknown)}",
                field=unknown[0],
            )
        missing = [
            spec.name
            for spec in fields(cls)
            if spec.default is MISSING and spec.name not in payload
        ]
        if missing:
            raise ConfigError(
                f"execution plan document lacks required key(s) {', '.join(missing)}",
                field=missing[0],
            )
        data = dict(payload)
        data["mask_shape"] = tuple(data["mask_shape"])
        data["tile_grid"] = tuple(data.get("tile_grid", (0, 0)))
        return cls(**data)
