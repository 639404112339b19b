"""Central registry of every ``REPRO_*`` runtime knob.

Every environment-variable knob of the engine is read here.  This
module is the single choke point the ENV001 lint rule enforces: **no other
module under ``src/`` (or ``benchmarks/``, ``examples/``, ``scripts/``) may
touch ``os.environ``** — every env read routes through :func:`get_raw` /
the typed ``read_*`` helpers here, and every knob is declared up front with
its parser kind, display default and documentation string.

What centralizing buys:

* **one parser per type** — :func:`parse_bool` / :func:`parse_int` /
  :func:`parse_float`, with one pinned behavior for invalid strings (a
  :class:`KnobError`, which is a ``ValueError``, naming the knob and the
  offending value);
* **a machine-readable catalogue** — the knob tables in
  ``docs/configuration.md`` are *generated* from this registry
  (``scripts/gen_config_docs.py``) and the ENV002 lint rule fails CI when
  they drift in either direction;
* **typo detection** — reading an unregistered name raises immediately
  instead of silently returning the default forever.

The resolution precedence every knob follows is documented in
``docs/configuration.md``: explicit value > environment variable > built-in
default.  This module owns only the environment leg.  For the execution
knobs, :meth:`repro.pipeline.ExecutionConfig.resolve` owns precedence and
defaults in one pass; the few knobs outside that document (backend lane,
fault plan, harness profile, artifacts root) resolve next to their consumer.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

__all__ = [
    "FALSE_FLAGS",
    "TRUE_FLAGS",
    "Knob",
    "KnobError",
    "all_knobs",
    "get_knob",
    "get_raw",
    "knob_names",
    "markdown_table",
    "parse_bool",
    "parse_float",
    "parse_int",
    "read_flag",
    "read_float",
    "read_int",
    "read_string",
    "register_knob",
    "sync_markdown",
]

#: Accepted spellings for boolean knobs (case-insensitive, whitespace-stripped).
TRUE_FLAGS = frozenset({"1", "true", "yes", "on"})
FALSE_FLAGS = frozenset({"0", "false", "no", "off"})


class KnobError(ValueError):
    """Invalid value for a registered knob.

    Subclasses :class:`ValueError` so every pre-registry call site (and
    test) that caught ``ValueError`` keeps working unchanged.
    """


# --------------------------------------------------------------------------
# Parsers: the one implementation of each value type
# --------------------------------------------------------------------------


def parse_bool(raw: str, *, name: str = "value") -> bool | None:
    """Parse a boolean flag string; ``None`` when empty/whitespace.

    This is *the* truthy parser — the four per-module copies it replaced
    disagreed on invalid strings (one treated ``""`` as false, another
    raised with a different message).  The pinned contract: empty means
    "unset, use the default"; anything outside :data:`TRUE_FLAGS` /
    :data:`FALSE_FLAGS` raises :class:`KnobError` naming the knob.
    """
    text = raw.strip().lower()
    if not text:
        return None
    if text in TRUE_FLAGS:
        return True
    if text in FALSE_FLAGS:
        return False
    raise KnobError(
        f"{name}={raw!r} is not a boolean flag "
        f"(expected one of 1/true/yes/on or 0/false/no/off)"
    )


def parse_int(raw: str, *, name: str = "value", minimum: int | None = None) -> int | None:
    """Parse an integer knob string; ``None`` when empty/whitespace."""
    text = raw.strip()
    if not text:
        return None
    try:
        value = int(text)
    except ValueError:
        raise KnobError(f"{name}={raw!r} is not an integer") from None
    if minimum is not None and value < minimum:
        raise KnobError(f"{name}={raw!r} must be >= {minimum}")
    return value


def parse_float(raw: str, *, name: str = "value", minimum: float | None = None) -> float | None:
    """Parse a float knob string; ``None`` when empty/whitespace."""
    text = raw.strip()
    if not text:
        return None
    try:
        value = float(text)
    except ValueError:
        raise KnobError(f"{name}={raw!r} is not a number") from None
    if minimum is not None and value < minimum:
        raise KnobError(f"{name}={raw!r} must be >= {minimum}")
    return value


# --------------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Knob:
    """One declared runtime knob.

    ``kind`` is documentation-facing (what shape of value the knob takes);
    the resolving code (``ExecutionConfig.resolve`` for the execution knobs)
    owns the actual typed read, so each knob's semantics (precedence,
    ``timeout=0`` meaning, choice validation against a live registry) stay
    in one place.
    """

    name: str        # environment variable, e.g. "REPRO_DEGRADE"
    kind: str        # "flag" | "int" | "float" | "string" | "path" | "choice" | "plan"
    default: str     # human-readable default, rendered into the docs table
    doc: str         # markdown "Meaning" cell for docs/configuration.md
    section: str     # docs section key (see SECTIONS)
    #: Matching :class:`repro.pipeline.ExecutionConfig` field ("retry.x" for
    #: the RetryPolicy sub-fields); empty for knobs outside the execution
    #: document (harness profile, artifacts root, fault plans).
    field: str = ""


#: Documentation sections, in the order they appear in docs/configuration.md.
SECTIONS: tuple[tuple[str, str], ...] = (
    ("execution", "Execution / parallelism"),
    ("backends", "Compute backends"),
    ("supervision", "Worker-pool supervision"),
    ("faults", "Fault injection (chaos testing)"),
    ("harness", "Experiment harness"),
)

_REGISTRY: dict[str, Knob] = {}


def register_knob(knob: Knob) -> Knob:
    """Register a knob (idempotent per name; re-registration replaces)."""
    if not knob.name.startswith("REPRO_"):
        raise KnobError(f"knob names must start with REPRO_, got {knob.name!r}")
    if knob.section not in {key for key, _ in SECTIONS}:
        valid = ", ".join(key for key, _ in SECTIONS)
        raise KnobError(f"unknown knob section {knob.section!r}; valid sections: {valid}")
    _REGISTRY[knob.name] = knob
    return knob


def knob_names() -> tuple[str, ...]:
    """Every registered knob name, registration order."""
    return tuple(_REGISTRY)


def all_knobs() -> tuple[Knob, ...]:
    """Every registered knob, registration order."""
    return tuple(_REGISTRY.values())


def get_knob(name: str) -> Knob:
    """Look up a registered knob by environment-variable name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        valid = ", ".join(sorted(_REGISTRY))
        raise KnobError(f"{name!r} is not a registered knob; registered: {valid}") from None


def get_raw(name: str) -> str | None:
    """The raw environment value of a registered knob (``None`` when unset).

    This is the single ``os.environ`` access point in the codebase — the
    ENV001 lint rule fails any other module that reads the environment.
    Reading a name that was never registered is a bug (a typo would
    otherwise silently read the default forever), so it raises.
    """
    get_knob(name)
    return os.environ.get(name)


def read_flag(name: str) -> bool | None:
    """Boolean knob from the environment; ``None`` when unset or empty."""
    raw = get_raw(name)
    if raw is None:
        return None
    return parse_bool(raw, name=name)


def read_int(name: str, *, minimum: int | None = None) -> int | None:
    """Integer knob from the environment; ``None`` when unset or empty."""
    raw = get_raw(name)
    if raw is None:
        return None
    return parse_int(raw, name=name, minimum=minimum)


def read_float(name: str, *, minimum: float | None = None) -> float | None:
    """Float knob from the environment; ``None`` when unset or empty."""
    raw = get_raw(name)
    if raw is None:
        return None
    return parse_float(raw, name=name, minimum=minimum)


def read_string(name: str) -> str | None:
    """Stripped string knob from the environment; ``None`` when unset/empty."""
    raw = get_raw(name)
    if raw is None:
        return None
    text = raw.strip()
    return text or None


# --------------------------------------------------------------------------
# The catalogue (doc strings are the generated docs/configuration.md cells)
# --------------------------------------------------------------------------

register_knob(Knob(
    name="REPRO_NUM_WORKERS",
    kind="int",
    default="`0` (serial)",
    doc=(
        "Worker processes the pipeline's batches are sharded across "
        "([`repro.pipeline.parallel`](../src/repro/pipeline/parallel.py)). "
        "Values `<= 1` run in-process. Explicit `num_workers=` wins."
    ),
    section="execution",
    field="num_workers",
))
register_knob(Knob(
    name="REPRO_BACKEND",
    kind="choice",
    default="`float64`",
    doc=(
        "Compute lane of compiled fused graphs, one of `float64` and "
        "`float32`. `float64`: bit-identical to the uncompiled path (the "
        "1e-12 equivalence gate). `float32`: folded weights narrowed at "
        "compile time, whole graph in float32 — calibrated-tolerance "
        "equivalence (~1e-6 on the zoo). Both lanes are partition-invariant "
        "(pooled == serial, bitwise)."
    ),
    section="backends",
    field="backend",
))
register_knob(Knob(
    name="REPRO_BLAS_THREADS",
    kind="int",
    default=(
        "pooled: `1` per worker; serial compiled or simulator: the usable core "
        "count, at most 2; other serial: leave the library alone"
    ),
    doc=(
        "Thread budget. A compiled pipeline's fused conv kernels and the "
        "golden simulator's aerial image split their work into units fixed "
        "by the geometry and run them on a per-process compute team of this "
        "many threads, with every OpenBLAS capped at one thread: for each "
        "call of a serial pipeline (restored when it returns), for the whole "
        "life of a pool worker (any team size gives the same bits). "
        "Unfused model pipelines take it as a plain BLAS cap, applied "
        "to every OpenBLAS the process has mapped (numpy's and scipy's bundled "
        "copies alike). Applied in each pool worker at spawn, and in-process "
        "when serial. The pooled default prevents oversubscription: keep "
        "`num_workers x blas_threads <= physical cores` when raising it. `0` "
        "means a team of one and \"do not touch the BLAS library\". The serial "
        "compiled and simulator default comes from the process's CPU "
        "affinity, never from the BLAS library, so a second pipeline gets the "
        "same budget; it stops at 2, the largest team measured, unless set "
        "explicitly. Set it per pipeline with `ExecutionConfig(blas_threads=...)`, "
        "which the harness, the experiment drivers and `OPCConfig.execution` "
        "all take."
    ),
    section="backends",
    field="blas_threads",
))
register_knob(Knob(
    name="REPRO_WORKER_TIMEOUT",
    kind="float",
    default="unset (no deadline)",
    doc=(
        "Per-chunk deadline in seconds before a worker is declared hung and "
        "killed (the chunk is then retried).  Chunk cost is "
        "workload-dependent, so there is deliberately no default deadline; an "
        "explicit `timeout=0` disables an environment-set one."
    ),
    section="supervision",
    field="retry.timeout",
))
register_knob(Knob(
    name="REPRO_WORKER_RETRIES",
    kind="int",
    default="`2`",
    doc=(
        "Extra attempts per failed chunk after the first, each on a healthy "
        "(respawned if necessary) worker, with bounded exponential backoff.  "
        "`0` fails/degrades on the first error."
    ),
    section="supervision",
    field="retry.max_retries",
))
register_knob(Knob(
    name="REPRO_DEGRADE",
    kind="flag",
    default="on",
    doc=(
        "When a chunk exhausts its retries or the pool is irrecoverable "
        "(respawn budget spent), recompute the affected chunks in-process "
        "through the wrapped executor and finish the run with a "
        "`PoolDegradedWarning` — bit-identical output, degraded throughput.  "
        "`0` raises a structured `WorkerPoolError` instead (method, per-chunk "
        "bounds, attempt counts, every remote traceback)."
    ),
    section="supervision",
    field="retry.degrade",
))
register_knob(Knob(
    name="REPRO_FAULT_PLAN",
    kind="plan",
    default="unset (no injection)",
    doc=(
        "Deterministic fault plan shipped to every worker "
        "([`repro.pipeline.faults`](../src/repro/pipeline/faults.py)).  "
        "Production code never sets this; the CI chaos gate and "
        "`tests/pipeline/test_supervision.py` do."
    ),
    section="faults",
))
register_knob(Knob(
    name="REPRO_PROFILE",
    kind="choice",
    default="`quick`",
    doc=(
        "Experiment scale profile "
        "([`repro.experiments.harness`](../src/repro/experiments/harness.py)): "
        "`quick` reproduces the qualitative shape of every paper result in "
        "minutes on a laptop CPU; `full` approaches the paper's scale."
    ),
    section="harness",
))
register_knob(Knob(
    name="REPRO_ARTIFACTS",
    kind="path",
    default="`<repo>/artifacts`",
    doc=(
        "Root directory for experiment artifacts (tables, figures, "
        "checkpoints, benchmark reports). Created on demand. Must be an "
        "absolute path — a relative one would silently depend on the process "
        "working directory, so it raises instead."
    ),
    section="harness",
))
register_knob(Knob(
    name="REPRO_COMPILE",
    kind="flag",
    default="off",
    doc=(
        "Run the benchmark suite's model pipelines as compiled fused "
        "inference graphs ([`benchmarks/conftest.py`](../benchmarks/conftest.py)); "
        "the `--compile` pytest flag wins over the variable."
    ),
    section="harness",
    field="compile",
))


# --------------------------------------------------------------------------
# Documentation rendering (the ENV002 sync contract)
# --------------------------------------------------------------------------

_TABLE_HEADER = (
    "| Variable | Default | `ExecutionConfig` field | Meaning |\n|---|---|---|---|"
)


def markdown_table(section: str) -> str:
    """The generated markdown knob table for one docs section."""
    rows = [_TABLE_HEADER]
    for knob in _REGISTRY.values():
        if knob.section == section:
            field = f"`{knob.field}`" if knob.field else "—"
            rows.append(f"| `{knob.name}` | {knob.default} | {field} | {knob.doc} |")
    return "\n".join(rows)


def _marker(section: str, which: str) -> str:
    return f"<!-- knob-table:{section}:{which} -->"


def sync_markdown(text: str) -> tuple[str, list[str]]:
    """Regenerate the knob tables between markers in a docs file.

    Returns ``(updated_text, problems)``.  ``problems`` lists sections whose
    begin/end markers are missing or malformed; markers present but stale
    content is simply rewritten (callers compare input and output to detect
    drift).  Used by both ``scripts/gen_config_docs.py`` and the ENV002 rule
    so "in sync" has exactly one definition.
    """
    problems: list[str] = []
    for key, _title in SECTIONS:
        begin, end = _marker(key, "begin"), _marker(key, "end")
        start = text.find(begin)
        stop = text.find(end)
        if start < 0 or stop < 0 or stop < start:
            problems.append(
                f"docs section {key!r} is missing its {begin} / {end} markers"
            )
            continue
        head = text[: start + len(begin)]
        tail = text[stop:]
        text = f"{head}\n{markdown_table(key)}\n{tail}"
    return text, problems
