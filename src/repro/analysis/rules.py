"""The rule set: the engine's correctness contracts, machine-checked.

Each rule codifies an invariant a previous PR established by convention:

=========  ==============================================================
ENV001     all environment reads go through the knob registry
ENV002     knob registry and ``docs/configuration.md`` stay in exact sync
CONFIG001  execution knobs stay inside ``ExecutionConfig`` on public surfaces
SHM001     shared-memory creation/attachment stays registry-managed
DTYPE001   dtype narrowing stays confined to the backend module
ALLOC001   fused hot-path modules allocate only through the scratch cache
EXC001     broad exception handlers must justify themselves
PRAGMA001  suppression pragmas must be well-formed (hygiene for the above)
=========  ==============================================================

Every rule is suppressible at a specific line with a
``repro: ok(RULE, reason)`` comment pragma — the reason is mandatory, which
turns each suppression into reviewable documentation of *why* the invariant
bends there.  File-level allowlists below are the structural exemptions
(the module that *implements* a contract is naturally allowed to do the
thing it guards); pragmas are for point exemptions.
"""

from __future__ import annotations

import ast
from typing import Iterable

from .framework import (
    FileContext,
    Finding,
    ProjectContext,
    PRAGMA_MARKER_RE,
    PRAGMA_RE,
    Rule,
    known_rule_ids,
    register_rule,
)

__all__ = [
    "AllocDisciplineRule",
    "BroadExceptRule",
    "ConfigSurfaceRule",
    "DocSyncRule",
    "DtypeBoundaryRule",
    "EnvAccessRule",
    "PragmaHygieneRule",
    "SharedMemoryRule",
]


def _dotted(node: ast.AST) -> str | None:
    """Dotted name of a Name/Attribute chain (``np.zeros`` -> "np.zeros")."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@register_rule
class EnvAccessRule(Rule):
    id = "ENV001"
    title = "no os.environ access outside the knob registry"
    description = (
        "Every runtime knob resolves through repro.knobs (the single "
        "os.environ choke point), so knob precedence, parsing and the docs "
        "catalogue cannot fork per call site."
    )

    ALLOWED_FILES = ("repro/knobs.py",)
    BANNED_DOTTED = frozenset({
        "os.environ", "os.environb", "os.getenv", "os.putenv", "os.unsetenv",
    })
    BANNED_OS_NAMES = frozenset({"environ", "environb", "getenv", "putenv", "unsetenv"})

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.tree is None or ctx.matches_suffix(self.ALLOWED_FILES):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute):
                name = _dotted(node)
                if name in self.BANNED_DOTTED:
                    yield ctx.finding(
                        self.id, node,
                        f"`{name}` read outside the knob registry; route through "
                        "`repro.knobs` (get_raw / read_flag / read_int / ...)",
                    )
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                for alias in node.names:
                    if alias.name in self.BANNED_OS_NAMES:
                        yield ctx.finding(
                            self.id, node,
                            f"`from os import {alias.name}` outside the knob "
                            "registry; route through `repro.knobs`",
                        )


@register_rule
class DocSyncRule(Rule):
    id = "ENV002"
    title = "knob registry and docs/configuration.md in exact sync"
    description = (
        "The knob tables in docs/configuration.md are generated from "
        "repro.knobs (scripts/gen_config_docs.py); this rule fails when a "
        "registered knob is undocumented, a documented knob is unregistered, "
        "or a generated table section is stale."
    )

    DOC_RELPATH = "docs/configuration.md"

    def check_project(self, project: ProjectContext) -> Iterable[Finding]:
        from .. import knobs

        doc_path = project.root / self.DOC_RELPATH
        if not doc_path.exists():
            # Not a repo checkout (e.g. linting a fixture corpus): nothing
            # to sync against.
            return
        text = doc_path.read_text(encoding="utf-8")

        documented: dict[str, int] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.strip()
            if stripped.startswith("| `REPRO_"):
                name = stripped.split("`", 2)[1]
                documented.setdefault(name, lineno)

        registered = set(knobs.knob_names())
        for name in sorted(registered - set(documented)):
            yield Finding(
                rule=self.id, path=self.DOC_RELPATH, line=1,
                message=(
                    f"knob `{name}` is registered in repro.knobs but has no "
                    "table row here (run scripts/gen_config_docs.py)"
                ),
            )
        for name in sorted(set(documented) - registered):
            yield Finding(
                rule=self.id, path=self.DOC_RELPATH, line=documented[name],
                message=(
                    f"table row for `{name}` has no registered knob in "
                    "repro.knobs (stale docs or missing registration)"
                ),
            )

        regenerated, problems = knobs.sync_markdown(text)
        for problem in problems:
            yield Finding(rule=self.id, path=self.DOC_RELPATH, line=1, message=problem)
        if regenerated != text:
            yield Finding(
                rule=self.id, path=self.DOC_RELPATH, line=1,
                message=(
                    "generated knob tables are out of date with repro.knobs "
                    "(run scripts/gen_config_docs.py)"
                ),
            )


@register_rule
class ConfigSurfaceRule(Rule):
    id = "CONFIG001"
    title = "execution knobs stay inside ExecutionConfig on public surfaces"
    description = (
        "The knob sprawl this repo unwound: every execution knob (workers, "
        "backends, caching, supervision, ...) reaches the public "
        "pipeline/harness/driver surfaces as one ExecutionConfig document, "
        "not as yet another keyword re-declared per signature.  A new knob "
        "parameter on these surfaces forks defaults and precedence again; "
        "add a field to ExecutionConfig instead."
    )

    #: Parameter names that are execution knobs — declaring any of these on
    #: a public signature in the target surfaces is the violation.
    #: (``tile_size`` / ``batch_size`` / ``optical_diameter_pixels`` stay
    #: legal: they double as per-call geometry arguments.)
    KNOB_PARAMS = frozenset({
        "num_workers", "chunk_size", "shard_tiles",
        "result_cache", "retry", "backend", "blas_threads", "compile",
        "incremental",
    })
    #: The config-in surfaces: the pipeline entry point, the harness
    #: factories, the experiment drivers and the throughput measurement
    #: API — plus everything under benchmarks/ and examples/, which model
    #: how downstream callers hold the API.  The mechanism layers
    #: (parallel.py, backends.py, supervision.py, config.py itself) keep
    #: their per-knob signatures: they implement one knob each.
    TARGET_FILES = (
        "repro/pipeline/engine.py",
        "repro/experiments/harness.py",
        "repro/experiments/figure6_runtime.py",
        "repro/experiments/table4_large_tile.py",
        "repro/evaluation/runtime.py",
        "repro/opc/engine.py",
    )
    TARGET_DIRS = frozenset({"benchmarks", "examples"})

    def _is_target(self, ctx: FileContext) -> bool:
        if ctx.matches_suffix(self.TARGET_FILES):
            return True
        return any(part in self.TARGET_DIRS for part in ctx.path.parts)

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.tree is None or not self._is_target(ctx):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name.startswith("test_"):
                continue  # pytest parameters are fixtures, not API knobs
            if name.startswith("_") and name != "__init__":
                continue  # private helpers may thread knobs internally
            if ctx.enclosing_function(node) is not None:
                continue  # closures are implementation detail, not API
            args = node.args
            declared = {
                arg.arg for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs)
            }
            bad = sorted(declared & self.KNOB_PARAMS)
            if bad:
                yield ctx.finding(
                    self.id, node,
                    f"public signature `{name}` re-declares execution "
                    f"knob(s) {', '.join(bad)}; accept "
                    "`config=ExecutionConfig(...)` instead",
                )


@register_rule
class SharedMemoryRule(Rule):
    id = "SHM001"
    title = "SharedMemory stays registry-managed"
    description = (
        "/dev/shm hygiene: segments are created only by the streaming "
        "registry (whose atexit hook guarantees unlink), and attach sites "
        "either live in the worker-side segment cache or sit under "
        "try/finally so a failing chunk cannot leak a mapping."
    )

    CREATE_ALLOWED = ("repro/pipeline/streaming.py",)
    ATTACH_ALLOWED = (("repro/pipeline/parallel.py", "_map_segment"),)

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.tree is None or ctx.matches_suffix(self.CREATE_ALLOWED):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _dotted(node.func)
            if name is None or name.split(".")[-1] != "SharedMemory":
                continue
            creates = any(
                kw.arg == "create"
                and not (isinstance(kw.value, ast.Constant) and kw.value.value is False)
                for kw in node.keywords
            )
            if creates:
                yield ctx.finding(
                    self.id, node,
                    "SharedMemory(create=True) outside the streaming registry; "
                    "use repro.pipeline.streaming.create_segment so the atexit "
                    "teardown owns the segment",
                )
                continue
            func = ctx.enclosing_function(node)
            allowed = any(
                ctx.matches_suffix((file_suffix,)) and func is not None and func.name == func_name
                for file_suffix, func_name in self.ATTACH_ALLOWED
            )
            if allowed:
                continue
            under_try_finally = any(
                isinstance(ancestor, ast.Try) and ancestor.finalbody
                for ancestor in ctx.ancestors(node)
            )
            if not under_try_finally:
                yield ctx.finding(
                    self.id, node,
                    "raw SharedMemory attach outside try/finally or the worker "
                    "segment cache; a failure here would leak the mapping",
                )


@register_rule
class DtypeBoundaryRule(Rule):
    id = "DTYPE001"
    title = "dtype narrowing confined to the backend module"
    description = (
        "The executor boundary re-widens to float64; narrowing literals "
        "(np.float32, 'float32', '<f4', ...) outside repro/nn/backends.py "
        "would silently break the boundary contract the fusion equivalence "
        "gates depend on."
    )

    ALLOWED_FILES = ("repro/nn/backends.py", "repro/analysis/rules.py")
    NARROW_ATTRS = frozenset({"float32", "float16", "half", "single"})
    NARROW_STRINGS = frozenset({
        "float32", "float16", "f4", "f2", "<f4", ">f4", "=f4", "<f2", ">f2", "=f2",
    })
    NUMPY_NAMES = frozenset({"np", "numpy"})

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.tree is None or ctx.matches_suffix(self.ALLOWED_FILES):
            return
        docstrings = ctx.docstring_ids
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute) and node.attr in self.NARROW_ATTRS:
                base = _dotted(node.value)
                if base in self.NUMPY_NAMES:
                    yield ctx.finding(
                        self.id, node,
                        f"dtype-narrowing literal `{base}.{node.attr}` outside "
                        "repro/nn/backends.py; narrowing is the compute "
                        "backend's job (executors re-widen to float64)",
                    )
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and node.value in self.NARROW_STRINGS
                and id(node) not in docstrings
            ):
                yield ctx.finding(
                    self.id, node,
                    f"dtype-narrowing string {node.value!r} outside "
                    "repro/nn/backends.py; use the lane dtype from repro.nn.backends.BACKENDS",
                )


@register_rule
class AllocDisciplineRule(Rule):
    id = "ALLOC001"
    title = "no fresh allocations in the fused hot path"
    description = (
        "repro/nn/functional.py and repro/nn/fusion.py are the fused "
        "per-call hot path; fresh np.zeros/np.empty there (outside the "
        "namespaced scratch-cache helpers) reintroduces the "
        "allocation-per-call bug class PR 8 fixed twice."
    )

    HOT_FILES = ("repro/nn/functional.py", "repro/nn/fusion.py")
    ALLOC_NAMES = frozenset({
        "zeros", "empty", "ones", "full",
        "zeros_like", "empty_like", "ones_like", "full_like",
    })
    NUMPY_NAMES = frozenset({"np", "numpy"})
    ALLOWED_HELPERS = frozenset({"_cached_zeros"})

    def _is_alloc_attr(self, node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Attribute)
            and node.attr in self.ALLOC_NAMES
            and _dotted(node.value) in self.NUMPY_NAMES
        )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.tree is None or not ctx.matches_suffix(self.HOT_FILES):
            return
        called_attrs: set[int] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) and self._is_alloc_attr(node.func):
                called_attrs.add(id(node.func))
                func = ctx.enclosing_function(node)
                if func is not None and func.name in self.ALLOWED_HELPERS:
                    continue
                yield ctx.finding(
                    self.id, node,
                    f"fresh `np.{node.func.attr}` in a fused hot-path module; "
                    "allocate through the chain's namespaced scratch cache "
                    "(_cached_zeros / buffer handshake) or justify with a pragma",
                )
        # Aliased references (`alloc = np.empty`, called later) would dodge
        # the call check above, so any other mention of an allocator counts.
        for node in ast.walk(ctx.tree):
            if self._is_alloc_attr(node) and id(node) not in called_attrs:
                func = ctx.enclosing_function(node)
                if func is not None and func.name in self.ALLOWED_HELPERS:
                    continue
                yield ctx.finding(
                    self.id, node,
                    f"aliased `np.{node.attr}` allocator in a fused hot-path "
                    "module; allocate through the chain's namespaced scratch "
                    "cache or justify with a pragma",
                )


@register_rule
class BroadExceptRule(Rule):
    id = "EXC001"
    title = "broad exception handlers must justify themselves"
    description = (
        "`except Exception` (or bare except) either masks real bugs or is a "
        "deliberate guarded-teardown/classification site; the deliberate "
        "ones carry a pragma naming why, the rest get narrowed."
    )

    BROAD = frozenset({"Exception", "BaseException"})

    def _is_broad(self, expr: ast.AST | None) -> bool:
        if expr is None:
            return True  # bare except
        if isinstance(expr, ast.Tuple):
            return any(self._is_broad(item) for item in expr.elts)
        name = _dotted(expr)
        return name is not None and name.split(".")[-1] in self.BROAD

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.tree is None:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node.type):
                continue
            # A handler that re-raises (bare `raise` at its top level) is a
            # cleanup wrapper, not a swallow — allowed without a pragma.
            if any(isinstance(stmt, ast.Raise) and stmt.exc is None for stmt in node.body):
                continue
            label = "bare except" if node.type is None else "broad exception handler"
            yield ctx.finding(
                self.id, node,
                f"{label} swallows errors; narrow the exception type or "
                "justify with a `repro: ok(EXC001, reason)` pragma",
            )


@register_rule
class PragmaHygieneRule(Rule):
    id = "PRAGMA001"
    title = "suppression pragmas must be well-formed"
    description = (
        "A malformed pragma (missing reason, unknown rule id, bad syntax) "
        "would silently suppress nothing; this rule makes it loud."
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        for lineno, text in enumerate(ctx.lines, start=1):
            for marker in PRAGMA_MARKER_RE.finditer(text):
                match = PRAGMA_RE.match(text, marker.start())
                if match is None:
                    yield ctx.finding(
                        self.id, lineno,
                        "malformed suppression pragma; expected "
                        "`repro: ok(RULE, reason)`",
                    )
                    continue
                if not match["reason"].strip():
                    yield ctx.finding(
                        self.id, lineno,
                        f"suppression pragma for {match['rule']} has an empty "
                        "reason; name why the invariant bends here",
                    )
                elif match["rule"] not in known_rule_ids():
                    yield ctx.finding(
                        self.id, lineno,
                        f"suppression pragma names unknown rule "
                        f"{match['rule']!r}; known rules: "
                        + ", ".join(sorted(known_rule_ids())),
                    )
