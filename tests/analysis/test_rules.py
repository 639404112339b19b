"""Per-rule fixture corpus: every rule fires on its bad fixture and stays
quiet on its good one.

Fixtures are written to ``tmp_path`` (with repo-shaped relative paths where
a rule's allowlist cares) and analyzed in isolation, so these tests pin the
rules themselves — the repo-wide "zero findings" gate lives in
``test_cli.py``.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro import knobs
from repro.analysis import analyze


def lint(tmp_path: Path, source: str, relpath: str = "pkg/mod.py"):
    """Write ``source`` at ``tmp_path/relpath`` and lint just that file."""
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    return analyze([target], root=tmp_path)


def rule_ids(result):
    return [f.rule for f in result.findings]


# --------------------------------------------------------------------- #
# ENV001: no os.environ outside the knob registry
# --------------------------------------------------------------------- #

ENV001_BAD_ATTR = """\
    import os
    value = os.environ.get("REPRO_NUM_WORKERS")
"""

ENV001_BAD_GETENV = """\
    import os
    value = os.getenv("REPRO_DEGRADE", "1")
"""

ENV001_BAD_IMPORT = """\
    from os import environ
    value = environ["REPRO_DEGRADE"]
"""

ENV001_GOOD = """\
    from repro import knobs
    value = knobs.read_flag("REPRO_DEGRADE")
"""


@pytest.mark.parametrize(
    "source", [ENV001_BAD_ATTR, ENV001_BAD_GETENV, ENV001_BAD_IMPORT]
)
def test_env001_flags_raw_environment_reads(tmp_path, source):
    result = lint(tmp_path, source)
    assert rule_ids(result) == ["ENV001"]
    assert "repro.knobs" in result.findings[0].message


def test_env001_quiet_on_registry_reads(tmp_path):
    assert rule_ids(lint(tmp_path, ENV001_GOOD)) == []


def test_env001_allows_the_registry_itself(tmp_path):
    result = lint(tmp_path, ENV001_BAD_ATTR, relpath="src/repro/knobs.py")
    assert rule_ids(result) == []


# --------------------------------------------------------------------- #
# ENV002: registry <-> docs/configuration.md sync (project-level rule)
# --------------------------------------------------------------------- #

def write_synced_docs(root: Path) -> Path:
    """A minimal configuration.md whose tables are generated and current."""
    skeleton = ["# Configuration", ""]
    for key, title in knobs.SECTIONS:
        skeleton += [f"## {title}", "", f"<!-- knob-table:{key}:begin -->",
                     f"<!-- knob-table:{key}:end -->", ""]
    text, problems = knobs.sync_markdown("\n".join(skeleton))
    assert not problems
    doc = root / "docs" / "configuration.md"
    doc.parent.mkdir(parents=True, exist_ok=True)
    doc.write_text(text, encoding="utf-8")
    return doc


def test_env002_quiet_when_docs_are_synced(tmp_path):
    write_synced_docs(tmp_path)
    result = lint(tmp_path, "x = 1\n")
    assert rule_ids(result) == []


def test_env002_flags_undocumented_knob(tmp_path):
    doc = write_synced_docs(tmp_path)
    # Drop one generated row: that knob is now registered but undocumented,
    # and the table no longer matches its regenerated form.
    lines = [
        line for line in doc.read_text(encoding="utf-8").splitlines()
        if not line.startswith("| `REPRO_DEGRADE`")
    ]
    doc.write_text("\n".join(lines), encoding="utf-8")
    result = lint(tmp_path, "x = 1\n")
    messages = [f.message for f in result.findings if f.rule == "ENV002"]
    assert any("`REPRO_DEGRADE`" in m and "no table row" in m for m in messages)
    assert any("out of date" in m for m in messages)


def test_env002_flags_unregistered_doc_row(tmp_path):
    doc = write_synced_docs(tmp_path)
    doc.write_text(
        doc.read_text(encoding="utf-8")
        + "\n| `REPRO_BOGUS` | off | not a real knob |\n",
        encoding="utf-8",
    )
    result = lint(tmp_path, "x = 1\n")
    assert any(
        f.rule == "ENV002" and "`REPRO_BOGUS`" in f.message
        and "no registered knob" in f.message
        for f in result.findings
    )


def test_env002_flags_missing_markers(tmp_path):
    doc = tmp_path / "docs" / "configuration.md"
    doc.parent.mkdir(parents=True)
    doc.write_text("# Configuration\n\nno tables here\n", encoding="utf-8")
    result = lint(tmp_path, "x = 1\n")
    marker_findings = [
        f for f in result.findings
        if f.rule == "ENV002" and "markers" in f.message
    ]
    assert len(marker_findings) == len(knobs.SECTIONS)


def test_env002_skips_non_repo_checkouts(tmp_path):
    # No docs/configuration.md under the analysis root: nothing to sync.
    assert rule_ids(lint(tmp_path, "x = 1\n")) == []


# --------------------------------------------------------------------- #
# CONFIG001: execution knobs stay inside ExecutionConfig on public surfaces
# --------------------------------------------------------------------- #

CONFIG001_BAD_FUNC = """\
    def build_pipeline(model, num_workers=None, retry=None):
        return model
"""

CONFIG001_BAD_METHOD = """\
    class Harness:
        def __init__(self, blas_threads=None):
            self.blas_threads = blas_threads
"""

CONFIG001_GOOD_CONFIG = """\
    def build_pipeline(model, config=None, batch_size=None, tile_size=None):
        return model
"""

CONFIG001_PRAGMA = """\
    # repro: ok(CONFIG001, deprecated legacy shim kept for one release)
    def build_pipeline(model, num_workers=None):
        return model
"""

CONFIG001_PRIVATE = """\
    def _thread_knobs(num_workers, retry):
        return num_workers, retry

    def test_sweep(num_workers):
        return num_workers

    def public():
        def sweep(compile=False):
            return compile
        return sweep
"""


def test_config001_flags_knob_params_on_target_surfaces(tmp_path):
    result = lint(tmp_path, CONFIG001_BAD_FUNC, relpath="src/repro/pipeline/engine.py")
    assert rule_ids(result) == ["CONFIG001"]
    assert "num_workers, retry" in result.findings[0].message


def test_config001_flags_init_of_public_classes(tmp_path):
    result = lint(
        tmp_path, CONFIG001_BAD_METHOD, relpath="src/repro/experiments/harness.py"
    )
    assert rule_ids(result) == ["CONFIG001"]


def test_config001_covers_benchmarks_and_examples(tmp_path):
    for relpath in ("benchmarks/conftest.py", "examples/demo.py"):
        result = lint(tmp_path, CONFIG001_BAD_FUNC, relpath=relpath)
        assert rule_ids(result) == ["CONFIG001"], relpath


def test_config001_quiet_on_config_route_and_per_call_args(tmp_path):
    result = lint(
        tmp_path, CONFIG001_GOOD_CONFIG, relpath="src/repro/pipeline/engine.py"
    )
    assert rule_ids(result) == []


def test_config001_quiet_outside_target_surfaces(tmp_path):
    # The mechanism layers keep per-knob signatures (each implements one knob).
    result = lint(
        tmp_path, CONFIG001_BAD_FUNC, relpath="src/repro/pipeline/parallel.py"
    )
    assert rule_ids(result) == []


def test_config001_suppressible_with_pragma(tmp_path):
    result = lint(tmp_path, CONFIG001_PRAGMA, relpath="src/repro/pipeline/engine.py")
    assert rule_ids(result) == []


def test_config001_skips_private_test_and_nested_functions(tmp_path):
    result = lint(tmp_path, CONFIG001_PRIVATE, relpath="benchmarks/bench_demo.py")
    assert rule_ids(result) == []


# --------------------------------------------------------------------- #
# SHM001: SharedMemory stays registry-managed
# --------------------------------------------------------------------- #

SHM001_BAD_CREATE = """\
    from multiprocessing.shared_memory import SharedMemory

    def make():
        return SharedMemory(name="seg", create=True, size=64)
"""

SHM001_BAD_ATTACH = """\
    from multiprocessing.shared_memory import SharedMemory

    def attach(name):
        shm = SharedMemory(name=name)
        return bytes(shm.buf)
"""

SHM001_GOOD_ATTACH = """\
    from multiprocessing.shared_memory import SharedMemory

    def attach(name):
        shm = None
        try:
            shm = SharedMemory(name=name)
            return bytes(shm.buf)
        finally:
            if shm is not None:
                shm.close()
"""


def test_shm001_flags_create_outside_registry(tmp_path):
    result = lint(tmp_path, SHM001_BAD_CREATE)
    assert rule_ids(result) == ["SHM001"]
    assert "streaming" in result.findings[0].message


def test_shm001_allows_create_in_streaming_registry(tmp_path):
    result = lint(tmp_path, SHM001_BAD_CREATE, relpath="src/repro/pipeline/streaming.py")
    assert rule_ids(result) == []


def test_shm001_flags_unguarded_attach(tmp_path):
    result = lint(tmp_path, SHM001_BAD_ATTACH)
    assert rule_ids(result) == ["SHM001"]
    assert "try/finally" in result.findings[0].message


def test_shm001_allows_attach_under_try_finally(tmp_path):
    assert rule_ids(lint(tmp_path, SHM001_GOOD_ATTACH)) == []


def test_shm001_allows_worker_segment_cache(tmp_path):
    source = SHM001_BAD_ATTACH.replace("def attach(", "def _map_segment(")
    result = lint(tmp_path, source, relpath="src/repro/pipeline/parallel.py")
    assert rule_ids(result) == []


# --------------------------------------------------------------------- #
# DTYPE001: narrowing confined to the backend module
# --------------------------------------------------------------------- #

DTYPE001_BAD_ATTR = """\
    import numpy as np

    def narrow(x):
        return x.astype(np.float32)
"""

DTYPE001_BAD_STRING = """\
    import numpy as np

    def narrow(x):
        return x.astype("float32")
"""

DTYPE001_GOOD = '''\
    import numpy as np

    def widen(x):
        """The float32 lane re-widens here (prose mention is fine)."""
        return x.astype(np.float64)
'''


@pytest.mark.parametrize("source", [DTYPE001_BAD_ATTR, DTYPE001_BAD_STRING])
def test_dtype001_flags_narrowing_literals(tmp_path, source):
    result = lint(tmp_path, source)
    assert rule_ids(result) == ["DTYPE001"]
    assert "backends" in result.findings[0].message


def test_dtype001_quiet_on_float64_and_docstrings(tmp_path):
    assert rule_ids(lint(tmp_path, DTYPE001_GOOD)) == []


def test_dtype001_allows_the_backend_module(tmp_path):
    result = lint(tmp_path, DTYPE001_BAD_ATTR, relpath="src/repro/nn/backends.py")
    assert rule_ids(result) == []


# --------------------------------------------------------------------- #
# ALLOC001: no fresh allocations in the fused hot path
# --------------------------------------------------------------------- #

ALLOC001_BAD_CALL = """\
    import numpy as np

    def forward(x):
        out = np.empty(x.shape)
        return out
"""

ALLOC001_BAD_ALIAS = """\
    import numpy as np

    def forward(x, padded):
        alloc = np.zeros if padded else np.empty
        return alloc(x.shape)
"""

ALLOC001_GOOD_HELPER = """\
    import numpy as np

    def _cached_zeros(cache, key, shape):
        buf = cache.get(key)
        if buf is None or buf.shape != shape:
            buf = cache[key] = np.zeros(shape)
        return buf
"""


def test_alloc001_flags_fresh_allocation_in_hot_path(tmp_path):
    result = lint(tmp_path, ALLOC001_BAD_CALL, relpath="src/repro/nn/functional.py")
    assert rule_ids(result) == ["ALLOC001"]
    assert "scratch cache" in result.findings[0].message


def test_alloc001_flags_aliased_allocators(tmp_path):
    result = lint(tmp_path, ALLOC001_BAD_ALIAS, relpath="src/repro/nn/fusion.py")
    assert rule_ids(result) == ["ALLOC001", "ALLOC001"]
    assert all("aliased" in f.message for f in result.findings)


def test_alloc001_allows_the_scratch_cache_helper(tmp_path):
    result = lint(tmp_path, ALLOC001_GOOD_HELPER, relpath="src/repro/nn/fusion.py")
    assert rule_ids(result) == []


def test_alloc001_ignores_cold_modules(tmp_path):
    assert rule_ids(lint(tmp_path, ALLOC001_BAD_CALL)) == []


# --------------------------------------------------------------------- #
# EXC001: broad exception handlers must justify themselves
# --------------------------------------------------------------------- #

EXC001_BAD_BROAD = """\
    def run(step):
        try:
            step()
        except Exception:
            pass
"""

EXC001_BAD_BARE = """\
    def run(step):
        try:
            step()
        except:
            pass
"""

EXC001_BAD_TUPLE = """\
    def run(step):
        try:
            step()
        except (ValueError, Exception):
            pass
"""

EXC001_GOOD_RERAISE = """\
    def run(step, cleanup):
        try:
            step()
        except BaseException:
            cleanup()
            raise
"""

EXC001_GOOD_NARROW = """\
    def run(step):
        try:
            step()
        except ValueError:
            pass
"""


@pytest.mark.parametrize(
    "source", [EXC001_BAD_BROAD, EXC001_BAD_BARE, EXC001_BAD_TUPLE]
)
def test_exc001_flags_swallowing_broad_handlers(tmp_path, source):
    result = lint(tmp_path, source)
    assert rule_ids(result) == ["EXC001"]


@pytest.mark.parametrize("source", [EXC001_GOOD_RERAISE, EXC001_GOOD_NARROW])
def test_exc001_quiet_on_reraise_and_narrow(tmp_path, source):
    assert rule_ids(lint(tmp_path, source)) == []


# --------------------------------------------------------------------- #
# PRAGMA001: pragma hygiene
# --------------------------------------------------------------------- #

def test_pragma001_flags_malformed_pragma(tmp_path):
    result = lint(tmp_path, "x = 1  # repro: okay then\n")
    assert rule_ids(result) == ["PRAGMA001"]
    assert "malformed" in result.findings[0].message


def test_pragma001_flags_empty_reason(tmp_path):
    result = lint(tmp_path, "x = 1  # repro: ok(EXC001, )\n")
    assert rule_ids(result) == ["PRAGMA001"]
    assert "empty" in result.findings[0].message


def test_pragma001_flags_unknown_rule(tmp_path):
    result = lint(tmp_path, "x = 1  # repro: ok(NOPE001, because I said so)\n")
    assert rule_ids(result) == ["PRAGMA001"]
    assert "NOPE001" in result.findings[0].message


def test_pragma001_quiet_on_wellformed_pragma(tmp_path):
    source = EXC001_BAD_BROAD.replace(
        "except Exception:",
        "except Exception:  # repro: ok(EXC001, fixture: deliberate swallow)",
    )
    assert rule_ids(lint(tmp_path, source)) == []
