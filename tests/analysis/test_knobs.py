"""The central knob registry: parsers, registration, env reads, and the
registry <-> docs meta-contract."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro import knobs

REPO_ROOT = Path(__file__).resolve().parents[2]


# --------------------------------------------------------------------- #
# parsers — the single truthy parser that replaced four per-module copies
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("raw", ["1", "true", "YES", " On "])
def test_parse_bool_true_spellings(raw):
    assert knobs.parse_bool(raw) is True


@pytest.mark.parametrize("raw", ["0", "False", "no", " OFF "])
def test_parse_bool_false_spellings(raw):
    assert knobs.parse_bool(raw) is False


@pytest.mark.parametrize("raw", ["", "   "])
def test_parse_bool_empty_means_unset(raw):
    assert knobs.parse_bool(raw) is None


@pytest.mark.parametrize("raw", ["2", "enable", "y", "n", "tru"])
def test_parse_bool_invalid_strings_raise_naming_the_knob(raw):
    """The pinned invalid-string contract: KnobError (a ValueError) naming
    the knob and the accepted spellings — previously the four duplicated
    parsers disagreed on exactly this case."""
    with pytest.raises(knobs.KnobError, match=r"REPRO_DEGRADE.*boolean flag"):
        knobs.parse_bool(raw, name="REPRO_DEGRADE")
    with pytest.raises(ValueError):  # KnobError subclasses ValueError
        knobs.parse_bool(raw)


def test_parse_int_and_minimum():
    assert knobs.parse_int("4") == 4
    assert knobs.parse_int("  -2 ") == -2
    assert knobs.parse_int("") is None
    with pytest.raises(knobs.KnobError, match=r"REPRO_NUM_WORKERS.*not an integer"):
        knobs.parse_int("four", name="REPRO_NUM_WORKERS")
    with pytest.raises(knobs.KnobError, match=r"must be >= 0"):
        knobs.parse_int("-1", name="REPRO_NUM_WORKERS", minimum=0)


def test_parse_float_and_minimum():
    assert knobs.parse_float("1.5") == 1.5
    assert knobs.parse_float("") is None
    with pytest.raises(knobs.KnobError, match=r"REPRO_WORKER_TIMEOUT.*not a number"):
        knobs.parse_float("soon", name="REPRO_WORKER_TIMEOUT")
    with pytest.raises(knobs.KnobError, match=r"must be >= 0"):
        knobs.parse_float("-0.5", name="X", minimum=0.0)


# --------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------- #

EXPECTED_KNOBS = {
    "REPRO_NUM_WORKERS", "REPRO_RESULT_CACHE",
    "REPRO_BACKEND", "REPRO_BLAS_THREADS",
    "REPRO_WORKER_TIMEOUT", "REPRO_WORKER_RETRIES", "REPRO_DEGRADE",
    "REPRO_FAULT_PLAN", "REPRO_PROFILE", "REPRO_ARTIFACTS", "REPRO_COMPILE",
}


def test_registry_contains_every_engine_knob():
    assert set(knobs.knob_names()) == EXPECTED_KNOBS


def test_every_knob_is_documented_and_sectioned():
    sections = {key for key, _ in knobs.SECTIONS}
    for knob in knobs.all_knobs():
        assert knob.name.startswith("REPRO_")
        assert knob.doc.strip(), knob.name
        assert knob.section in sections, knob.name
    assert knobs.get_knob("REPRO_NUM_WORKERS").section == "execution"


def test_get_raw_rejects_unregistered_names():
    with pytest.raises(knobs.KnobError, match=r"REPRO_NOT_A_KNOB.*not a registered knob"):
        knobs.get_raw("REPRO_NOT_A_KNOB")


# --------------------------------------------------------------------- #
# env reads
# --------------------------------------------------------------------- #

def test_read_flag_roundtrip(monkeypatch):
    monkeypatch.delenv("REPRO_DEGRADE", raising=False)
    assert knobs.read_flag("REPRO_DEGRADE") is None
    monkeypatch.setenv("REPRO_DEGRADE", "off")
    assert knobs.read_flag("REPRO_DEGRADE") is False
    monkeypatch.setenv("REPRO_DEGRADE", "maybe")
    with pytest.raises(knobs.KnobError, match="REPRO_DEGRADE"):
        knobs.read_flag("REPRO_DEGRADE")


def test_read_int_and_float_roundtrip(monkeypatch):
    monkeypatch.setenv("REPRO_WORKER_RETRIES", " 3 ")
    assert knobs.read_int("REPRO_WORKER_RETRIES", minimum=0) == 3
    monkeypatch.setenv("REPRO_WORKER_TIMEOUT", "2.5")
    assert knobs.read_float("REPRO_WORKER_TIMEOUT") == 2.5
    monkeypatch.setenv("REPRO_WORKER_RETRIES", "-1")
    with pytest.raises(knobs.KnobError, match=r"REPRO_WORKER_RETRIES.*>= 0"):
        knobs.read_int("REPRO_WORKER_RETRIES", minimum=0)


def test_read_string_strips_and_treats_empty_as_unset(monkeypatch):
    monkeypatch.setenv("REPRO_FAULT_PLAN", "  kill@0:1  ")
    assert knobs.read_string("REPRO_FAULT_PLAN") == "kill@0:1"
    monkeypatch.setenv("REPRO_FAULT_PLAN", "   ")
    assert knobs.read_string("REPRO_FAULT_PLAN") is None


# --------------------------------------------------------------------- #
# registry <-> docs meta-contract (the human-readable side of ENV002)
# --------------------------------------------------------------------- #

def configuration_md() -> str:
    return (REPO_ROOT / "docs" / "configuration.md").read_text(encoding="utf-8")


def test_docs_and_registry_knob_sets_are_identical():
    documented = set(re.findall(r"^\| `(REPRO_[A-Z0-9_]+)`", configuration_md(), re.M))
    assert documented == set(knobs.knob_names())


def test_docs_tables_are_generated_and_current():
    text = configuration_md()
    regenerated, problems = knobs.sync_markdown(text)
    assert problems == []
    assert regenerated == text, "run python scripts/gen_config_docs.py"


def test_markdown_table_lists_each_section_knob():
    table = knobs.markdown_table("supervision")
    for name in ("REPRO_WORKER_TIMEOUT", "REPRO_WORKER_RETRIES", "REPRO_DEGRADE"):
        assert f"| `{name}` |" in table
    assert "REPRO_BACKEND" not in table
