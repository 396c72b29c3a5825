"""docs/THEOREMS.md names only code and tests that exist.

The cross-reference maps each numbered paper item to an ``Impl`` cell
(paths under ``src/repro/``) and a ``Tests`` cell (node ids under
``tests/``).  A deletion that orphans a theorem row fails here instead
of leaving the document pointing at nothing.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOC = ROOT / "docs" / "THEOREMS.md"
SRC = ROOT / "src" / "repro"
TESTS = ROOT / "tests"

_TICKED = re.compile(r"`([^`]+)`")
_IMPL_PATH = re.compile(r"^[\w/]+\.py(?:::\w+)?$")
_TEST_ID = re.compile(r"^(test_\w+\.py)((?:::\w+)*)$")


def _cells(column):
    """``(row label, cell text)`` for *column* of every table in the doc."""
    out = []
    header = None
    for line in DOC.read_text(encoding="utf-8").splitlines():
        if not line.startswith("|"):
            header = None
            continue
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if header is None:
            header = cells
        elif set(line) <= set("|-: "):
            continue
        elif column in header:
            out.append((cells[0], cells[header.index(column)]))
    return out


def _ticked(column, pattern):
    """``{token: first row label}`` for backticked *pattern* tokens."""
    out = {}
    for label, cell in _cells(column):
        for token in _TICKED.findall(cell):
            if pattern.match(token):
                out.setdefault(token, label)
    return out


def _defines(text, name):
    """Is *name* a ``def``, a ``class`` or an assigned name in *text*?"""
    return re.search(
        rf"^\s*(?:(?:async\s+)?def|class)\s+{name}\b|^\s*{name}\s*=",
        text,
        re.MULTILINE,
    ) is not None


IMPL_PATHS = _ticked("Impl", _IMPL_PATH)
TEST_IDS = _ticked("Tests", _TEST_ID)


def test_doc_has_both_columns():
    assert IMPL_PATHS and TEST_IDS


@pytest.mark.parametrize("token", sorted(IMPL_PATHS))
def test_impl_path_exists(token):
    path = token.split("::")[0]
    assert (SRC / path).is_file(), f"{IMPL_PATHS[token]}: no src/repro/{path}"


@pytest.mark.parametrize("token", sorted(TEST_IDS))
def test_test_node_exists(token):
    label = TEST_IDS[token]
    filename, names = _TEST_ID.match(token).groups()
    path = TESTS / filename
    assert path.is_file(), f"{label}: no tests/{filename}"
    text = path.read_text(encoding="utf-8")
    for name in filter(None, names.split("::")):
        assert _defines(text, name), f"{label}: {name} not in {filename}"
