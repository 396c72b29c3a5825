"""The documents name only code, tests and CLI flags that exist.

docs/THEOREMS.md maps each numbered paper item to an ``Impl`` cell
(paths under ``src/repro/``) and a ``Tests`` cell (node ids under
``tests/``).  The usage documents cite ``repro``/``repro-rdf``
command lines, in code blocks and inline code; every subcommand and
``--flag`` they cite must be one that :func:`repro.cli.build_parser`
accepts.  A deletion that orphans a theorem row or a documented flag
fails here instead of leaving the document pointing at nothing.
"""

import argparse
import re
from pathlib import Path

import pytest

from repro.cli import build_parser

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


# ----------------------------------------------------------------------
# CLI citations in the usage documents
# ----------------------------------------------------------------------

USAGE_DOCS = ("README.md", "USAGE.md", "docs/USAGE.md")

_FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.MULTILINE | re.DOTALL)
_INLINE = re.compile(r"`([^`]+)`")
_PROGRAM = re.compile(r"^(?:\$\s+)?repro(?:-rdf)?\s")


def _cli_citations():
    """``{"DOC:LINE: command": tokens}`` for each cited command line.

    Code-block lines count from each shell segment (split on ``|``,
    ``;`` and ``&&``) that starts with the program name; inline code
    counts when the whole span does.  Tokens stop at a comment or a
    redirection.
    """
    out = {}
    for doc in USAGE_DOCS:
        text = (ROOT / doc).read_text(encoding="utf-8")
        candidates = []
        for block in _FENCE.finditer(text):
            first = text.count("\n", 0, block.start(1)) + 1
            for offset, line in enumerate(block.group(1).splitlines()):
                for segment in re.split(r"\||;|&&", line):
                    candidates.append((first + offset, segment.strip()))
        prose = _FENCE.sub(lambda m: "\n" * m.group(0).count("\n"), text)
        for span in _INLINE.finditer(prose):
            line = prose.count("\n", 0, span.start()) + 1
            candidates.append((line, " ".join(span.group(1).split())))
        for line, command in candidates:
            if not _PROGRAM.match(command):
                continue
            tokens = []
            for token in command.lstrip("$ ").split()[1:]:
                if token.startswith("#") or "<" in token or ">" in token:
                    break
                tokens.append(token.strip("[]"))
            out[f"{doc}:{line}: {' '.join(tokens)}"] = tokens
    return out


CLI_CITATIONS = _cli_citations()


def _subparsers(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def test_usage_docs_cite_the_cli():
    assert CLI_CITATIONS


@pytest.mark.parametrize("citation", sorted(CLI_CITATIONS))
def test_cited_cli_flags_parse(citation):
    parser = build_parser()
    tokens = list(CLI_CITATIONS[citation])
    # Global options come first; the first positional is the subcommand.
    while tokens and tokens[0].startswith("-"):
        option = tokens.pop(0).split("=")[0]
        action = parser._option_string_actions.get(option)
        assert action is not None, f"{citation}: no global option {option}"
        if action.nargs != 0 and tokens:
            tokens.pop(0)
    if not tokens:
        return
    name = tokens.pop(0)
    if not re.fullmatch(r"[a-z]+", name):
        return  # a placeholder such as CMD
    sub = _subparsers(parser).get(name)
    assert sub is not None, f"{citation}: no subcommand {name!r}"
    for token in tokens:
        if token.startswith("--"):
            option = token.split("=")[0]
            assert option in sub._option_string_actions, (
                f"{citation}: {name} has no option {option}"
            )
