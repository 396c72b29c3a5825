"""A minimal N-Triples-style reader/writer for the abstract fragment.

The concrete syntax is a simplification of W3C N-Triples adapted to the
paper's abstract model (short URIs without angle brackets are allowed):

* ``<http://...>`` or a bare name — a URI;
* ``_:label`` — a blank node;
* ``"text"`` — a plain literal (object position only);
* one triple per line, terminated by an optional ``.``;
* ``#`` starts a comment.

Round-tripping is exact: ``parse(serialize(G)) == G``.

Two error modes: the default ``strict=True`` raises :class:`ParseError`
on the first malformed line; ``strict=False`` skips malformed lines and
returns a :class:`ParseReport` pairing the graph of well-formed triples
with a per-line error list — the right mode for scraping real-world
dumps where one bad byte must not discard a million good lines.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple, Union

from ..core.graph import RDFGraph
from ..core.terms import BNode, Literal, Term, Triple, URI

__all__ = [
    "ParseError",
    "ParseIssue",
    "ParseReport",
    "iter_ntriples",
    "parse_ntriples",
    "serialize_ntriples",
]


class ParseError(ValueError):
    """A syntax error in the N-Triples-style input, with line context."""

    def __init__(self, message: str, line_number: int, line: str):
        super().__init__(f"line {line_number}: {message}: {line.strip()!r}")
        self.reason = message
        self.line_number = line_number
        self.line = line


@dataclass(frozen=True)
class ParseIssue:
    """One malformed line skipped by a tolerant parse."""

    line_number: int
    reason: str
    line: str


@dataclass(frozen=True)
class ParseReport:
    """The result of a tolerant (``strict=False``) parse."""

    graph: RDFGraph
    errors: Tuple[ParseIssue, ...]

    @property
    def ok(self) -> bool:
        """True when no line was skipped."""
        return not self.errors

    def __repr__(self) -> str:
        return (
            f"ParseReport({len(self.graph)} triples, "
            f"{len(self.errors)} skipped lines)"
        )


_TOKEN = re.compile(
    r"""
    \s*(
        <[^<>\s]*>            # angle-bracketed URI
      | _:[A-Za-z0-9_.!\-]+   # blank node
      | "(?:[^"\\]|\\.)*"     # literal with escapes
      | [^\s"<>]+             # bare name (short URI) or the final dot
    )
    """,
    re.VERBOSE,
)


_UNESCAPE_RE = re.compile(r"\\(u[0-9A-Fa-f]{4}|.)")
_NAMED_ESCAPES = {"n": "\n", "r": "\r", "t": "\t", '"': '"', "\\": "\\"}
#: Characters that must be \u-escaped: everything str.splitlines treats
#: as a line boundary (which would break the line-oriented syntax).
_LINE_BREAKERS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

#: A line tail that carries no further tokens: optional whitespace, then
#: end-of-line or a comment.  ``_REST.match(line, pos)`` is the
#: tokenizer's stop test, evaluated in C instead of slicing the line
#: and stripping it per token.
_REST = re.compile(r"\s*(?:\#.*\s*)?$")


def _substitute_escape(match: "re.Match") -> str:
    token = match.group(1)
    if token.startswith("u"):
        return chr(int(token[1:], 16))
    return _NAMED_ESCAPES.get(token, token)


def _unescape(text: str) -> str:
    return _UNESCAPE_RE.sub(_substitute_escape, text)


def _escape(text: str) -> str:
    out = (
        text.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
        .replace("\r", "\\r")
        .replace("\t", "\\t")
    )
    for ch in _LINE_BREAKERS:
        out = out.replace(ch, f"\\u{ord(ch):04X}")
    return out


def _parse_term(token: str) -> Term:
    if token.startswith("<") and token.endswith(">"):
        return URI(token[1:-1])
    if token.startswith("_:"):
        return BNode(token[2:])
    if token.startswith('"') and token.endswith('"'):
        return Literal(_unescape(token[1:-1]))
    return URI(token)


def _tokenize(line: str, line_number: int) -> List[str]:
    """All tokens of *line* as a list (error paths and tests only).

    The hot path (:func:`_parse_line`) consumes tokens as they are
    matched instead of materializing this list.
    """
    tokens = []
    position = 0
    while not _REST.match(line, position):
        match = _TOKEN.match(line, position)
        if match is None:
            raise ParseError("cannot tokenize", line_number, line)
        tokens.append(match.group(1))
        position = match.end()
    return tokens


def _parse_line(line: str, line_number: int) -> Triple:
    """One well-formed triple from *line*, or :class:`ParseError`.

    Tokens are matched and consumed in one pass — no intermediate token
    list, no per-token line slicing.  The first three tokens become
    terms; a fourth is only legal when it is the terminating ``.``.
    """
    token_match = _TOKEN.match
    stop = _REST.match
    s = p = o = token = None
    count = 0
    position = 0
    while not stop(line, position):
        match = token_match(line, position)
        if match is None:
            raise ParseError("cannot tokenize", line_number, line)
        token = match.group(1)
        position = match.end()
        if count == 0:
            s = token
        elif count == 1:
            p = token
        elif count == 2:
            o = token
        count += 1
    if count and token == ".":
        count -= 1  # drop the terminating dot (never a term)
    if count != 3:
        raise ParseError(
            f"expected 3 terms, found {count}", line_number, line
        )
    try:
        t = Triple(_parse_term(s), _parse_term(p), _parse_term(o))
    except ParseError:
        raise
    except ValueError as err:  # e.g. the empty URI "<>"
        raise ParseError(str(err), line_number, line) from err
    if not t.is_valid_rdf():
        raise ParseError("ill-formed triple", line_number, line)
    return t


def iter_ntriples(
    source: Union[str, Iterable[str]],
    strict: bool = True,
    issues: Optional[List[ParseIssue]] = None,
    start: int = 1,
) -> Iterator[Triple]:
    """Stream triples from N-Triples-style text, one line at a time.

    *source* is either a complete text (split on line boundaries) or
    any iterable of lines — a file object, an ``islice`` of one, a list
    of chunk lines.  Nothing is buffered beyond the current line, so a
    million-triple file parses in constant memory; this generator is
    the substrate of both :func:`parse_ntriples` and the streaming bulk
    loader (:mod:`repro.ingest`).

    With ``strict=True`` the first malformed line raises
    :class:`ParseError`.  With ``strict=False`` malformed lines are
    skipped; pass an *issues* list to collect one :class:`ParseIssue`
    per skipped line.  *start* offsets the reported line numbers (the
    parallel loader parses chunks whose first line is deep in the
    file).
    """
    lines = source.splitlines() if isinstance(source, str) else source
    skip = _REST.match
    for line_number, line in enumerate(lines, start=start):
        if skip(line):
            continue
        try:
            yield _parse_line(line, line_number)
        except ParseError as err:
            if strict:
                raise
            if issues is not None:
                issues.append(ParseIssue(line_number, err.reason, line))


def parse_ntriples(
    text: str, strict: bool = True
) -> Union[RDFGraph, ParseReport]:
    """Parse a graph from the N-Triples-style concrete syntax.

    With ``strict=True`` (the default) the first malformed line raises
    :class:`ParseError` and returns an :class:`RDFGraph` otherwise.
    With ``strict=False`` malformed lines are *skipped* and the return
    value is a :class:`ParseReport`: ``report.graph`` holds every
    well-formed triple, ``report.errors`` lists one
    :class:`ParseIssue` (line number, reason, raw line) per skipped
    line, in input order.

    Both modes delegate to the streaming :func:`iter_ntriples`, so the
    one-shot path shares the no-intermediate-token-list fast parse.
    """
    if strict:
        return RDFGraph(iter_ntriples(text))
    issues: List[ParseIssue] = []
    triples = list(iter_ntriples(text, strict=False, issues=issues))
    return ParseReport(graph=RDFGraph(triples), errors=tuple(issues))


def _serialize_term(term: Term) -> str:
    if isinstance(term, URI):
        # Bare names need angle brackets only when they could be
        # mis-tokenized (contain quotes/brackets — excluded by URI rules
        # here — or start like a blank/literal or equal the dot).
        if term.value == "." or term.value.startswith("_:"):
            return f"<{term.value}>"
        if any(ch.isspace() for ch in term.value):
            return f"<{term.value}>"
        if "#" in term.value:
            # A bare name with a fragment marker would collide with the
            # comment syntax of the query surface grammar; the angle
            # form is unambiguous in both grammars.
            return f"<{term.value}>"
        return term.value
    if isinstance(term, BNode):
        return f"_:{term.value}"
    if isinstance(term, Literal):
        return f'"{_escape(term.value)}"'
    raise TypeError(f"cannot serialize {term!r}")


def serialize_ntriples(graph: RDFGraph) -> str:
    """Serialize a graph, one triple per line, deterministically ordered."""
    lines = [
        f"{_serialize_term(t.s)} {_serialize_term(t.p)} {_serialize_term(t.o)} ."
        for t in graph.sorted_triples()
    ]
    return "\n".join(lines) + ("\n" if lines else "")
