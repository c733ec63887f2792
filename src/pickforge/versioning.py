"""Versions, version constraints, and calendar release versions.

Grammars
--------
version    :=  number ("." number)* ("-" tag)?
               number = "0" or a digit run without a leading zero
               tag    = one or more ASCII letters or digits
constraint :=  "*"  |  clause ("|" clause)*
               clause = atom ("," atom)*
               atom   = op version,  op in  =  !=  >=  >  <=  <
               whitespace between tokens is insignificant
calendar   :=  "YYYY.MM.P"  (4-digit year, zero-padded 2-digit month, patch)

Ordering: versions compare segment-wise with the shorter side zero-padded;
on equal numeric parts a version without a suffix is greater than one with
a suffix, and suffixes compare lexicographically.  Leading zeros are
rejected so that parse/render round-trips byte-exactly.

Constraints and calendar versions are immutable tuples.  A Version's
fields are never reassigned after construction, since its comparison key
and its rendering are computed once from them.  All functions are pure.
"""

from __future__ import annotations

from collections import namedtuple
from operator import eq, ge, gt, le, lt, ne

from .errors import PickforgeError

_OPS = ("!=", ">=", "<=", "=", ">", "<")
_OP_CHARS = set("=!<>")
_TAG_CHARS = set("0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")


class ParseError(PickforgeError):
    """Malformed version or constraint text; carries the byte offset."""

    def __init__(self, text: str, offset: int, reason: str):
        self.text = text
        self.offset = offset
        self.reason = reason
        super().__init__(f"{reason} at offset {offset} in {text!r}")


class Version:
    """A dotted numeric version with an optional prerelease suffix.

    ``_key`` is computed once: the segments without trailing zeros (at least
    one kept), whether there is no suffix, and the suffix or "".  Trimmed
    tuples order exactly as zero-padded ones do, and True sorts above False,
    so comparing keys is the version order and a plain release outranks any
    suffixed prerelease.  ``_text`` is the rendering and ``_hash`` the hash,
    also computed once; for a parsed version ``_text`` is the parsed text.
    """

    __slots__ = ("segments", "suffix", "_key", "_text", "_hash")

    def __init__(self, segments: tuple[int, ...], suffix: str | None = None):
        if not segments or any(s < 0 for s in segments):
            raise ValueError("segments must be non-empty and non-negative")
        if suffix is not None and (not suffix or not set(suffix) <= _TAG_CHARS):
            raise ValueError(f"invalid suffix {suffix!r}")
        self.segments = segments
        self.suffix = suffix
        end = len(segments)
        while end > 1 and segments[end - 1] == 0:
            end -= 1
        self._key = (segments[:end], suffix is None, suffix or "")
        # "1.0" == "1.0.0", so the hash ignores trailing zero segments
        self._hash = hash((self._key[0], suffix))
        text = ".".join(map(str, segments))
        self._text = text if suffix is None else f"{text}-{suffix}"

    def __str__(self) -> str:
        return self._text

    def __repr__(self) -> str:
        return f"Version(segments={self.segments!r}, suffix={self.suffix!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Version):
            return NotImplemented
        return self._key == other._key

    def __lt__(self, other: Version) -> bool:
        return self._key < other._key

    def __le__(self, other: Version) -> bool:
        return self._key <= other._key

    def __gt__(self, other: Version) -> bool:
        return self._key > other._key

    def __ge__(self, other: Version) -> bool:
        return self._key >= other._key

    def __hash__(self) -> int:
        return self._hash


def parse_version(text: str) -> Version:
    version, end = _scan_version(text, 0)
    if end != len(text):
        raise ParseError(text, end, "unexpected trailing text")
    return version


def _scan_number(text: str, pos: int) -> tuple[int, int]:
    start = pos
    # ASCII digits only: str.isdigit admits Unicode digits, which int()
    # converts and rendering would not round-trip byte-exactly
    while pos < len(text) and "0" <= text[pos] <= "9":
        pos += 1
    if pos == start:
        raise ParseError(text, start, "expected a digit")
    if text[start] == "0" and pos - start > 1:
        raise ParseError(text, start, "leading zero in version segment")
    try:
        return int(text[start:pos]), pos
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        raise ParseError(text, start, "too many digits") from None


def _scan_version(text: str, pos: int) -> tuple[Version, int]:
    segments = []
    number, pos = _scan_number(text, pos)
    segments.append(number)
    while pos < len(text) and text[pos] == ".":
        number, pos = _scan_number(text, pos + 1)
        segments.append(number)
    suffix = None
    if pos < len(text) and text[pos] == "-":
        start = pos + 1
        pos = start
        while pos < len(text) and text[pos] in _TAG_CHARS:
            pos += 1
        if pos == start:
            raise ParseError(text, start, "empty suffix tag")
        suffix = text[start:pos]
    return Version(tuple(segments), suffix), pos


class Constraint(namedtuple("Constraint", "clauses")):
    """Disjunction of clauses; each clause is a conjunction of (op, version) atoms.

    ``clauses: tuple[tuple[tuple[str, Version], ...], ...]``.  The universal
    constraint is the single empty clause and renders as "*".
    """

    __slots__ = ()

    def __str__(self) -> str:
        if self.clauses == ((),):
            return "*"
        return " | ".join(
            ", ".join(f"{op}{version}" for op, version in clause)
            for clause in self.clauses
        )


UNIVERSAL = Constraint(((),))


def parse_constraint(text: str) -> Constraint:
    pos = _skip_ws(text, 0)
    if pos == len(text):
        raise ParseError(text, pos, "empty constraint")
    if text[pos] == "*":
        pos = _skip_ws(text, pos + 1)
        if pos != len(text):
            raise ParseError(text, pos, "unexpected trailing text")
        return UNIVERSAL
    clauses = []
    while True:
        clause, pos = _scan_clause(text, pos)
        clauses.append(clause)
        pos = _skip_ws(text, pos)
        if pos == len(text):
            return Constraint(tuple(clauses))
        if text[pos] != "|":
            raise ParseError(text, pos, "expected '|' or end of constraint")
        pos = _skip_ws(text, pos + 1)


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _scan_clause(text: str, pos: int) -> tuple[tuple[tuple[str, Version], ...], int]:
    atoms = []
    while True:
        atom, pos = _scan_atom(text, pos)
        atoms.append(atom)
        next_pos = _skip_ws(text, pos)
        if next_pos < len(text) and text[next_pos] == ",":
            pos = _skip_ws(text, next_pos + 1)
            continue
        return tuple(atoms), pos


def _scan_atom(text: str, pos: int) -> tuple[tuple[str, Version], int]:
    start = pos
    while pos < len(text) and text[pos] in _OP_CHARS:
        pos += 1
    op = text[start:pos]
    if op not in _OPS:
        raise ParseError(text, start, f"unknown operator {op or text[start:start + 1]!r}")
    pos = _skip_ws(text, pos)
    version, pos = _scan_version(text, pos)
    return (op, version), pos


_OP_TESTS = {"=": eq, "!=": ne, ">=": ge, ">": gt, "<=": le, "<": lt}


def satisfies(version: Version, constraint: Constraint) -> bool:
    """True iff some clause of the constraint holds for the version."""
    return any(
        all(_OP_TESTS[op](version, bound) for op, bound in clause)
        for clause in constraint.clauses
    )


class CalendarVersion(namedtuple("CalendarVersion", "year month patch")):
    """A calendar-based release identifier, rendered as YYYY.MM.P.

    Ordered as the tuple (year, month, patch).
    """

    __slots__ = ()

    def __new__(cls, year: int, month: int, patch: int):
        if year < 2000:
            raise ValueError(f"year {year} before 2000")
        if not 1 <= month <= 12:
            raise ValueError(f"month {month} outside 1-12")
        if patch < 0:
            raise ValueError("negative patch")
        return super().__new__(cls, year, month, patch)

    def __str__(self) -> str:
        return f"{self.year:04d}.{self.month:02d}.{self.patch}"


def _ascii_digits(text: str) -> bool:
    return bool(text) and all("0" <= ch <= "9" for ch in text)


def parse_calendar_version(text: str) -> CalendarVersion:
    parts = text.split(".")
    if len(parts) != 3:
        raise ParseError(text, 0, f"expected 3 dotted fields, got {len(parts)}")
    year_text, month_text, patch_text = parts
    if len(year_text) != 4 or not _ascii_digits(year_text):
        raise ParseError(text, 0, "expected a 4-digit year")
    if len(month_text) != 2 or not _ascii_digits(month_text):
        raise ParseError(text, 5, "expected a 2-digit month")
    if not _ascii_digits(patch_text) or (patch_text != "0" and patch_text[0] == "0"):
        raise ParseError(text, 8, "expected a patch number without leading zeros")
    year, month, patch = int(year_text), int(month_text), _scan_number(text, 8)[0]
    if year < 2000:
        raise ParseError(text, 0, f"year {year} before 2000")
    if not 1 <= month <= 12:
        raise ParseError(text, 5, f"month {month} outside 1-12")
    return CalendarVersion(year, month, patch)
