from __future__ import annotations

import pytest
from hypothesis import given
import hypothesis.strategies as st

from pickforge.versioning import (
    EQ,
    GT,
    LT,
    CalendarVersion,
    Constraint,
    ParseError,
    Version,
    compare_versions,
    parse_calendar_version,
    parse_constraint,
    parse_version,
    satisfies,
)

from strategies import calendar_versions, constraints, version_texts, versions


class TestParseVersion:
    def test_plain(self):
        v = parse_version("8.15")
        assert v.segments == (8, 15)
        assert v.suffix is None
        assert v.major == 8

    def test_suffix(self):
        v = parse_version("1.0.0-rc1")
        assert v.segments == (1, 0, 0)
        assert v.suffix == "rc1"

    def test_empty_segment_offset(self):
        with pytest.raises(ParseError) as exc:
            parse_version("1..2")
        assert exc.value.offset == 2

    def test_empty_suffix(self):
        with pytest.raises(ParseError) as exc:
            parse_version("1.0-")
        assert exc.value.offset == 4

    def test_leading_zero_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_version("1.01")
        assert exc.value.offset == 2

    def test_non_digit(self):
        with pytest.raises(ParseError):
            parse_version("1.x")

    def test_unicode_digits_rejected(self):
        # int() would accept these, but rendering could not round-trip
        with pytest.raises(ParseError):
            parse_version("٣.0")
        with pytest.raises(ParseError):
            parse_calendar_version("٢٠٢٢.01.0")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_version("1.0 ")

    def test_too_many_digits_is_a_parse_error(self):
        # int() refuses digit runs over sys.get_int_max_str_digits() (4,300
        # by default) with a bare ValueError that names no input
        digits = "1" * 5000
        for parse, text, offset in (
            (parse_version, f"1.{digits}", 2),
            (parse_constraint, f">=1.{digits}", 4),
            (parse_calendar_version, f"2022.01.{digits}", 8),
        ):
            with pytest.raises(ParseError, match="too many digits") as exc:
                parse(text)
            assert exc.value.offset == offset


class TestCompareVersions:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ("8.12", "8.15", LT),
            ("1.0", "1.0.0", EQ),
            ("2.0.0-rc1", "2.0.0", LT),
            ("2.0.0", "2.0.0-rc1", GT),
            ("1.0-alpha", "1.0-beta", LT),
            ("1.2", "1.10", LT),
            ("3", "2.9.9", GT),
        ],
    )
    def test_cases(self, a, b, expected):
        assert compare_versions(parse_version(a), parse_version(b)) == expected

    def test_equal_versions_hash_alike(self):
        assert hash(parse_version("1.0")) == hash(parse_version("1.0.0"))
        assert parse_version("1.0") == parse_version("1.0.0")

    @given(versions, versions)
    def test_antisymmetric(self, a, b):
        assert compare_versions(a, b) == -compare_versions(b, a)

    @given(versions, versions, versions)
    def test_transitive(self, a, b, c):
        ordered = sorted([a, b, c])
        assert ordered[0] <= ordered[1] <= ordered[2]
        assert ordered[0] <= ordered[2]

    @given(versions, versions)
    def test_total(self, a, b):
        assert compare_versions(a, b) in (LT, EQ, GT)
        assert (a == b) == (compare_versions(a, b) == EQ)


def padded_cmp(a: Version, b: Version) -> int:
    """The documented order, written out: zero-pad the shorter segment list;
    on equal numbers a plain release outranks a suffix, and suffixes compare
    as strings."""
    width = max(len(a.segments), len(b.segments))
    x = a.segments + (0,) * (width - len(a.segments))
    y = b.segments + (0,) * (width - len(b.segments))
    if x != y:
        return LT if x < y else GT
    if a.suffix == b.suffix:
        return EQ
    if a.suffix is None or b.suffix is None:
        return GT if a.suffix is None else LT
    return LT if a.suffix < b.suffix else GT


# few distinct segments and suffixes, so padded ties and suffix ties are common
close_versions = st.builds(
    Version,
    segments=st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=4).map(tuple),
    suffix=st.sampled_from([None, "a", "b", "rc1"]),
)


class TestCompareAgainstPaddedReference:
    @given(close_versions, close_versions)
    def test_close_versions(self, a, b):
        expected = padded_cmp(a, b)
        assert compare_versions(a, b) == expected
        assert (a < b, a <= b, a == b, a != b, a >= b, a > b) == (
            expected == LT, expected != GT, expected == EQ,
            expected != EQ, expected != LT, expected == GT,
        )
        if expected == EQ:
            assert hash(a) == hash(b)

    @given(versions, versions)
    def test_any_versions(self, a, b):
        assert compare_versions(a, b) == padded_cmp(a, b)


class TestParseConstraint:
    def test_clause(self):
        c = parse_constraint(">=8.13, <8.15")
        assert len(c.clauses) == 1
        assert len(c.clauses[0]) == 2

    def test_universal(self):
        assert parse_constraint("*") == Constraint(((),))
        assert str(parse_constraint("*")) == "*"

    def test_unknown_operator(self):
        with pytest.raises(ParseError) as exc:
            parse_constraint("==1.0")
        assert "unknown operator" in str(exc.value)
        assert exc.value.offset == 0

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse_constraint("")
        with pytest.raises(ParseError):
            parse_constraint("   ")

    def test_disjunction(self):
        c = parse_constraint("<1.0 | >=2.0")
        assert len(c.clauses) == 2

    def test_whitespace_insignificant(self):
        assert parse_constraint(">=8.13,<8.15") == parse_constraint("  >= 8.13 , < 8.15 ")

    def test_trailing_junk(self):
        with pytest.raises(ParseError):
            parse_constraint(">=1.0 %")
        with pytest.raises(ParseError, match="unexpected trailing text") as exc:
            parse_constraint("* x")
        assert exc.value.offset == 2


class TestSatisfies:
    def test_in_range(self):
        c = parse_constraint(">=8.13, <8.15")
        assert satisfies(parse_version("8.14"), c)

    def test_strict_bound(self):
        c = parse_constraint(">=8.13, <8.15")
        assert not satisfies(parse_version("8.15"), c)

    @given(versions)
    def test_exact_identity(self, v):
        assert satisfies(v, parse_constraint(f"={v}"))

    @given(versions)
    def test_universal_accepts_all(self, v):
        assert satisfies(v, parse_constraint("*"))

    @given(versions, versions, versions)
    def test_ge_upward_closed(self, bound, low, high):
        lo, hi = sorted([low, high])
        c = Constraint((((">=", bound),),))
        if satisfies(lo, c):
            assert satisfies(hi, c)

    @given(versions, versions, versions)
    def test_le_downward_closed(self, bound, low, high):
        lo, hi = sorted([low, high])
        c = Constraint(((("<=", bound),),))
        if satisfies(hi, c):
            assert satisfies(lo, c)

    @given(versions, versions)
    def test_disjunction_is_or(self, v, bound):
        c = Constraint(((("<", bound),), ((">=", bound),)))
        assert satisfies(v, c)


class TestCalendarVersion:
    def test_parse(self):
        c = parse_calendar_version("2022.01.0")
        assert (c.year, c.month, c.patch) == (2022, 1, 0)
        assert str(c) == "2022.01.0"

    def test_month_range(self):
        with pytest.raises(ParseError):
            parse_calendar_version("2022.13.0")
        with pytest.raises(ParseError):
            parse_calendar_version("2022.00.0")

    def test_field_count(self):
        with pytest.raises(ParseError):
            parse_calendar_version("2022.01")
        with pytest.raises(ParseError):
            parse_calendar_version("2022.01.0.0")

    def test_ordering(self):
        assert parse_calendar_version("2021.09.1") < parse_calendar_version("2022.01.0")
        assert parse_calendar_version("2022.01.0") < parse_calendar_version("2022.01.1")

    @pytest.mark.parametrize(
        "text, reason, offset",
        [
            ("2022.1.0", "expected a 2-digit month", 5),
            ("2022.01.01", "expected a patch number without leading zeros", 8),
        ],
    )
    def test_malformed_field(self, text, reason, offset):
        with pytest.raises(ParseError, match=reason) as exc:
            parse_calendar_version(text)
        assert exc.value.offset == offset

    def test_year_floor(self):
        with pytest.raises(ParseError):
            parse_calendar_version("1999.01.0")

    def test_construction_guards(self):
        with pytest.raises(ValueError):
            CalendarVersion(2022, 13, 0)
        with pytest.raises(ValueError):
            CalendarVersion(2022, 1, -1)


class TestRoundTrips:
    @given(version_texts())
    def test_version_text_round_trip(self, text):
        assert str(parse_version(text)) == text

    @given(versions)
    def test_version_value_round_trip(self, v):
        assert parse_version(str(v)) == v
        assert parse_version(str(v)).segments == v.segments
        assert parse_version(str(v)).suffix == v.suffix

    @given(constraints)
    def test_constraint_round_trip(self, c):
        assert parse_constraint(str(c)) == c

    @given(constraints)
    def test_constraint_render_idempotent(self, c):
        assert str(parse_constraint(str(c))) == str(c)

    @given(calendar_versions)
    def test_calendar_round_trip(self, c):
        assert parse_calendar_version(str(c)) == c


class TestConstructionGuards:
    def test_version_needs_segments(self):
        with pytest.raises(ValueError):
            Version(segments=())

    def test_version_rejects_negative_segment(self):
        with pytest.raises(ValueError):
            Version(segments=(1, -1))

    def test_version_rejects_empty_suffix(self):
        with pytest.raises(ValueError):
            Version(segments=(1,), suffix="")

    def test_version_rejects_non_ascii_suffix(self):
        with pytest.raises(ValueError):
            Version(segments=(1,), suffix="rc~1")
