import doctest
import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ahtower.rational as rational
from ahtower.rational import (SHOWN_CHARACTERS, ExtendedRational, IntLeaf,
                              _joined_text, document_text, fraction_from_json,
                              fraction_to_json, ints_to_json, parse_fraction,
                              shown_text, text_int)
from ahtower.report import first_difference


def test_doctests():
    failures, _ = doctest.testmod(rational)
    assert failures == 0


def test_parse_forms():
    assert parse_fraction("3/4") == Fraction(3, 4)
    assert parse_fraction("7") == Fraction(7)
    assert parse_fraction(" 6/8 ") == Fraction(3, 4)


@pytest.mark.parametrize("bad", ["", "x", "1/0", "-1/2", "1.5/2", "1/2/3"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_fraction(bad)


@pytest.mark.parametrize("text, value", [
    ("1.5", Fraction(3, 2)), ("1e3", Fraction(1000)),
    (" 3/4 ", Fraction(3, 4)), ("1_000", None), ("1_0/3", None),
    ("3/ 4", None)])
def test_one_grammar_on_every_interpreter(text, value):
    # Fraction reads underscores from 3.11 on and spaces around "/" from
    # 3.12 on; parse_fraction reads neither, on any interpreter
    if value is None:
        with pytest.raises(ValueError, match="^not a rational: "):
            parse_fraction(text)
    else:
        assert parse_fraction(text) == value


def test_extended_parse_and_str():
    assert str(ExtendedRational.parse("6/8")) == "3/4"
    assert str(ExtendedRational.parse("inf")) == "inf"
    assert ExtendedRational.parse("inf").is_infinite
    assert not ExtendedRational.parse("2").is_infinite
    assert ExtendedRational.parse("5/2").finite_value == Fraction(5, 2)
    with pytest.raises(ValueError):
        ExtendedRational.parse("inf").finite_value
    with pytest.raises(ValueError):
        ExtendedRational.parse("-1/2")


def test_total_order():
    inf = ExtendedRational.infinite()
    half = ExtendedRational(Fraction(1, 2))
    two = ExtendedRational(Fraction(2))
    assert half < two < inf
    assert inf <= inf and not inf < inf
    assert inf > two and two >= half and half >= half


def test_json_round_trip():
    for text in ["0", "1/2", "9/10", "1000000000000000000000/7", "inf"]:
        x = ExtendedRational.parse(text)
        assert ExtendedRational.from_json(json.loads(json.dumps(x.to_json()))) == x


def test_fraction_json_is_decimal_strings():
    obj = fraction_to_json(Fraction(48, 95))
    assert obj == {"num": "48", "den": "95"}
    assert fraction_from_json(obj) == Fraction(48, 95)


@pytest.mark.parametrize("bad", [
    {"num": "2", "den": "4"},       # not lowest terms
    {"num": "1", "den": "0"},
    {"num": "-1", "den": "2"},
    {"num": "1"},
    ["1", "2"],
])
def test_fraction_json_rejects(bad):
    with pytest.raises(ValueError):
        fraction_from_json(bad)


# every integer a document writes stays below 2^14000, inside the int->str
# digit limit
@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 14000 - 1))
def test_text_int_reads_what_str_writes(value):
    assert text_int(str(value)) == value
    assert IntLeaf(value).matches(str(value))
    assert first_difference(str(value), IntLeaf(value)) is None


# int() reads the first nine (as 5, 50 or 1), and none of these is a
# spelling a document may hold
@pytest.mark.parametrize("text", [
    "05", "+5", " 5", "5 ", "5_0", "\u0665", 5, 5.0, True,
    "-5", "", "5.0", "0x5", None, ["5"]], ids=repr)
def test_text_int_refuses_what_int_reads_but_the_format_forbids(text):
    with pytest.raises(ValueError, match="^not a decimal integer: "):
        text_int(text)
    assert not IntLeaf(5).matches(text)


def test_int_leaf_detail_reads_as_the_written_text():
    assert first_difference(["05"], [IntLeaf(5)]) == "$[0]: '05' vs '5'"
    assert first_difference({"n": 5}, {"n": IntLeaf(5)}) == \
        "$.n: int vs str"
    assert first_difference(fraction_to_json(Fraction(3, 4)),
                            fraction_to_json(Fraction(3, 4), IntLeaf)) is None
    assert ints_to_json([7, 0], IntLeaf)[1].value == 0


def test_a_long_string_detail_shows_its_head_and_length():
    head = "'" + "7" * SHOWN_CHARACTERS + "'"
    assert first_difference(["5"], ["7" * 10 ** 6]) == \
        f"$[0]: '5' vs {head}... (1000000 characters)"
    assert first_difference({"n": "7" * 10 ** 6}, {"n": IntLeaf(5)}) == \
        f"$.n: {head}... (1000000 characters) vs '5'"
    assert first_difference("0", IntLeaf(7 * (10 ** 100 - 1) // 9)) == \
        f"$: '0' vs {head}... (100 characters)"
    short = "7" * SHOWN_CHARACTERS
    assert first_difference("0", short) == f"$: '0' vs {short!r}"


def test_a_long_key_shows_its_head_and_length_in_the_path():
    key = "k" * 10 ** 6
    step = f".{'k' * SHOWN_CHARACTERS}... (1000000 characters)"
    assert first_difference({key: "1"}, {}) == f"${step}: unexpected key"
    assert first_difference({}, {key: "1"}) == f"${step}: missing on the left"
    assert first_difference({key: ["1"]}, {key: ["2"]}) == \
        f"${step}[0]: '1' vs '2'"
    short = "k" * SHOWN_CHARACTERS
    assert first_difference({short: "1"}, {}) == f"$.{short}: unexpected key"


def test_shown_text_bounds_any_value():
    assert shown_text(["5"]) == "['5']"
    assert shown_text(None) == "None"
    long = [0] * 10 ** 4
    assert shown_text(long) == f"{repr(long)[:SHOWN_CHARACTERS]}... " \
        f"({len(repr(long))} characters)"


def test_parse_errors_echo_a_bounded_input():
    text = "1/1" + "0" * 5000
    shown = f"{text[:SHOWN_CHARACTERS]!r}... (5003 characters)"
    with pytest.raises(ValueError) as exc:
        parse_fraction(text)
    assert str(exc.value) == f"not a rational: {shown}"
    with pytest.raises(ValueError) as exc:
        parse_fraction("-" + text)
    assert str(exc.value).endswith("... (5004 characters)")
    with pytest.raises(ValueError) as exc:
        text_int("0" + "7" * 5000)
    assert str(exc.value).endswith("... (5001 characters)")
    for obj in ({"num": "1", "den": "0" * 1000},
                {"num": "2" * 1000, "den": "2" * 1000}):
        with pytest.raises(ValueError) as exc:
            fraction_from_json(obj)
        assert len(str(exc.value)) < 200
    # an echo of at most SHOWN_CHARACTERS characters is the repr
    text = "x" * SHOWN_CHARACTERS
    with pytest.raises(ValueError, match=f"^not a rational: {text!r}$"):
        parse_fraction(text)
    with pytest.raises(ValueError) as exc:
        fraction_from_json({"num": "2", "den": "4"})
    assert str(exc.value) == \
        "rational not in lowest terms: {'num': '2', 'den': '4'}"


def test_int_leaf_past_the_digit_limit_is_a_mismatch_not_an_error():
    digits = sys.get_int_max_str_digits()
    if not 0 < digits <= 5000:
        pytest.skip("needs an int->str digit limit near the default")
    big = 10 ** (digits + 10)
    # the presented text cannot be read, and the regenerated integer
    # cannot be written: both are mismatches, each with a detail
    assert not IntLeaf(5).matches("9" * (digits + 1))
    with pytest.raises(ValueError, match="Exceeds the limit"):
        text_int("9" * (digits + 1))
    assert first_difference("0", IntLeaf(big)) == (
        f"$: '0' vs <{big.bit_length()}-bit integer past the int->str "
        "digit limit>")


@given(st.integers(min_value=0, max_value=10 ** 30),
       st.integers(min_value=1, max_value=10 ** 30))
def test_round_trip_property(p, q):
    x = ExtendedRational(Fraction(p, q))
    assert ExtendedRational.parse(str(x)) == x
    assert ExtendedRational.from_json(x.to_json()) == x


def sign(x) -> int:
    return (x > 0) - (x < 0)


small_ints = st.integers(min_value=-40, max_value=40)


@given(small_ints, small_ints, small_ints, small_ints)
def test_integer_comparisons_match_fractions(a, b, c, e):
    # the integer forms the verify suites compare with, against Fraction
    defined = b != 0 and e != 0
    assert rational.quotient_sign(a, b, e) == (
        sign(Fraction(a, b * e)) if defined else None)
    assert rational.cross_sign(a, b, c, e) == (
        sign(Fraction(a, b) - Fraction(c, e)) if defined else None)


# strings that need escaping under ensure_ascii: quotes, backslashes,
# control characters and non-ASCII, astral code points included
json_text = (st.text(st.sampled_from('a"\\\x00\x1f\n\t/\x7f\xe9\u2028'
                                     '\U0001f600'))
             | st.text())
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | json_text,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(json_text, inner, max_size=4),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_joined_writer_is_json_dumps(value):
    # the writer's own branch, called directly so it runs on every version
    assert _joined_text(value, "\n") == json.dumps(value, sort_keys=True,
                                                    indent=2)
    assert document_text(value) == json.dumps(value, sort_keys=True,
                                              indent=2)


# one list object placed more than once, as a diagram places each map's
# run under both targets and each point under "point" and "eval"
RUN = ["0", "1", {"z": ["2"]}]
RUNS = [RUN, {"point": RUN, "eval": RUN}]
SHARED = {
    "twice at one indent": {"a": RUN, "b": RUN},
    "three times at one indent": [RUN, RUN, RUN],
    "at two indents": {"a": RUN, "b": {"c": RUN}, "d": [RUN]},
    "nested in a shared list": {"C": {"arrows": RUNS},
                                "B": {"arrows": RUNS}, "run": RUN},
}


@pytest.mark.parametrize("value", SHARED.values(), ids=SHARED)
def test_joined_writer_renders_shared_lists_as_json_dumps(value):
    assert _joined_text(value, "\n") == json.dumps(value, sort_keys=True,
                                                   indent=2)


def test_joined_writer_writes_scalars_without_the_encoder(monkeypatch):
    # the leaves a ledger row, the crossed flag and bitLengths hold
    value = {"holds": True, "crossed": False, "none": None, "n": 12,
             "bitLengths": [0, 7, -3, 10 ** 40], "rows": [[True, None]]}
    expected = json.dumps(value, sort_keys=True, indent=2)

    def refuse(obj, *args, **kwargs):
        raise AssertionError(f"json.dumps called on {obj!r}")
    monkeypatch.setattr(json, "dumps", refuse)
    assert _joined_text(value, "\n") == expected


@pytest.mark.parametrize("bad", [{1: "x"}, {"a": {None: []}}, {"a": 1, 2: 3}])
def test_joined_writer_refuses_keys_that_are_not_strings(bad):
    with pytest.raises(TypeError):
        _joined_text(bad, "\n")
