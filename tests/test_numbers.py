"""The integer number parser against Fraction, the exact reference it replaces."""

import re
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from canavbsim.config import ValidationError, parse_duration, parse_rate

DURATION_UNITS = {"ns": 1, "us": 1_000, "ms": 1_000_000, "s": 1_000_000_000}
RATE_UNITS = {"bps": 1, "kbps": 1_000, "mbps": 1_000_000, "gbps": 1_000_000_000}

# Reference: the same syntax and checks, with the value computed by Fraction.
FRACTION_NUMBER = re.compile(
    r"\s*[-+]?(?=\d|\.\d)(\d+(_\d+)*)?"
    r"(/\d+(_\d+)*|(\.(\d+(_\d+)*)?)?(e[-+]?\d+(_\d+)*)?)\s*"
)


def fraction_scaled_int(text, units, what):
    raw = text.strip().lower().replace("\u00b5s", "us").replace("\u03bcs", "us")
    mult = 1
    for suffix in sorted(units, key=len, reverse=True):
        if raw.endswith(suffix):
            raw, mult = raw[: -len(suffix)].strip(), units[suffix]
            break
    if not FRACTION_NUMBER.fullmatch(raw):
        raise ValidationError(f"cannot parse {what} {text!r}")
    raw = raw.replace("_", "")
    _, e, exponent = raw.partition("e")
    if e and len(exponent.lstrip("+-").lstrip("0")) > 2:
        raise ValidationError(f"{what} {text!r} has an exponent beyond ±99")
    try:
        value = Fraction(raw) * mult
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"cannot parse {what} {text!r}") from None
    if value.denominator != 1:
        raise ValidationError(f"{what} {text!r} is not a whole number of base units")
    return int(value)


def outcome(parse, *args):
    try:
        return parse(*args)
    except ValidationError as exc:
        return str(exc)


numbers = st.text(alphabet="0123456789._/e+- ", max_size=14)
suffixes = st.sampled_from(
    ["", "ns", "us", "\u00b5s", "\u03bcs", "ms", " s", "bps", "kbps", "Mbps", "GBPS", "s "]
)


@settings(max_examples=400, deadline=None)
@given(numbers, suffixes)
@example("1e-100000000", "s")
@example("1/0", "ns")
@example("0_0.5_0e+0_2", "us")
@example("2.5e03", "us")
@example("-1.5", "kbps")
@example("\u0661.\u0665", "ms")  # Arabic-Indic digits, as int() reads them
@example("1" * 4301, "ns")  # longer than int() converts
@example("0." + "0" * 4400 + "1", "s")
def test_scaled_int_matches_fraction_value_or_message(number, suffix):
    text = number + suffix
    assert outcome(parse_duration, text) == outcome(
        fraction_scaled_int, text, DURATION_UNITS, "duration"
    )
    assert outcome(parse_rate, text) == outcome(fraction_scaled_int, text, RATE_UNITS, "rate")
