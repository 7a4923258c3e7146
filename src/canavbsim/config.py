"""Scenario configuration: syntax, key table, checks and experiment arms.
It imports no model module, so a config is read and checked on its own.

Config files are sectioned key=value text.  A ``[section]`` header prefixes
the keys that follow; fully dotted keys work without a header, so
``traffic.jammer.enabled=true`` on its own line is equivalent to
``enabled=true`` under ``[traffic.jammer]``.  Unknown keys are errors.
Integers are Python integer literals (``0x100``, ``1_000``).  Durations
accept ns/us/ms/s suffixes, rates accept bps/kbps/Mbps/Gbps.

The default (empty) configuration is the reference scenario: a 1-Mbps CAN
bus with one periodic sender and the gateway, a two-switch 100-Mbps
backbone to the listener, and a disabled jamming talker on switch 1.
"""

from __future__ import annotations

import re
from collections import namedtuple
from pathlib import Path
from typing import Callable, NamedTuple

from .core import NS_PER_SEC, SimulationError
from .wire import (
    AVB_PCP,
    CAN_MAX_DLC,
    CAN_MAX_ID,
    COUNT_SIZE,
    MAX_PAYLOAD,
    MIN_PAYLOAD,
    RECORD_OVERHEAD,
    STUFFING_MODELS,
    STUFFING_NONE,
    filler_payload_len,
)

ARMS = ("Eth_nature", "Eth_jam", "AVB_nature", "AVB_jam")

# Upper bound on switches.count: the whole chain is built before the first
# event, so an unbounded count would exhaust memory instead of failing.
MAX_SWITCHES = 1024


class ConfigError(SimulationError):
    pass


class ParseError(ConfigError):
    """Malformed config syntax; the message names the offending line."""


class ValidationError(ConfigError):
    """A config value violates an invariant."""


class ConfigReadError(ConfigError):
    """The config file could not be read or is not UTF-8 text."""


_DURATION_UNITS = {"ns": 1, "us": 1_000, "ms": 1_000_000, "s": NS_PER_SEC}
_RATE_UNITS = {"bps": 1, "kbps": 1_000, "mbps": 1_000_000, "gbps": 1_000_000_000}


# A decimal or fraction literal: underscores only between digits, no
# spaces around "/".  _scaled_int reads the named groups.
_DIGITS = r"\d+(?:_\d+)*"
_NUMBER = re.compile(
    rf"\s*(?P<sign>[-+]?)(?=\d|\.\d)(?P<int>{_DIGITS})?(?:/(?P<den>{_DIGITS})"
    rf"|(?:\.(?P<frac>{_DIGITS})?)?(?:e(?P<exp>[-+]?{_DIGITS}))?)\s*"
)


def _scaled_int(text: str, units: dict[str, int], what: str) -> int:
    """The exact value of a _NUMBER literal with an optional unit suffix, in base units."""
    # The micro sign (U+00B5) and the Greek small mu (U+03BC) look the same.
    raw = text.strip().lower().replace("\u00b5s", "us").replace("\u03bcs", "us")
    mult = 1
    for suffix in sorted(units, key=len, reverse=True):
        if raw.endswith(suffix):
            raw, mult = raw[: -len(suffix)].strip(), units[suffix]
            break
    m = _NUMBER.fullmatch(raw)
    if m is None:
        raise ValidationError(f"cannot parse {what} {text!r}")
    sign, whole, den, frac, exp = (part.replace("_", "") for part in m.groups(""))
    # The value takes 10**exponent, so a huge exponent would run for minutes.
    if len(exp.lstrip("+-").lstrip("0")) > 2:
        raise ValidationError(f"{what} {text!r} has an exponent beyond ±99")
    try:
        if den:
            num, den = int(whole), int(den)
        else:
            den = 10 ** len(frac)
            num = int(whole or "0") * den + int(frac or "0")
            exp = int(exp or "0")
            num, den = (num * 10**exp, den) if exp >= 0 else (num, den * 10**-exp)
    except ValueError:  # a digit run longer than int() converts
        raise ValidationError(f"cannot parse {what} {text!r}") from None
    if not den:
        raise ValidationError(f"cannot parse {what} {text!r}")
    num = (-num if sign == "-" else num) * mult
    if num % den:
        raise ValidationError(f"{what} {text!r} is not a whole number of base units")
    return num // den


def parse_duration(text: str) -> int:
    """'3ms' -> 3_000_000 ns; bare integers are nanoseconds."""
    return _scaled_int(text, _DURATION_UNITS, "duration")


def parse_rate(text: str) -> int:
    """'100Mbps' -> 100_000_000 bits/s; bare integers are bits/s."""
    return _scaled_int(text, _RATE_UNITS, "rate")


def _parse_int(text: str) -> int:
    try:
        return int(text.strip(), 0)
    except ValueError:
        raise ValidationError(f"cannot parse integer {text!r}") from None


def _parse_optional_int(text: str) -> int | None:
    if text.strip().lower() in ("none", "unbounded"):
        return None
    return _parse_int(text)


def _parse_optional_rate(text: str) -> int | None:
    if text.strip().lower() in ("none", "unlimited"):
        return None
    return parse_rate(text)


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "on", "1"):
        return True
    if t in ("false", "no", "off", "0"):
        return False
    raise ValidationError(f"cannot parse boolean {text!r}")


class ConfigKey(NamedTuple):
    """One INI key of ScenarioConfig: the field it sets, through ``convert``,
    and the field's default.  A value other than None must lie in
    ``lo..hi``; an omitted bound is open."""

    field: str
    key: str
    convert: Callable[[str], object]
    default: object
    lo: int | None = None
    hi: int | None = None


# The config schema: one row per INI key, in ScenarioConfig's field order.
CONFIG_KEYS = (
    ConfigKey("seed", "sim.seed", _parse_int, 42),
    # Every created_at is at most the horizon, and the gateway packs it as u64.
    ConfigKey("duration", "sim.duration", parse_duration, NS_PER_SEC, 1, 2**64 - 1),
    ConfigKey("can_bitrate", "can.bitrate", parse_rate, 1_000_000, 1),
    ConfigKey("can_stuffing_model", "can.stuffing_model", str.strip, STUFFING_NONE),
    ConfigKey("can_node_queue_cap", "can.node_queue_cap", _parse_optional_int, None, 0),
    # At least 2 bits/s, so that an idle slope of at least 1 fits below it.
    ConfigKey("eth_rate", "ethernet.rate", parse_rate, 100_000_000, 2),
    ConfigKey("switch_count", "switches.count", _parse_int, 2, 1, MAX_SWITCHES),
    ConfigKey("forwarding_latency", "switches.forwarding_latency", parse_duration, 5_000, 0),
    ConfigKey("idle_slope", "switches.idle_slope", parse_rate, 20_000_000, 1),
    ConfigKey("avb_queue_cap", "switches.avb_queue_cap", _parse_optional_int, None, 0),
    ConfigKey("be_queue_cap", "switches.be_queue_cap", _parse_optional_int, None, 0),
    ConfigKey("gw_pack_period", "gateway.pack_period", parse_duration, 500_000, 1),
    ConfigKey("gw_mtu_payload", "gateway.mtu_payload", _parse_int, 1500, None, MAX_PAYLOAD),
    ConfigKey("gw_class_for_can", "gateway.class_for_can", _parse_int, AVB_PCP, 0, 7),
    ConfigKey("gw_queue_cap", "gateway.queue_cap", _parse_optional_int, None, 0),
    ConfigKey("sender_can_id", "traffic.sender.can_id", _parse_int, 0x100, 0, CAN_MAX_ID),
    ConfigKey("sender_dlc", "traffic.sender.dlc", _parse_int, 8, 0, CAN_MAX_DLC),
    ConfigKey("sender_period", "traffic.sender.period", parse_duration, 3_000_000, 1),
    ConfigKey("sender_start", "traffic.sender.start", parse_duration, 0, 0),
    ConfigKey("sender_count_limit", "traffic.sender.count_limit", _parse_optional_int, None, 0),
    ConfigKey("jammer_enabled", "traffic.jammer.enabled", _parse_bool, False),
    ConfigKey("jammer_frame_total_bytes", "traffic.jammer.frame_total_bytes", _parse_int, 1470),
    ConfigKey("jammer_period_lo", "traffic.jammer.period_lo", parse_duration, 1_000, 0),
    # All-zero gaps would tick forever without the clock advancing.
    ConfigKey("jammer_period_hi", "traffic.jammer.period_hi", parse_duration, 25_000, 1),
    ConfigKey("jammer_pcp", "traffic.jammer.pcp", _parse_int, 0, 0, 7),
    ConfigKey("jammer_attach_switch", "traffic.jammer.attach_switch", _parse_int, 1, 1),
    ConfigKey("jammer_link_rate", "traffic.jammer.link_rate", _parse_optional_rate, None, 2),
    ConfigKey("out_dir", "output.dir", str.strip, None),
)

ScenarioConfig = namedtuple(
    "ScenarioConfig",
    [spec.field for spec in CONFIG_KEYS],
    defaults=[spec.default for spec in CONFIG_KEYS],
)
ScenarioConfig.__doc__ = """Flat, immutable scenario parameters, one field per
row of CONFIG_KEYS; the defaults reproduce the reference scenario.  Override
values with ``cfg._replace(...)`` and check the result with validate_config."""

# INI key -> its row; "unknown key" means absent here.
_ROWS_BY_KEY = {spec.key: spec for spec in CONFIG_KEYS}


def arm_name(cfg: ScenarioConfig) -> str:
    kind = "AVB" if cfg.gw_class_for_can == AVB_PCP else "Eth"
    return f"{kind}_{'jam' if cfg.jammer_enabled else 'nature'}"


def arm_config(base: ScenarioConfig, arm: str) -> ScenarioConfig:
    """The suite arm variant: only jammer-enabled and CAN classification differ."""
    if arm not in ARMS:
        raise ValidationError(f"unknown arm {arm!r}; expected one of {ARMS}")
    kind, load = arm.split("_")
    return base._replace(
        gw_class_for_can=AVB_PCP if kind == "AVB" else 0,
        jammer_enabled=(load == "jam"),
    )


def validate_config(cfg: ScenarioConfig) -> ScenarioConfig:
    """Check every value and cross-field invariant; returns cfg for chaining.

    This is the one check site: the actors take their values as given.  Each
    message starts with the INI key of the value it rejects.  Every value is
    checked against its row's type and bounds in CONFIG_KEYS first, so the
    checks that relate two values may rely on those.  A row read by
    ``_parse_bool`` takes a bool; every row but those read by ``str.strip``
    takes an int that is no bool, or None where the default is None."""

    def need(cond: bool, message: str):
        if not cond:
            raise ValidationError(message)

    for spec, value in zip(CONFIG_KEYS, cfg):
        # can.stuffing_model is checked by membership below; output.dir is any path.
        if spec.convert is str.strip or (value is None and spec.default is None):
            continue
        kind = bool if spec.convert is _parse_bool else int
        if type(value) is not kind:
            none = " or None" if spec.default is None else ""
            raise ValidationError(f"{spec.key} must be {kind.__name__}{none}, got {value!r}")
        if spec.lo is not None and value < spec.lo:
            raise ValidationError(f"{spec.key} must be at least {spec.lo}, got {value}")
        if spec.hi is not None and value > spec.hi:
            raise ValidationError(f"{spec.key} must be at most {spec.hi}, got {value}")
    need(
        cfg.can_stuffing_model in STUFFING_MODELS,
        f"can.stuffing_model must be one of {STUFFING_MODELS}, got {cfg.can_stuffing_model!r}",
    )
    need(
        cfg.idle_slope < cfg.eth_rate,
        f"switches.idle_slope must be below ethernet.rate {cfg.eth_rate}, got {cfg.idle_slope}",
    )
    record = COUNT_SIZE + RECORD_OVERHEAD + cfg.sender_dlc
    need(
        record <= cfg.gw_mtu_payload,
        f"gateway.mtu_payload must be at least {record}, got {cfg.gw_mtu_payload}: "
        f"one record of traffic.sender.dlc {cfg.sender_dlc} takes "
        f"{COUNT_SIZE} + {RECORD_OVERHEAD} + dlc bytes",
    )
    need(
        cfg.jammer_period_lo <= cfg.jammer_period_hi,
        f"traffic.jammer.period_lo {cfg.jammer_period_lo} exceeds "
        f"traffic.jammer.period_hi {cfg.jammer_period_hi}",
    )
    payload = filler_payload_len(cfg.jammer_frame_total_bytes, cfg.jammer_pcp)
    need(
        MIN_PAYLOAD <= payload <= MAX_PAYLOAD,
        f"traffic.jammer.frame_total_bytes {cfg.jammer_frame_total_bytes} implies payload "
        f"{payload} at pcp {cfg.jammer_pcp}, outside {MIN_PAYLOAD}..{MAX_PAYLOAD}",
    )
    need(
        cfg.jammer_attach_switch <= cfg.switch_count,
        f"traffic.jammer.attach_switch must be at most switches.count {cfg.switch_count}, "
        f"got {cfg.jammer_attach_switch}",
    )
    return cfg


def parse_config(text: str) -> ScenarioConfig:
    """Parse sectioned key=value text into a validated ScenarioConfig."""
    values: dict[str, object] = {}  # field -> converted value
    seen: dict[str, int] = {}
    section = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError(f"line {lineno}: unterminated section header {line!r}")
            section = line[1:-1].strip()
            if not section:
                raise ParseError(f"line {lineno}: empty section name")
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected key=value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ParseError(f"line {lineno}: missing key before '='")
        full_key = f"{section}.{key}" if section else key
        spec = _ROWS_BY_KEY.get(full_key)
        if spec is None:
            raise ValidationError(f"line {lineno}: unknown config key {full_key!r}")
        if full_key in seen:
            raise ValidationError(
                f"line {lineno}: {full_key!r} already set on line {seen[full_key]}"
            )
        seen[full_key] = lineno
        try:
            values[spec.field] = spec.convert(value)
        except ValidationError as exc:
            raise ValidationError(f"line {lineno}: {full_key}: {exc}") from None
    return validate_config(ScenarioConfig(**values))


def load_config(path: str | Path) -> ScenarioConfig:
    try:
        # utf-8-sig drops the byte-order mark some editors put first.
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ConfigReadError(f"cannot read {str(path)!r}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigReadError(
            f"{str(path)!r} is not UTF-8 text: byte {exc.start}: {exc.reason}"
        ) from None
    return parse_config(text)
