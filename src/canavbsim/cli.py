"""Command-line entry point: run one scenario or the four-arm experiment suite."""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path

from .config import (
    CONFIG_KEYS,
    ConfigError,
    ScenarioConfig,
    ValidationError,
    load_config,
    validate_config,
)
from .core import SimulationError
from .metrics import export_csv, format_summary
from .scenario import run_experiment_suite, run_scenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="canavbsim",
        description="Deterministic CAN / Ethernet-AVB network simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # The flags both commands take, declared once.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", help="override sim.seed")
    common.add_argument("--duration", help="override sim.duration (e.g. 1s, 500ms)")
    common.add_argument("--out", help="output directory (default: config's output.dir or '.')")

    run_p = sub.add_parser("run", parents=[common], help="run one scenario from a config file")
    run_p.add_argument("config", help="scenario config file (sectioned key=value)")
    run_p.add_argument("--trace", action="store_true", help="write per-event trace.csv")
    run_p.add_argument(
        "--queue-trace", action="store_true", help="write per-port queue_trace.csv"
    )

    suite_p = sub.add_parser("suite", parents=[common], help="run the four experiment arms")
    suite_p.add_argument("config", nargs="?", help="optional base config file")
    return parser


def _load(args: argparse.Namespace) -> ScenarioConfig:
    """The config with the flags' overrides, validated before any output is touched."""
    cfg = load_config(args.config) if args.config else ScenarioConfig()
    overrides = {}
    rows = {spec.field: spec for spec in CONFIG_KEYS}
    # Each flag is named after its field and parsed as its INI key is.
    for field in ("seed", "duration"):
        text = getattr(args, field)
        if text is not None:
            try:
                overrides[field] = rows[field].convert(text)
            except ValidationError as exc:
                raise ValidationError(f"--{field}: {exc}") from None
    if args.out is not None:
        overrides["out_dir"] = args.out
    return validate_config(cfg._replace(**overrides))


class OutputDirError(SimulationError):
    """The output directory could not be created."""


def _out_dir(cfg: ScenarioConfig) -> Path:
    out = Path(cfg.out_dir or ".")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OutputDirError(f"cannot create {str(out)!r}: {exc.strerror or exc}") from None
    return out


class OutputFileError(SimulationError):
    """An output file could not be opened or written."""


@contextmanager
def _writing_outputs():
    """Map an OSError from opening or writing an output file to OutputFileError."""
    try:
        yield
    except OSError as exc:
        path = repr(str(exc.filename)) if exc.filename is not None else "an output file"
        raise OutputFileError(f"cannot write {path}: {exc.strerror or exc}") from None


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _load(args)
    out = _out_dir(cfg)
    with _writing_outputs():
        result = run_scenario(
            cfg,
            trace_path=out / "trace.csv" if args.trace else None,
            depth_trace_path=out / "queue_trace.csv" if args.queue_trace else None,
        )
        csv_path = out / f"latency_{result.arm}.csv"
        export_csv(result.records, csv_path)
    net = result.network
    print(format_summary(result.arm, result.summary, net.listener.jam_frames, net.messages_dropped()))
    print(f"events dispatched: {result.stats.events_dispatched}")
    print(f"wrote {csv_path}")
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    cfg = _load(args)
    out = _out_dir(cfg)
    with _writing_outputs():
        suite = run_experiment_suite(cfg, out)
    print(suite.table)
    for arm, path in suite.csv_paths.items():
        print(f"wrote {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_suite(args)
    except ConfigError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except SimulationError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
