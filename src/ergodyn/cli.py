"""Command line interface.

Subcommands: run, compare (run with the standard-dynamics comparison
turned on), sweep, list-scenarios, selftest.  Exit codes: 0 success,
1 selftest failure, 2 configuration error, 3 engine disagreement.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import fields

from .emit import (
    format_summary_json,
    format_sweep_csv,
    write_series_csv,
    write_summary_json,
)
from .errors import ConfigError, EngineDisagreementError, ErgodynError
from .scenarios import (
    SCENARIOS,
    ScenarioConfig,
    load_config,
    run_scenario,
    sweep,
)

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_CONFIG = 2
EXIT_ENGINES = 3

#: one flag per configuration key, named as in config files
_FLAG_KEYS = tuple(f.name for f in fields(ScenarioConfig))


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="key = value config file")
    for key in _FLAG_KEYS:
        parser.add_argument(f"--{key}", dest=f"cfg_{key}", metavar="VALUE")
    parser.add_argument("--csv", metavar="PATH", help="write the time series here")
    parser.add_argument("--json", metavar="PATH", help="write the summary here")


def _collect_overrides(args: argparse.Namespace) -> dict:
    out = {}
    for key in _FLAG_KEYS:
        value = getattr(args, f"cfg_{key}")
        if value is not None:
            out[key] = value
    return out


def _run_common(args: argparse.Namespace, force_comparison: bool) -> int:
    overrides = _collect_overrides(args)
    if force_comparison:
        overrides["comparison"] = "true"
    cfg = load_config(args.config, overrides)
    series, summary = run_scenario(cfg, strict=True)
    if args.csv:
        write_series_csv(series, args.csv)
    if args.json:
        write_summary_json(summary, args.json)
    sys.stdout.write(format_summary_json(summary))
    return EXIT_OK


def _cmd_run(args) -> int:
    return _run_common(args, force_comparison=False)


def _cmd_compare(args) -> int:
    return _run_common(args, force_comparison=True)


def _cmd_sweep(args) -> int:
    overrides = _collect_overrides(args)
    cfg = load_config(args.config, overrides)
    values = [v for v in (s.strip() for s in args.values.split(",")) if v]
    rows = sweep(cfg, args.parameter, values)
    table = format_sweep_csv(rows, args.parameter)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(table)
    else:
        sys.stdout.write(table)
    return EXIT_OK


def _cmd_list(args) -> int:
    for name, spec in SCENARIOS.items():
        print(f"{name:26s} {spec.description}")
    return EXIT_OK


def _cmd_selftest(args) -> int:
    from .acceptance import run_all

    ok = run_all(verbose=True)
    return EXIT_OK if ok else EXIT_SELFTEST


@functools.cache  # once per process: parsing leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ergodyn",
        description="Work-driven quantum time evolution on truncated Fock spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="evolve one scenario")
    _add_config_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser(
        "compare", help="run with standard-dynamics comparison channels"
    )
    _add_config_flags(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_sweep = sub.add_parser("sweep", help="repeat a scenario over parameter values")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--parameter", required=True, help="numeric config key")
    p_sweep.add_argument(
        "--values", required=True, help="comma-separated parameter values"
    )
    p_sweep.add_argument("--out", metavar="PATH", help="write the table here")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_list = sub.add_parser("list-scenarios", help="show available scenarios")
    p_list.set_defaults(func=_cmd_list)

    p_self = sub.add_parser("selftest", help="run the acceptance suite")
    p_self.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error in {exc.field}: {exc.message}", file=sys.stderr)
        return EXIT_CONFIG
    except EngineDisagreementError as exc:
        print(f"engine disagreement: {exc}", file=sys.stderr)
        for name, value in exc.residuals.items():
            channel, k, t = exc.peaks[name]
            print(
                f"  {name}: {value:.6e} (peak in {channel} at t[{k}] = {t:.17g})",
                file=sys.stderr,
            )
        return EXIT_ENGINES
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ErgodynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
