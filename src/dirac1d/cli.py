"""Command-line interface.

Subcommands:
    spectrum  CONFIG   solve and write the spectrum table
    diagnose  CONFIG   spectrum plus currents, Gram matrix and balance identity
    check-pt  CONFIG   PT-symmetry residuals of the configured channels
    sweep     CONFIG --param section.key --values a,b,c   repeat diagnose runs

Exit status: 0 when every enabled check passed, 1 for usage or configuration
errors, 2 when a numerical check failed.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import Optional

from .config import RunConfig, parse_config
from .errors import ConfigError, Dirac1DError
from .report import OUTPUTS, RunReport, execute, f17, write_csv, write_outputs


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the package reserves 2 for
    # numerical check failures, so remap usage problems to exit 1
    def error(self, message: str):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("config", help="path to the INI run configuration")
    sub.add_argument("--out", default=None,
                     help="output directory (default: <config stem>_out)")
    sub.add_argument("--tol", default=None,
                     help="override solver.tol from the config")
    sub.add_argument("--format", default=None, metavar="{csv,json,both}",
                     help="override output.formats from the config")
    sub.add_argument("--strict-pt", action="store_true",
                     help="fail (exit 2) when a channel declared "
                          "pt_from_mass is not PT-symmetric")


# flags that take a value; _attach_values joins each to the token after it
_VALUE_FLAGS = ("--out", "--tol", "--format", "--param", "--values")


def _attach_values(argv: list[str]) -> list[str]:
    """Join each value flag and a following '-' token as --flag=token.

    argparse takes such a token for an option unless it is a plain negative
    number, so --values -0.05,0.05 and --tol -1e-3 would not reach the
    config layer.  Options (--anything, -h) are left to argparse.
    """
    out: list[str] = []
    for token in argv:
        if (out and out[-1] in _VALUE_FLAGS and token.startswith("-")
                and not token.startswith("--") and token != "-h"):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dirac1d",
                     description="1+1D Dirac spectra with position-dependent "
                                 "mass and Lorentz-structure potentials")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("spectrum", "solve the spectrum and write it out"),
        ("diagnose", "spectrum plus currents, Gram matrix and balance terms"),
        ("check-pt", "check PT symmetry of the configured channels"),
    ):
        sub = subs.add_parser(name, help=helptext)
        _add_common(sub)
    sweep = subs.add_parser("sweep", help="repeat diagnose over one parameter")
    _add_common(sweep)
    sweep.add_argument("--param", required=True,
                       help="config key to vary, as section.key")
    sweep.add_argument("--values", required=True,
                       help="comma-separated values (empty string: no runs)")
    return parser


def _out_dir(args, cfg: RunConfig) -> Path:
    if args.out:
        return Path(args.out)
    configured = cfg["output"]["directory"]
    if configured:
        base = cfg.path.parent if cfg.path else Path.cwd()
        return base / configured
    stem = cfg.path.stem if cfg.path else "run"
    return Path.cwd() / f"{stem}_out"


def _config(args) -> RunConfig:
    """The config file with the --tol and --format flags applied as keys;
    replacing re-validates the whole config, so it runs only for a flag."""
    cfg = parse_config(args.config)
    flags = {"solver.tol": args.tol, "output.formats": args.format}
    flags = {key: value for key, value in flags.items() if value is not None}
    return cfg.replace(flags) if flags else cfg


def _print_report(report: RunReport, written) -> None:
    s = report.spectrum
    for i, re, im, tag in zip(*(s.get(key, ()) for key in (
            "index", "energy_re", "energy_im", "classification"))):
        print(f"  E[{i}] = {f17(re)} {'+' if im >= 0 else '-'} "
              f"{f17(abs(im))}i  ({tag})")
    for note in report.notes:
        print(f"  note: {note}")
    for chk in report.checks:
        print(f"  check {chk.name}: {'PASS' if chk.passed else 'FAIL'} "
              f"({chk.detail})")
    for p in written:
        print(f"  wrote {p}")


def _failed_checks(report: RunReport) -> str:
    """The names of the report's failed checks, comma separated."""
    return ", ".join(c.name for c in report.checks if not c.passed)


def _run_single(args, mode: str) -> int:
    cfg = _config(args)
    report = execute(cfg, mode, strict_pt=args.strict_pt)
    written = write_outputs(report, _out_dir(args, cfg), cfg["output"]["formats"])
    _print_report(report, written)
    if not report.passed:
        print(f"FAILED checks: {_failed_checks(report)}", file=sys.stderr)
        return 2
    return 0


def _sweep_value_token(value: str) -> str:
    token = re.sub(r"[^A-Za-z0-9.+-]", "_", value)
    return token if token else "empty"


# a run directory of a sweep: NNN_<value token>
_RUN_DIR = re.compile(r"\d{3,}_[A-Za-z0-9.+_-]+")


def _remove_stale_runs(out_root: Path, written: set[Path]) -> None:
    """Remove each run directory in out_root that this sweep did not write,
    when it holds nothing but files named among write_outputs' artifacts."""
    for run_dir in out_root.iterdir():
        if (run_dir in written or not run_dir.is_dir()
                or not _RUN_DIR.fullmatch(run_dir.name)):
            continue
        entries = list(run_dir.iterdir())
        if all(p.is_file() and p.name in OUTPUTS for p in entries):
            for p in entries:
                p.unlink()
            run_dir.rmdir()


def _append(columns: dict[str, list], **cells) -> None:
    for key, cell in cells.items():
        columns[key].append(cell)


def _run_sweep(args) -> int:
    cfg = _config(args)
    try:
        section, key = args.param.split(".")
    except ValueError:
        raise ConfigError(
            f"--param must look like section.key, got {args.param!r}") from None
    if key not in cfg.raw.get(section, {}):
        raise ConfigError(f"--param {args.param!r} is not a known config key")

    values = [v.strip() for v in args.values.split(",") if v.strip()]
    out_root = _out_dir(args, cfg)
    formats = cfg["output"]["formats"]

    # the columns of sweep_summary.csv, one entry per value
    summary = {"value": values, "passed": [], "min_abs_im_e": [],
               "n_complex_pairs": [], "identity_residual": [], "error": []}
    run_dirs = set()
    any_failed = False
    for idx, value in enumerate(values):
        # a failing run is recorded in the summary and the sweep moves on
        try:
            report = execute(cfg.replace({args.param: value}), "diagnose",
                             strict_pt=args.strict_pt)
        except Dirac1DError as exc:
            _append(summary, passed=False, min_abs_im_e=float("nan"),
                    n_complex_pairs=0, identity_residual=float("nan"),
                    error=str(exc))
            print(f"  {args.param}={value}: ERROR ({exc})")
            any_failed = True
            continue
        sub_dir = out_root / f"{idx:03d}_{_sweep_value_token(value)}"
        write_outputs(report, sub_dir, formats)
        run_dirs.add(sub_dir)
        spectrum = report.spectrum
        min_abs_im = min(map(abs, spectrum.get("energy_im", ())),
                         default=float("nan"))
        n_pairs = list(spectrum.get("classification", ())).count(
            "complex_pair_member") // 2
        residuals = ([] if report.balance is None
                     else report.balance.identity_residual.tolist())
        max_ident = max(residuals, default=float("nan"))
        failed = "" if report.passed else f"failed checks: {_failed_checks(report)}"
        _append(summary, passed=report.passed, min_abs_im_e=min_abs_im,
                n_complex_pairs=n_pairs, identity_residual=max_ident, error=failed)
        detail = f"{n_pairs} complex pair(s), min |Im E| {min_abs_im:.3e}"
        print(f"  {args.param}={value}: "
              + (f"PASS ({detail})" if report.passed else f"FAIL ({failed}; {detail})"))
        if not report.passed:
            any_failed = True

    out_root.mkdir(parents=True, exist_ok=True)
    _remove_stale_runs(out_root, run_dirs)
    path = out_root / "sweep_summary.csv"
    write_csv(path, summary)
    print(f"  wrote {path}")
    if not values:
        print("  empty sweep: no values given, nothing to run")
    return 2 if any_failed else 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(
            _attach_values(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "sweep":
            return _run_sweep(args)
        return _run_single(args, args.command)
    except Dirac1DError as exc:
        print(f"dirac1d: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"dirac1d: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
