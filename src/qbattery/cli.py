"""Command-line interface.

Subcommands: variance, witness, histogram, tpm, coincidence, sweep, verify.
Each takes an optional JSON config (--config) plus flag overrides; results
go to stdout or --out as CSV/JSON.  ``runner.CONFIG_KEYS`` lists the keys
each run reads and declares every override flag: each subcommand parses
every flag, as the number its text spells, and writes it at its key, where
the key's rule decides as for a config value.  A config key or flag that
the run does not read, or a config ``protocol`` naming another run, is a
configuration error naming the key (for a flag given to a sweep, also the
grid that the sweep scans instead).
variance, tpm, coincidence and the TPM sweep add Monte Carlo exactly when
``sampling.n_unitaries`` is given; histogram and verify always sample.
``--format`` (default CSV) applies to sweep and histogram only; the other
runs write JSON and refuse it as a configuration error.  Only this module
formats bytes: a table is written in chunks, as CSV or JSON, from its array.
Exit codes: 0 success, 1 configuration error (a usage error, keyed by the
command, an unreadable --config or unwritable --out path included, and the
histogram CSV's ``.summary.json`` sidecar, all checked before any
computation; a result that is not finite, checked before any byte is
written; one stderr line) or a closed stdout pipe, 2 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys

import numpy as np

from .runner import (
    CONFIG_KEYS,
    ExperimentConfig,
    run_histogram,
    run_point,
    run_tpm_sweep,
    run_variance_sweep,
    run_verify,
)
from .serialization import ConfigError

__all__ = ["main", "build_parser"]

SCHEMA_VERSION = 1  # of a table's tag, qbattery.<name>.v<SCHEMA_VERSION>, in CSV and JSON alike
_CHUNK = 4096  # table rows made Python floats and ints at a time
_JSON = json.JSONEncoder(indent=2, sort_keys=True, allow_nan=False)  # all but a table's rows; non-finite raises


class _Parser(argparse.ArgumentParser):
    """argparse with each usage error a ``ConfigError`` at the command, which exits 1, not argparse's 2."""

    def error(self, message: str):
        raise ConfigError(self.prog, message)


def number(text: str) -> int | float:
    """The number a flag's text spells: an ``int`` for an integer literal, else a ``float``."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qbattery",
        description="Work-fluctuation statistics and entanglement-dimension witnesses "
        "for bipartite quantum batteries under random local unitaries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("variance", "closed-form work variance at one point (Monte Carlo given sampling.n_unitaries)"),
        ("witness", "Schmidt-number witness report at one point"),
        ("histogram", "Monte-Carlo work histogram at one point"),
        ("tpm", "noisy two-point-measurement report at one point (Monte Carlo given sampling.n_unitaries)"),
        ("coincidence", "two-copy coincidence report at one point (Monte Carlo given sampling.n_unitaries)"),
        ("sweep", "grid sweep of the config's protocol: variance, or tpm (Monte Carlo given sampling.n_unitaries)"),
        ("verify", "run all closed-form vs Monte-Carlo cross-checks"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), help="sweep/histogram output format (default: csv)")
        for key, (runs, flag, _) in CONFIG_KEYS.items():
            if flag:
                readers = ", ".join(runs)
                p.add_argument(flag, type=number, dest=key, metavar="NUMBER", help=f"sets {key}; read by {readers}")
    return parser


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    """The checked config with every given flag written at its key; a key or flag the run ignores is a ConfigError."""
    raw = {}
    if args.config:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError("config", f"cannot read {args.config}: {exc.strerror}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError("config", f"invalid JSON: {exc}")
    cfg = ExperimentConfig.from_dict(raw)
    run = f"{cfg.protocol or 'variance'} sweep" if args.command == "sweep" else args.command
    cfg.check(run)
    for key, (runs, flag, grid) in CONFIG_KEYS.items():
        value = getattr(args, key, None)
        if value is None:
            continue
        if run not in runs:
            scans = f"; a sweep scans {grid}" if args.command == "sweep" and grid else ""
            raise ConfigError(flag, f"{run} does not read {key}{scans}")
        parts = key.split(".")
        node = getattr(cfg, parts[0])
        for depth in range(1, len(parts) - 1):
            node = node.setdefault(parts[depth], {})
            if not isinstance(node, dict):
                raise ConfigError(".".join(parts[: depth + 1]), "must be a JSON object")
        node[parts[-1]] = value
    return cfg


def _open_out(path: str | None, mode: str = "w"):
    """The output file opened for writing, or stdout without a path; a path that cannot be written is a ConfigError."""
    if not path:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, mode, newline="")
    except OSError as exc:
        raise ConfigError("--out", f"cannot write {path}: {exc.strerror}") from None


def _check_out(path: str) -> None:
    """Fail before the run on an --out path that cannot be written.

    Opens for appending, so an existing file keeps its content until the
    result replaces it, and removes a file that the check itself created.
    """
    existed = os.path.lexists(path)
    _open_out(path, "a").close()
    if not existed:
        os.remove(path)


_NOT_FINITE = "a result is not finite: it overflows the float range at this energy scale"


def _json_text(obj: dict) -> str:
    """An output's indented JSON; a value that is not finite is a ConfigError at ``battery``."""
    try:
        return _JSON.encode(obj) + "\n"
    except ValueError:
        raise ConfigError("battery", _NOT_FINITE) from None


def _write(text: str, out: str | None) -> None:
    with _open_out(out) as fh:
        fh.write(text)


def _emit_table(args: argparse.Namespace, schema: str, rows: np.ndarray, summary: dict | None = None) -> None:
    """A sweep's table, or a histogram's and its summary, as CSV (the summary in its sidecar) or JSON, both written
    ``_CHUNK`` rows of Python floats and ints at a time; the table (one ``np.isfinite`` per field) and the summary
    (rendered) are checked before the output is opened."""
    if not all(np.isfinite(rows[key]).all() for key in rows.dtype.names):
        raise ConfigError("battery", _NOT_FINITE)
    sidecar = _json_text(summary) if summary else None
    tag, as_json = f"qbattery.{schema}.v{SCHEMA_VERSION}", args.format == "json"
    if as_json:  # a row is its fields in sorted key order, each the repr that json writes for a finite float or an int
        names = sorted(rows.dtype.names)
        rows, row = rows[names], "    {\n" + ",\n".join(f"      {json.dumps(key)}: %r" for key in names) + "\n    }"
        tail = '"summary": ' + sidecar[:-1].replace("\n", "\n  ") if summary else f'"schema": {json.dumps(tag)}'
    with _open_out(args.out) as fh:
        if as_json:
            fh.write('{\n  "bins": [\n' if summary else '{\n  "rows": [\n')
        else:
            fh.write(f"# schema={tag}\n")
            writer = csv.writer(fh)
            writer.writerow(rows.dtype.names)
        for start in range(0, len(rows), _CHUNK):
            if as_json:
                fh.write(",\n" * (start > 0) + ",\n".join(row % r for r in rows[start : start + _CHUNK].tolist()))
            else:
                writer.writerows(rows[start : start + _CHUNK].tolist())
        if as_json:
            fh.write(f"\n  ],\n  {tail}\n}}\n")
    if sidecar and not as_json:
        _write(sidecar, args.out + ".summary.json" if args.out else None)


def main(argv: list[str] | None = None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout has gone (`qbattery sweep | head -1`).  Python
        # flushes stdout again at exit, so point it at devnull to end quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _run(argv: list[str] | None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.out:
            _check_out(args.out)
            if args.command == "histogram" and args.format != "json":
                _check_out(args.out + ".summary.json")  # the CSV's sidecar
        if args.format is not None and args.command not in ("sweep", "histogram"):
            raise ConfigError("--format", f"{args.command} writes JSON only")
        cfg = _load_config(args)
        if args.command == "verify":
            report = run_verify(cfg)
            _write(_json_text(report), args.out)
            return 0 if report["passed"] else 2
        if args.command == "sweep":
            rows = run_variance_sweep(cfg) if cfg.protocol == "variance" else run_tpm_sweep(cfg)
            _emit_table(args, f"{cfg.protocol}_sweep", rows)
        elif args.command == "histogram":
            _emit_table(args, "histogram", *run_histogram(cfg))
        else:  # single-point protocols
            _write(_json_text(run_point(cfg)), args.out)
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
