"""Command-line interface.

Subcommands: variance, witness, histogram, tpm, coincidence, sweep, verify.
Each takes an optional JSON config (--config) plus flag overrides; results
go to stdout or --out as CSV/JSON.  Sweeps scan ``parameters.alpha_grid``
and ``parameters.b_grid`` and refuse the single-point --alpha and --b (a
TPM sweep takes --b, its one field strength); they refuse --eps, --eps-a
and --eps-b (``parameters.eps_grid``), and the variance sweep refuses --mc.
Exit codes: 0 success, 1 configuration error (an unreadable --config or
unwritable --out path included, checked before any computation) or a closed
stdout pipe, 2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .runner import (
    ExperimentConfig,
    run_histogram,
    run_point,
    run_tpm_sweep,
    run_variance_sweep,
    run_verify,
    write_rows_csv,
)
from .serialization import ConfigError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbattery",
        description="Work-fluctuation statistics and entanglement-dimension witnesses "
        "for bipartite quantum batteries under random local unitaries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--seed", type=int, help="sampler seed (mandatory for Monte Carlo)")
        p.add_argument("--n", type=int, help="number of unitary pairs")
        p.add_argument("--eps", type=float, help="symmetric detector efficiency")
        p.add_argument("--eps-a", type=float, help="detector efficiency on side A")
        p.add_argument("--eps-b", type=float, help="detector efficiency on side B")
        p.add_argument("--alpha", type=float, help="thermal-mixture ratio override (sweeps: parameters.alpha_grid)")
        p.add_argument("--b", type=float, help="Ising field strength override (variance sweep: parameters.b_grid)")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv", help="sweep/histogram output format")

    for name, doc in (
        ("variance", "closed-form work variance at one point (MC optional)"),
        ("witness", "Schmidt-number witness report at one point"),
        ("histogram", "Monte-Carlo work histogram at one point"),
        ("tpm", "noisy two-point-measurement report at one point (MC optional)"),
        ("coincidence", "two-copy coincidence report at one point (MC optional)"),
        ("sweep", "parameter-grid sweep (protocol from config: variance or tpm)"),
        ("verify", "run all closed-form vs Monte-Carlo cross-checks"),
    ):
        p = sub.add_parser(name, help=doc)
        add_common(p)
        if name == "histogram":
            p.add_argument("--bin-width", type=float, help="histogram bin width")
        if name == "verify":
            p.add_argument("--d", type=int, help="local dimension of the checks")
        if name == "sweep":
            p.add_argument("--mc", action="store_true", help="add Monte-Carlo columns where supported")

    return parser


def _load_config(args: argparse.Namespace, protocol: str) -> ExperimentConfig:
    if args.config:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError("config", f"cannot read {args.config}: {exc.strerror}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError("config", f"invalid JSON: {exc}")
    else:
        raw = {}
    raw.setdefault("protocol", protocol)
    cfg = ExperimentConfig.from_dict(raw)
    eps_flags = [f for f, v in (("--eps", args.eps), ("--eps-a", args.eps_a), ("--eps-b", args.eps_b)) if v is not None]
    if args.command != "sweep":
        cfg.protocol = protocol  # the subcommand decides; config protocol drives sweeps only
    elif args.alpha is not None:
        raise ConfigError("--alpha", "a sweep scans its mixing ratios; set them with parameters.alpha_grid")
    elif args.b is not None and cfg.protocol == "variance":
        raise ConfigError("--b", "the variance sweep scans its field strengths; set them with parameters.b_grid")
    elif eps_flags:
        raise ConfigError(eps_flags[0], "a sweep scans its detector efficiencies; set them with parameters.eps_grid")
    elif args.mc and cfg.protocol == "variance":
        raise ConfigError("--mc", "the variance sweep has no Monte-Carlo column; sampling.mc applies to the tpm sweep")
    if args.seed is not None:
        cfg.sampling["seed"] = args.seed
    if args.n is not None:
        cfg.sampling["n_unitaries"] = args.n
    if args.eps is not None:
        cfg.parameters["eps"] = args.eps
    if getattr(args, "eps_a", None) is not None:
        cfg.parameters["eps_a"] = args.eps_a
    if getattr(args, "eps_b", None) is not None:
        cfg.parameters["eps_b"] = args.eps_b
    if getattr(args, "bin_width", None) is not None:
        cfg.parameters["bin_width"] = args.bin_width
    if getattr(args, "d", None) is not None:
        cfg.parameters["d"] = args.d
    if getattr(args, "mc", False):
        cfg.sampling["mc"] = True
    if args.alpha is not None:
        family = cfg.state.get("thermal_mixture")
        if family is None:
            if cfg.state and "matrix" in cfg.state:
                raise ConfigError("state", "--alpha requires the thermal_mixture state family")
            family = {}
        if not isinstance(family, dict):
            raise ConfigError("state.thermal_mixture", "must be a JSON object")
        family["alpha"] = args.alpha
        family.setdefault("T", 1.5)
        cfg.state["thermal_mixture"] = family  # a second family stays, for state_from_spec to refuse
    if args.b is not None:
        if "ising" not in cfg.battery:
            raise ConfigError("battery", "--b needs the ising battery family")
        if not isinstance(cfg.battery["ising"], dict):
            raise ConfigError("battery.ising", "must be a JSON object")
        cfg.battery["ising"]["b"] = args.b
    return cfg


def _open_out(path: str, mode: str = "w"):
    """Open an output file for writing; a path that cannot be written is a ConfigError naming it."""
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


def _emit_json(obj: dict, out: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True)
    if out:
        with _open_out(out) as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit_csv(rows: list[dict], out: str | None, schema: str) -> None:
    if out:
        with _open_out(out) as fh:
            write_rows_csv(rows, fh, schema)
    else:
        write_rows_csv(rows, sys.stdout, schema)


def _emit_rows(rows: list[dict], args: argparse.Namespace, schema: str) -> None:
    if args.format == "json":
        _emit_json({"schema": f"qbattery.{schema}", "rows": rows}, args.out)
        return
    _emit_csv(rows, args.out, schema)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout has gone (`qbattery sweep | head -1`).  Python
        # flushes stdout again at exit, so point it at devnull to end quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _run(args: argparse.Namespace) -> int:
    try:
        if args.out:
            _check_out(args.out)
        if args.command == "verify":
            cfg = _load_config(args, "verify")
            report = run_verify(cfg)
            _emit_json(report, args.out)
            return 0 if report["passed"] else 2
        if args.command == "sweep":
            cfg = _load_config(args, "variance")
            if cfg.protocol == "variance":
                rows = run_variance_sweep(cfg)
                _emit_rows(rows, args, "variance_sweep")
            elif cfg.protocol == "tpm":
                rows = run_tpm_sweep(cfg)
                _emit_rows(rows, args, "tpm_sweep")
            else:
                raise ConfigError("protocol", f"sweep supports 'variance' or 'tpm', got {cfg.protocol!r}")
            return 0
        if args.command == "histogram":
            cfg = _load_config(args, "histogram")
            rows, summary = run_histogram(cfg)
            if args.format == "json":
                _emit_json({"summary": summary, "bins": rows}, args.out)
            else:
                _emit_csv(rows, args.out, "histogram")
                _emit_json(summary, args.out + ".summary.json" if args.out else None)
            return 0
        # single-point protocols
        cfg = _load_config(args, args.command)
        _emit_json(run_point(cfg), args.out)
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
