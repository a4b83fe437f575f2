import argparse
import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import asdict, fields

import numpy as np
import pytest

import qbattery
from qbattery.battery import gibbs_state, ising_battery, spectral_decomposition, thermal_mixture_stack, thermal_mixture_state
from qbattery.cli import _emit_table, build_parser, main
from qbattery.haar import SamplerConfig, twirl1
from qbattery.linalg import swap_operator
from qbattery.runner import CONFIG_KEYS, ExperimentConfig, run_histogram, run_point, run_tpm_sweep, run_variance_sweep
from qbattery.tpm import mc_tpm_statistics
from qbattery.witness import detect_schmidt_number
from qbattery.workstats import WorkStatistics, mc_work_statistics

from test_sweeps import _HISTOGRAM, _MC_SWEEP


def _read_csv(path):
    with open(path) as fh:
        first = fh.readline()
        assert first.startswith("# schema=qbattery.")
        return list(csv.DictReader(fh))


def test_variance_sweep_single_point_matches_direct_call():
    cfg = ExperimentConfig.from_dict(
        {
            "protocol": "variance",
            "parameters": {"b_grid": [0.45], "alpha_grid": [0.96]},
        }
    )
    rows = run_variance_sweep(cfg)
    assert len(rows) == 1
    h = ising_battery(0.5, 1.0, 0.5, 0.45)
    rho = thermal_mixture_state(0.96, gibbs_state(h.ha, 1.5), gibbs_state(h.hb, 1.5))
    rep = detect_schmidt_number(rho, h)
    assert rows[0]["variance"] == rep.variance_used
    assert rows[0]["detected_sn"] == rep.detected_sn_lower_bound
    assert rows[0]["bound_k3"] == dict(rep.thresholds)[3]


def test_variance_sweep_default_grid_contains_detection_endpoints():
    rows = run_variance_sweep(ExperimentConfig())
    hot = [r for r in rows if r["b"] == 0.45 and r["alpha"] == 0.96]
    cold = [r for r in rows if r["b"] == 0.45 and r["alpha"] == 0.08]
    assert hot and cold
    assert hot[0]["variance"] > hot[0]["bound_k3"]
    assert cold[0]["variance"] <= cold[0]["bound_k1"]
    for r in rows:
        if r["alpha"] == 0.0:
            assert r["detected_sn"] == 1  # product states never detect


def test_tpm_sweep_rows():
    cfg = ExperimentConfig.from_dict(
        {
            "protocol": "tpm",
            "parameters": {"eps_grid": [0.2, 0.5, 1.0], "alpha_grid": [0.0, 0.5, 1.0]},
        }
    )
    rows = run_tpm_sweep(cfg)
    assert len(rows) == 9
    for r in rows:
        assert abs(r["n0"] + r["n1"] + r["n_noisy"] - 1) < 1e-12
        assert r["var_tpm"] <= r["var_diag"] + 1e-12
    # weaker detectors stay closer to the ideal curve for this family
    by_alpha = {}
    for r in rows:
        by_alpha.setdefault(r["alpha"], {})[r["eps_a"]] = r["var_tpm"]
    for curves in by_alpha.values():
        assert curves[0.2] >= curves[0.5] - 1e-15 >= curves[1.0] - 2e-15


def test_histogram_counts_and_summary(tmp_path):
    cfg = ExperimentConfig.from_dict(
        {
            "protocol": "histogram",
            "parameters": {"bin_width": 0.1},
            "sampling": {"seed": 5, "n_unitaries": 2000},
        }
    )
    rows, summary = run_histogram(cfg)
    assert sum(r["count"] for r in rows) == 2000
    assert summary["n_samples"] == 2000
    assert summary["variance"] > 0


def test_cli_witness_json(capsys):
    assert main(["witness", "--alpha", "0.96", "--b", "0.45"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["detected_sn_lower_bound"] == 4


def test_cli_sweep_csv_file(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(
        json.dumps(
            {
                "protocol": "variance",
                "parameters": {"b_grid": [0.45], "alpha_grid": [0.08, 0.96]},
            }
        )
    )
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert len(rows) == 2
    assert {r["alpha"] for r in rows} == {"0.08", "0.96"}
    assert rows[1]["detected_sn"] == "4"


def test_cli_seeded_rerun_is_identical(tmp_path, capsys):
    args = ["tpm", "--alpha", "0.5", "--eps", "0.5", "--seed", "42", "--n", "1000"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert abs(payload["mc"]["variance"] - payload["var_tpm"]) < 5 * payload["mc"]["se_variance"]


@pytest.mark.parametrize("given_n", [False, True])
@pytest.mark.parametrize("run", ["variance", "tpm", "coincidence", "tpm sweep"])
def test_a_run_adds_monte_carlo_exactly_when_n_is_given(run, given_n):
    sampling = {"seed": 3, "n_unitaries": 30} if given_n else {"seed": 3}
    if run == "tpm sweep":
        grids = {"alpha_grid": [0.5], "eps_grid": [0.5]}
        cfg = ExperimentConfig.from_dict({"protocol": "tpm", "parameters": grids, "sampling": sampling})
        keys = run_tpm_sweep(cfg).dtype.names
    else:
        out = run_point(ExperimentConfig.from_dict({"protocol": run, "sampling": sampling}))
        keys = [key for key, value in out.items() if value is not None]
    sweep_keys = {f"mc_{field.name}" for field in fields(WorkStatistics)}
    mc_keys = {"tpm sweep": sweep_keys, "coincidence": {"cbar_mc", "cbar_mc_se"}}
    sampled = {key for key in keys if "mc" in key}
    assert sampled == (mc_keys.get(run, {"mc"}) if given_n else set())


def test_sweep_json_schema_tag_is_its_csv_tag(tmp_path):
    config = tmp_path / "tpm.json"
    config.write_text(json.dumps({"protocol": "tpm", "parameters": {"alpha_grid": [0.5], "eps_grid": [0.5]}}))
    as_csv, as_json = tmp_path / "rows.csv", tmp_path / "rows.json"
    assert main(["sweep", "--config", str(config), "--out", str(as_csv)]) == 0
    assert main(["sweep", "--config", str(config), "--format", "json", "--out", str(as_json)]) == 0
    tag = as_csv.read_text().splitlines()[0].removeprefix("# schema=")
    assert json.loads(as_json.read_text())["schema"] == tag == "qbattery.tpm_sweep.v1"


@pytest.mark.parametrize(
    "command, config",
    [
        ("sweep", {}),
        ("sweep", _MC_SWEEP),
        ("histogram", _HISTOGRAM),
        ("sweep", {"protocol": "tpm", "parameters": {"alpha_grid": np.linspace(0.0, 1.0, 1400).tolist()}}),
    ],
    ids=["variance", "tpm_mc", "histogram", "4200_rows"],
)
def test_a_json_table_is_the_dumps_of_its_row_dicts(tmp_path, command, config):
    """The streamed ``--format json`` output is byte for byte ``json.dumps`` of the table's ``tolist`` rows as dicts;
    4,200 rows cross the writer's 4,096-row chunk boundary."""
    cfg = ExperimentConfig.from_dict(config)
    if command == "histogram":
        rows, summary = run_histogram(cfg)
        head, key = {"summary": summary}, "bins"
    else:
        rows = run_tpm_sweep(cfg) if cfg.protocol == "tpm" else run_variance_sweep(cfg)
        head, key = {"schema": f"qbattery.{cfg.protocol}_sweep.v1"}, "rows"
    doc = {**head, key: [dict(zip(rows.dtype.names, row)) for row in rows.tolist()]}
    path, out = tmp_path / "config.json", tmp_path / "rows.json"
    path.write_text(json.dumps(config))
    assert main([command, "--config", str(path), "--format", "json", "--out", str(out)]) == 0
    assert out.read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"


_CELLS = {  # declared out of sorted key order; the float cells span repr's forms: -0.0, subnormal, exponent, 0.1 + 0.2
    "b": [-0.0, 5e-324, 1e16, 1e-7],
    "J1": [0.1 + 0.2, 1.7976931348623157e308, -2.5e-308, 1.0],
    "alpha": [1e-7, -0.0, 0.1 + 0.2, 123456789.0],
    "T": [1e22, 5e-324, -1e16, 0.5],
    "count": [2**63 - 1, -(2**63 - 1), 0, 7],
}


@pytest.mark.parametrize(
    "summary", [None, {"n_samples": 4100, "origin": -0.0, "fit": {"z": 1e-7, "a": [1, 2]}}], ids=["sweep", "histogram"]
)
@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
def test_a_table_writes_each_number_as_json_and_csv_read_it_back(tmp_path, capsys, summary, to_file):
    """JSON is byte for byte ``json.dumps`` of the rows as dicts, whatever the fields' declared order, and every CSV
    cell parses back to its bits; 4,100 rows cross the writer's 4,096-row chunk boundary."""
    dtype = [(key, "i8" if key == "count" else "f8") for key in _CELLS]
    rows = np.zeros(4 * 1025, dtype=dtype)
    for key, cells in _CELLS.items():
        rows[key] = np.tile(np.array(cells, dtype=rows.dtype[key]), 1025)
    out = tmp_path / "table"
    sidecar = json.dumps(summary, indent=2, sort_keys=True) + "\n" if summary else ""

    def emit(fmt):
        _emit_table(argparse.Namespace(out=str(out) if to_file else None, format=fmt), "probe", rows, summary)
        return out.read_bytes().decode() if to_file else capsys.readouterr().out

    head, key = ({"summary": summary}, "bins") if summary else ({"schema": "qbattery.probe.v1"}, "rows")
    doc = {**head, key: [dict(zip(rows.dtype.names, row)) for row in rows.tolist()]}
    assert emit("json") == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    text = emit("csv")
    if to_file:
        assert not summary or (tmp_path / "table.summary.json").read_text() == sidecar
    else:
        assert text.endswith(sidecar)
        text = text[: len(text) - len(sidecar)]
    fh = io.StringIO(text, newline="")
    assert fh.readline() == "# schema=qbattery.probe.v1\n"
    header, *cells = csv.reader(fh)
    assert header == list(_CELLS) and len(cells) == len(rows)
    for key, column in zip(header, zip(*cells)):
        parsed = np.array([int(cell) if key == "count" else float(cell) for cell in column], dtype=rows.dtype[key])
        assert np.array_equal(parsed.view(np.int64), rows[key].view(np.int64)), key


def test_a_json_sweep_peak_memory_is_its_csv_peak(tmp_path):
    """A 2,000-alpha x 20-eps TPM sweep (40,000 rows) written as JSON peaks within 1.2 times its CSV run: the rows
    stream from the table in chunks instead of becoming one list of dicts and one rendered document."""
    grid = {"alpha_grid": np.linspace(0.0, 1.0, 2000).tolist(), "eps_grid": np.linspace(0.0, 1.0, 20).tolist()}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"protocol": "tpm", "parameters": grid}))
    peaks = {}
    for fmt in ("csv", "json"):
        tracemalloc.start()
        try:
            assert main(["sweep", "--config", str(config), "--format", fmt, "--out", str(tmp_path / fmt)]) == 0
            peaks[fmt] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["json"] <= 1.2 * peaks["csv"], peaks


def test_cli_histogram_requires_seed(capsys):
    assert main(["histogram", "--n", "100"]) == 1
    assert "seed" in capsys.readouterr().err


def test_cli_missing_config_file(capsys):
    assert main(["variance", "--config", "/nonexistent/path.json"]) == 1


def test_cli_bad_config_key(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"protocl": "variance"}))
    assert main(["variance", "--config", str(config)]) == 1
    assert "protocl" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, key",
    [
        (["tpm", "--eps", "1.5"], "parameters.eps"),
        (["tpm", "--eps", "-0.5", "--seed", "1", "--n", "100"], "parameters.eps"),
        (["histogram", "--seed", "1", "--n", "100", "--bin-width", "inf"], "parameters.bin_width"),
        (["witness", "--alpha", "1.2"], "state.thermal_mixture.alpha"),
        (["coincidence", "--eps", "-0.1"], "parameters.eps"),
        (["variance", "--seed", "1", "--n", "2"], "sampling.n_unitaries"),
        (["tpm", "--seed", "1", "--n", "2"], "sampling.n_unitaries"),
        (["histogram", "--seed", "1", "--n", "100", "--bin-width", "1e-12"], "parameters.bin_width"),
        (["verify", "--n", "2"], "sampling.n_unitaries"),
        (["verify", "--d", "1"], "parameters.d"),
        (["verify", "--d", "17"], "parameters.d"),  # rejected before any allocation
        (["variance", "--seed", "-1", "--n", "10"], "sampling.seed"),
        (["verify", "--seed", "-1"], "sampling.seed"),
        (["histogram", "--seed", str(2**64), "--n", "10"], "sampling.seed"),
    ],
)
def test_cli_out_of_range_flag_is_a_config_error(args, key):
    src = os.path.dirname(os.path.dirname(qbattery.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "qbattery.cli", *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"configuration error: {key}:")
    assert "Traceback" not in proc.stderr


_ZERO2 = [[[0.0, 0.0]] * 2] * 2
_Z_Z = [[[float(v), 0.0] for v in row] for row in np.diag([1, -1, -1, 1])]
_MIXED4 = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
_Z = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
_RAISING = [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]  # not Hermitian
_ISING_J1_X = {"ising": {"J1": "x", "J2": 1.0, "J3": 0.5, "b": 0.45}}
_ISING = {"J1": 0.5, "J2": 1.0, "J3": 0.5, "b": 0.45}


def _with(matrix, i, j, part, value):
    """A copy of an [re, im]-pair matrix with entry (i, j)'s real (part 0) or imaginary (part 1) number replaced."""
    copy = json.loads(json.dumps(matrix))
    copy[i][j][part] = value
    return copy


def _mixed16(i, j, part, value):
    """The maximally mixed state of the default d = 4 battery with one number replaced."""
    return _with([[[0.0625 if a == b else 0.0, 0.0] for b in range(16)] for a in range(16)], i, j, part, value)


@pytest.mark.parametrize(
    "command, config, key",
    [
        ("sweep", {"protocol": "variance", "parameters": {"b_grid": [0.45], "alpha_grid": [1.2]}}, "parameters.alpha_grid"),
        ("sweep", {"protocol": "tpm", "parameters": {"alpha_grid": [-0.5]}}, "parameters.alpha_grid"),
        (
            "sweep",
            {"protocol": "variance", "state": {"thermal_mixture": {"alpha": 0.5, "T": -1}}},
            "state.thermal_mixture.T",
        ),
        ("sweep", {"protocol": "tpm", "state": {"thermal_mixture": {"alpha": 0.5}}}, "state.thermal_mixture.T"),
        (
            "coincidence",
            {"battery": {"explicit": {"HA": _ZERO2, "HB": _ZERO2, "V": _Z_Z, "g": 1.0}}, "state": {"matrix": _MIXED4}},
            "battery",
        ),
        ("sweep", {"protocol": "variance", "parameters": {"b_grid": [0.45], "alpha_grid": ["x"]}}, "parameters.alpha_grid"),
        ("sweep", {"protocol": "variance", "parameters": {"alpha_grid": 0.5}}, "parameters.alpha_grid"),
        ("variance", {"sampling": {"seed": 1, "n_unitaries": "many"}}, "sampling.n_unitaries"),
        ("variance", {"sampling": {"seed": "s", "n_unitaries": 10}}, "sampling.seed"),
        ("verify", {"parameters": {"d": "two"}}, "parameters.d"),
        ("witness", {"battery": _ISING_J1_X}, "battery.ising.J1"),
        ("sweep", {"protocol": "variance", "battery": _ISING_J1_X}, "battery.ising.J1"),
        ("witness", {"battery": {"ising": 5}}, "battery.ising"),
        ("sweep", {"protocol": "variance", "battery": {"ising": 5}}, "battery.ising"),
        (
            "variance",
            {"battery": {"explicit": {"HA": _RAISING, "HB": _Z, "V": _Z_Z, "g": 1.0}}, "state": {"matrix": _MIXED4}},
            "battery.explicit",
        ),
        (
            "witness",  # the two halves' Gibbs spectra differ, so no thermal mixture exists
            {"battery": {"explicit": {"HA": _Z, "HB": [[[2.0 * x for x in e] for e in row] for row in _Z], "V": _Z_Z, "g": 1.0}}},
            "state",
        ),
        ("variance", {"sampling": {"seed": 1, "stream": -2, "n_unitaries": 10}}, "sampling.stream"),
        ("tpm", {"sampling": {"seed": 1, "stream": 2**64, "n_unitaries": 10}}, "sampling.stream"),
        ("verify", {"sampling": {"seed": -1}}, "sampling.seed"),
        ("variance", {"sampling": {"seed": 1, "streams": 2, "n_unitaries": 10}}, "sampling.streams"),
        ("tpm", {"parameters": {"epsilon": 0.3}}, "parameters.epsilon"),
        ("sweep", {"protocol": "tpm", "parameters": {"eps_grd": [0.3]}}, "parameters.eps_grd"),
        ("variance", {"sampling": {"seed": 3, "n": 50}}, "sampling.n"),
        (
            "witness",
            {"state": {"thermal_mixture": {"alpha": 0.5, "T": 1.5, "temperature": 2.0}}},
            "state.thermal_mixture.temperature",
        ),
        ("witness", {"battery": {"ising": {**_ISING, "J4": 1.0}}}, "battery.ising.J4"),
        ("sweep", {"protocol": "variance", "battery": {"ising": {**_ISING, "J4": 1.0}}}, "battery.ising.J4"),
        ("witness", {"battery": {"explicit": {"HA": _Z, "HB": _Z, "V": _Z_Z, "g": 1.0, "G": 2.0}}}, "battery.explicit.G"),
        ("witness", {"battery": {"ising": {**_ISING, "b": float("inf")}}}, "battery.ising.b"),
        ("sweep", {"protocol": "variance", "parameters": {"b_grid": [float("nan")]}}, "parameters.b_grid"),
        ("variance", {"sampling": {"seed": 1, "n_unitaries": 1000.7}}, "sampling.n_unitaries"),
        # n beyond Philox's 64-bit counter word, and values that are no JSON number
        ("variance", {"sampling": {"seed": 1, "n_unitaries": 10**30}}, "sampling.n_unitaries"),
        ("variance", {"sampling": {"seed": 1, "n_unitaries": 1e30}}, "sampling.n_unitaries"),
        ("variance", {"sampling": {"seed": True, "n_unitaries": 10}}, "sampling.seed"),
        ("variance", {"sampling": {"seed": 1, "n_unitaries": "10"}}, "sampling.n_unitaries"),
        ("witness", {"state": {"thermal_mixture": {"alpha": "0.5", "T": 1.5}}}, "state.thermal_mixture.alpha"),
        ("witness", {"state": {"thermal_mixture": {"alpha": 0.5, "T": "1.5"}}}, "state.thermal_mixture.T"),
        ("witness", {"battery": {"ising": {**_ISING, "b": False}}}, "battery.ising.b"),
        ("sweep", {"protocol": "tpm", "parameters": {"eps_grid": [True]}}, "parameters.eps_grid"),
        ("verify", {"parameters": {"d": 2.7}}, "parameters.d"),
        ("verify", {"parameters": {"se_multiplier": -1}}, "parameters.se_multiplier"),
        ("verify", {"parameters": {"se_multiplier": float("nan")}}, "parameters.se_multiplier"),
        ("witness", {"state": {"thermal_mixture": {"alpha": 0.5, "T": float("inf")}}}, "state.thermal_mixture.T"),
        ("sweep", {"protocol": "tpm", "sampling": {"mc": "false"}}, "sampling.mc"),
        ("tpm", {"sampling": {"mc": "false"}}, "sampling.mc"),
        (
            "sweep",
            {"protocol": "variance", "battery": {"ising": _ISING, "explicit": {"HA": _Z, "HB": _Z, "V": _Z_Z, "g": 1.0}}},
            "battery",
        ),
        (
            "sweep",
            {"protocol": "tpm", "state": {"thermal_mixture": {"alpha": 0.5, "T": 1.5}, "matrix": _MIXED4}},
            "state",
        ),
        # J1 != J3: the halves' Gibbs spectra differ, so no thermal mixture exists at any alpha
        ("sweep", {"protocol": "variance", "battery": {"ising": {**_ISING, "J1": 0.3}}}, "state"),
        ("sweep", {"protocol": "tpm", "battery": {"ising": {**_ISING, "J1": 0.3}}}, "state"),
        ("variance", [1, 2], "config"),
        ("variance", "x", "config"),
        ("variance", None, "config"),
        ("verify", {"parameters": {"n": 200}}, "parameters.n"),
        ("verify", {"sampling": {"stream": 5}}, "sampling.stream"),
        ("verify", {"parameters": {"eps": 0.3}}, "parameters.eps"),
        # keys a run does not read
        ("coincidence", {"parameters": {"eps_a": 0.3}}, "parameters.eps_a"),
        ("verify", {"battery": {"ising": {"J1": "x"}}, "state": {"matrix": 5}}, "battery"),
        ("witness", {"sampling": {"seed": 3, "n_unitaries": 50}}, "sampling.seed"),
        ("variance", {"protocol": "tpm"}, "protocol"),
        ("sweep", {"parameters": {"eps": 0.3}}, "parameters.eps"),
        ("sweep", {"sampling": {"seed": 3}}, "sampling.seed"),
        ("histogram", {"sampling": {"mc": True, "seed": 1, "n_unitaries": 10}}, "sampling.mc"),
        ("sweep", {"protocol": "witness"}, "protocol"),
        # matrix entries are config numbers too: no string, bool, NaN or float-overflowing integer
        ("variance", {"state": {"matrix": _mixed16(0, 0, 0, "0.0625")}}, "state.matrix"),
        ("variance", {"state": {"matrix": _mixed16(1, 1, 1, False)}}, "state.matrix"),
        ("variance", {"state": {"matrix": _mixed16(0, 0, 0, 10**400)}}, "state.matrix"),
        ("variance", {"state": {"matrix": _mixed16(0, 0, 0, "x")}}, "state.matrix"),
        ("variance", {"state": {"matrix": _mixed16(2, 3, 1, 10**399)}}, "state.matrix"),
        (
            "witness",
            {"battery": {"explicit": {"HA": _Z, "HB": _Z, "V": _with(_Z_Z, 0, 0, 0, float("nan")), "g": 1.0}}},
            "battery.explicit.V",
        ),
        (
            "witness",
            {"battery": {"explicit": {"HA": _with(_Z, 1, 0, 1, True), "HB": _Z, "V": _Z_Z, "g": 1.0}}},
            "battery.explicit.HA",
        ),
    ],
)
def test_cli_config_file_out_of_range_is_a_config_error(tmp_path, command, config, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    src = os.path.dirname(os.path.dirname(qbattery.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "qbattery.cli", command, "--config", str(path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"configuration error: {key}:")
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


@pytest.mark.parametrize(
    "args, config, key",
    [
        (["witness", "--alpha", "0.5"], {"state": {"thermal_mixture": 5}}, "state.thermal_mixture"),
        (["witness", "--b", "0.3"], {"battery": {"ising": 5}}, "battery.ising"),
        (
            ["witness", "--alpha", "0.5"],
            {"state": {"thermal_mixture": {"alpha": 0.9, "T": 1.5}, "matrix": _MIXED4}},
            "state",
        ),
    ],
)
def test_cli_flag_override_of_a_malformed_family_is_a_config_error(tmp_path, args, config, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    src = os.path.dirname(os.path.dirname(qbattery.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "qbattery.cli", *args, "--config", str(path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"configuration error: {key}:")
    assert "Traceback" not in proc.stderr


_STATE9 = [[[1.0 / 9 if i == j else 0.0, 0.0] for j in range(9)] for i in range(9)]


@pytest.mark.parametrize(
    "args, config, key",
    [
        # b * (Z1 + Z2) overflows to inf at b = 1e308, the weight ha2 at b = 1e200, g^2 v2 at J2 = 1e200
        (["variance", "--b", "1e308"], {}, "battery.ising"),
        (["variance", "--b", "1e200"], {}, "battery.ising"),
        (["variance"], {"battery": {"ising": {**_ISING, "J2": 1e200}}}, "battery.ising"),
        (["tpm"], {"battery": {"ising": {**_ISING, "J2": 1e200}}}, "battery.ising"),
        (["sweep"], {"parameters": {"b_grid": [0.0, 1e308]}}, "parameters.b_grid"),
        (["sweep"], {"battery": {"ising": {"J1": 0.5, "J2": 1e200, "J3": 0.5}}}, "battery.ising"),
        # a 9 x 9 state on the d = 4 default battery
        (["variance", "--seed", "1", "--n", "10"], {"state": {"matrix": _STATE9}}, "state.matrix"),
        (["witness"], {"state": {"matrix": _STATE9}}, "state.matrix"),
        (["coincidence", "--seed", "1", "--n", "10"], {"state": {"matrix": _STATE9}}, "state.matrix"),
        (["histogram", "--seed", "1", "--n", "10"], {"state": {"matrix": _STATE9}}, "state.matrix"),
    ],
)
def test_an_overflowing_battery_or_a_wrong_sized_state_is_a_one_line_config_error(tmp_path, args, config, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    src = os.path.dirname(os.path.dirname(qbattery.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "qbattery.cli", *args, "--config", str(path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"configuration error: {key}:")
    assert len(proc.stderr.splitlines()) == 1


def _thermal(alpha, temperature):
    return {"state": {"thermal_mixture": {"alpha": alpha, "T": temperature}}}


def _default_taus():
    h = ising_battery(0.5, 1.0, 0.5, 0.45)
    return gibbs_state(h.ha, 1.5), gibbs_state(h.hb, 1.5)


@pytest.mark.parametrize(
    "inputs, library_call",
    [
        (
            [
                (["witness", "--alpha", "1.2"], {}, "state.thermal_mixture.alpha"),
                (["variance"], _thermal(1.2, 1.5), "state.thermal_mixture.alpha"),
                (["sweep"], {"parameters": {"alpha_grid": [0.5, 1.2]}}, "parameters.alpha_grid"),
                (["sweep"], {"protocol": "tpm", "parameters": {"alpha_grid": [1.2]}}, "parameters.alpha_grid"),
            ],
            lambda: thermal_mixture_stack([1.2], *_default_taus()),
        ),
        (
            [
                (["tpm"], _thermal(0.5, 0.0), "state.thermal_mixture.T"),
                (["sweep"], _thermal(0.5, 0.0), "state.thermal_mixture.T"),
                (["sweep"], {"protocol": "tpm", **_thermal(0.5, 0.0)}, "state.thermal_mixture.T"),
            ],
            lambda: gibbs_state(np.eye(4), 0.0),
        ),
        (
            [
                (["variance", "--seed", "1", "--n", "10"], {"state": {"matrix": _STATE9}}, "state.matrix"),
                (["witness"], {"state": {"matrix": _STATE9}}, "state.matrix"),
                (["coincidence", "--seed", "1", "--n", "10"], {"state": {"matrix": _STATE9}}, "state.matrix"),
            ],
            lambda: mc_work_statistics(np.eye(9) / 9, ising_battery(0.5, 1.0, 0.5, 0.45), 10, SamplerConfig(seed=1)),
        ),
    ],
    ids=["alpha", "T", "state_dimension"],
)
def test_an_input_rule_gives_one_message_through_every_key(tmp_path, capsys, inputs, library_call):
    """A point run, both sweeps and the library refuse an out-of-range alpha (or T, or a wrongly sized state) alike; only the key path differs."""
    messages = set()
    path = tmp_path / "cfg.json"
    for args, config, key in inputs:
        path.write_text(json.dumps(config))
        assert main([*args, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {key}: ") and err.count("\n") == 1
        messages.add(err.removeprefix(f"configuration error: {key}: ").rstrip("\n"))
    with pytest.raises(ValueError) as info:
        library_call()
    messages.add(str(info.value))
    assert len(messages) == 1, messages


def test_a_non_finite_result_is_refused_before_any_byte_is_written(tmp_path, capsys):
    """ha2 = hb2 ~ 3.2e307 are finite weights, but the variance at b = 4e153 overflows; at 3e153 it is 7.2e306."""
    out = tmp_path / "out"
    assert main(["variance", "--b", "4e153", "--alpha", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: battery: ") and err.count("\n") == 1
    assert not out.exists()
    assert main(["variance", "--b", "3e153", "--alpha", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["variance"] == pytest.approx(7.2e306, rel=1e-12)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"parameters": {"b_grid": [0.45, 4e153], "alpha_grid": [1.0]}}))
    # the histogram's bins are finite at bins of 1e150, its summary is not: neither the CSV nor its sidecar is written
    histogram = ["histogram", "--b", "4e153", "--alpha", "1", "--seed", "1", "--n", "100", "--bin-width", "1e150"]
    for args in (["sweep", "--config", str(config)], histogram):
        for fmt in ("csv", "json"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # the overflow is refused, not warned about
                assert main([*args, "--format", fmt, "--out", str(out)]) == 1
            assert capsys.readouterr().err.startswith("configuration error: battery: ")
            assert not out.exists() and not (tmp_path / "out.summary.json").exists()


@pytest.mark.parametrize("n", [100, 5000])
@pytest.mark.parametrize("run", [["variance"], ["tpm"], ["histogram", "--bin-width", "1e150"]], ids=lambda run: run[0])
def test_an_overflowing_monte_carlo_moment_is_refused_in_one_line(tmp_path, capsys, run, n):
    """At b = 1e153 the work values are finite but their moments are not: M2^2 in the variance SE at n = 100, and
    the merge of a second chunk (4,096 pairs at d = 4) at n = 5,000.  No warning, no traceback, no file."""
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*run, "--b", "1e153", "--seed", "1", "--n", str(n), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: battery: a result is not finite") and err.count("\n") == 1
    assert not out.exists() and not (tmp_path / "out.summary.json").exists()


@pytest.mark.parametrize(
    "run, config",
    [
        (["witness", "--b", "4e153", "--alpha", "1"], None),
        (["tpm", "--b", "4e153", "--alpha", "1"], None),
        (["sweep"], {"parameters": {"b_grid": [4e153], "alpha_grid": [1.0]}}),
        (["sweep", "--b", "4e153"], {"protocol": "tpm", "parameters": {"alpha_grid": [1.0]}}),
    ],
    ids=["witness", "tpm", "variance_sweep", "tpm_sweep"],
)
def test_an_overflowing_closed_form_is_refused_in_one_line(tmp_path, capsys, run, config):
    """At b = 4e153 the variance's sum overflows, and the witness reads inf - inf from it and the TPM variance
    inf * 0.  No warning, no traceback, no file: the one-line refusal at ``battery``."""
    out = tmp_path / "out"
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        run = [*run, "--config", str(tmp_path / "config.json")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*run, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: battery: a result is not finite") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("run", ["variance", "tpm"])
def test_a_point_runs_monte_carlo_report_is_its_work_statistics(run):
    out = run_point(ExperimentConfig.from_dict({"protocol": run, "sampling": {"seed": 3, "n_unitaries": 300}}))
    h = ising_battery(0.5, 1.0, 0.5, 0.45)
    rho = thermal_mixture_state(0.96, gibbs_state(h.ha, 1.5), gibbs_state(h.hb, 1.5))
    sampler = SamplerConfig(seed=3)
    if run == "variance":
        stats = mc_work_statistics(rho, h, 300, sampler)
    else:
        stats = mc_tpm_statistics(rho, spectral_decomposition(h), 1.0, 1.0, 300, sampler)
    assert out["mc"] == asdict(stats)


def test_cli_verify_passes_and_is_deterministic(capsys):
    args = ["verify", "--n", "1500", "--seed", "99"]
    assert main(args) == 0
    first = capsys.readouterr().out
    report = json.loads(first)
    assert report["passed"] and all(c["passed"] for c in report["checks"])
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_cli_verify_passes_at_d_8(capsys):
    assert main(["verify", "--d", "8", "--n", "300", "--seed", "99"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["d"] == 8 and all(c["passed"] for c in report["checks"])


def _twirl2_without_swap(x):
    dim2 = len(x)
    dim = int(round(np.sqrt(dim2)))
    return (np.trace(x) - np.trace(swap_operator(dim) @ x) / dim) * np.eye(dim2) / (dim2 - 1)


@pytest.mark.parametrize(
    "name, wrong, check",
    [
        ("twirl1", lambda x: twirl1(x) / len(x) ** 2, "single_copy_twirl_vs_mc"),
        ("twirl2", _twirl2_without_swap, "two_copy_twirl_vs_mc"),
    ],
)
def test_cli_verify_catches_a_wrong_twirl(monkeypatch, capsys, name, wrong, check):
    monkeypatch.setattr(f"qbattery.runner.{name}", wrong)
    assert main(["verify", "--d", "2"]) == 2
    report = json.loads(capsys.readouterr().out)
    failed = [c for c in report["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == [check]
    assert all(c["deviation"] > c["threshold"] == 5.0 for c in failed)
    assert "se_multiplier" not in report


def test_cli_coincidence_point(capsys):
    assert main(["coincidence", "--alpha", "0.7", "--eps", "0.6"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["slack"] >= -1e-12
    assert 0 <= out["cbar_closed"] <= 1


def test_cli_histogram_json(tmp_path):
    out = tmp_path / "hist.json"
    assert (
        main(
            [
                "histogram",
                "--alpha",
                "0.96",
                "--b",
                "0.45",
                "--seed",
                "7",
                "--n",
                "1000",
                "--bin-width",
                "0.1",
                "--format",
                "json",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    payload = json.loads(out.read_text())
    assert sum(b["count"] for b in payload["bins"]) == 1000
    assert payload["summary"]["n_samples"] == 1000


@pytest.mark.parametrize(
    "args",
    [
        ["sweep"],
        ["sweep", "--format", "json"],
        ["variance", "--format", "json"],
        ["histogram", "--seed", "1", "--n", "10"],
        ["histogram", "--seed", "1", "--n", "10", "--format", "json"],
        ["verify", "--d", "2", "--n", "10", "--seed", "1"],
    ],
)
@pytest.mark.parametrize("target", ["missing_directory", "directory"])
def test_cli_unwritable_out_is_a_one_line_error(tmp_path, capsys, args, target):
    out = tmp_path / "missing" / "out.txt" if target == "missing_directory" else tmp_path
    assert main([*args, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"configuration error: --out: cannot write {out}: ")


@pytest.mark.parametrize("run", ["variance", "witness", "tpm", "coincidence", "verify"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_format_on_a_json_only_run_is_a_one_line_error(capsys, run, fmt):
    assert main([run, "--format", fmt]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"configuration error: --format: {run} writes JSON only\n"


def test_cli_unwritable_histogram_summary_is_a_one_line_error(tmp_path, capsys):
    out = tmp_path / "hist.csv"
    summary = tmp_path / "hist.csv.summary.json"
    summary.mkdir()
    assert main(["histogram", "--seed", "1", "--n", "10", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"configuration error: --out: cannot write {summary}: ")
    assert not out.exists()  # refused before the run, so no CSV either


def test_cli_unreadable_config_path_is_a_one_line_error(tmp_path, capsys):
    assert main(["variance", "--config", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"configuration error: config: cannot read {tmp_path}: Is a directory"]


@pytest.mark.parametrize(
    "args, command, detail",
    [
        (["variance", "--foo"], "qbattery", "unrecognized arguments: --foo"),
        (["sweep", "--mc"], "qbattery", "unrecognized arguments: --mc"),
        (["histogram", "--n", "abc"], "qbattery histogram", "argument --n: invalid number value: 'abc'"),
        # a flag the run does not read is refused before --format is looked at
        (
            ["sweep", "--alpha", "0.3", "--format", "json"],
            "--alpha",
            "variance sweep does not read state.thermal_mixture.alpha; a sweep scans parameters.alpha_grid",
        ),
        (["sweep", "--n", "10", "--format", "json"], "--n", "variance sweep does not read sampling.n_unitaries"),
        ([], "qbattery", "the following arguments are required: command"),
    ],
)
def test_cli_usage_error_is_a_one_line_configuration_error(capsys, args, command, detail):
    assert main(args) == 1  # not argparse's 2, the code of a failed verification
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"configuration error: {command}: {detail}"]


@pytest.mark.parametrize("args", [["--help"], ["sweep", "--help"]])
def test_cli_help_exits_0(capsys, args):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: qbattery")


def test_cli_subnormal_bin_width_is_refused_without_a_numpy_warning(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["histogram", "--seed", "1", "--n", "10", "--bin-width", "5e-324"]) == 1
    assert capsys.readouterr().err.startswith("configuration error: parameters.bin_width:")


@pytest.mark.parametrize(
    "args, runner",
    [
        (["histogram", "--seed", "1", "--n", "1000000"], "run_histogram"),
        (["sweep"], "run_variance_sweep"),
        (["verify", "--d", "2"], "run_verify"),
        (["tpm", "--seed", "1", "--n", "1000000"], "run_point"),
    ],
)
def test_cli_unwritable_out_fails_before_the_run(tmp_path, capsys, monkeypatch, args, runner):
    def must_not_run(cfg):
        raise AssertionError(f"{runner} ran before --out was checked")

    monkeypatch.setattr(f"qbattery.cli.{runner}", must_not_run)
    out = tmp_path / "missing" / "x.csv"
    assert main([*args, "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"configuration error: --out: cannot write {out}: No such file or directory"
    ]


def test_cli_out_check_leaves_no_file_and_keeps_an_existing_one(tmp_path, capsys):
    fresh = tmp_path / "fresh.csv"
    assert main(["sweep", "--alpha", "0.3", "--out", str(fresh)]) == 1
    assert not fresh.exists()
    kept = tmp_path / "kept.csv"
    kept.write_text("earlier result\n")
    assert main(["sweep", "--alpha", "0.3", "--out", str(kept)]) == 1
    assert kept.read_text() == "earlier result\n"


_COMMANDS = build_parser()._subparsers._group_actions[0].choices


@pytest.mark.parametrize("command", _COMMANDS)
def test_cli_every_flag_of_a_subcommand_sets_a_config_key(command):
    """Besides -h, --config, --out and --format, a subcommand has exactly the flags of CONFIG_KEYS (so no --mc)."""
    flags = {flag for _, flag, _ in CONFIG_KEYS.values() if flag}
    assert set(_COMMANDS[command]._option_string_actions) == flags | {"-h", "--help", "--config", "--out", "--format"}


# A valid value for every config key, small enough that each run takes well under a second.
_VALUES = {
    "battery": {"ising": _ISING},
    "state": {"thermal_mixture": {"alpha": 0.5, "T": 1.5}},
    "state.thermal_mixture.alpha": 0.5,
    "battery.ising.b": 0.3,
    "parameters.eps": 0.5,
    "parameters.eps_a": 0.5,
    "parameters.eps_b": 0.5,
    "parameters.eps_grid": [0.5],
    "parameters.alpha_grid": [0.5],
    "parameters.b_grid": [0.3],
    "parameters.bin_width": 0.1,
    "parameters.d": 2,
    "sampling.seed": 1,
    "sampling.n_unitaries": 10,
}
# Keys no run reads any more, each with a value that a run once took; every run refuses them at their path.
_REMOVED_KEYS = {"parameters.se_multiplier": 5.0, "sampling.mc": True, "sampling.stream": 0}
_VALUES.update(_REMOVED_KEYS)
# Keys a config file can hold; battery.ising.b and state.thermal_mixture.alpha sit inside their sections.
_FILE_KEYS = [key for key in CONFIG_KEYS if key.count(".") <= 1]


def _run_args(tmp_path, run, keys=()):
    """CLI args for ``run`` on a config that sets ``keys``, plus the small grids, seed and n the run reads."""
    protocol, _, sweep = run.partition(" ")
    small = ("parameters.alpha_grid", "parameters.b_grid", "parameters.eps_grid", "sampling.seed", "sampling.n_unitaries")
    config = {"protocol": protocol} if sweep else {}
    for key in [*(k for k in small if run in CONFIG_KEYS[k][0]), *keys]:
        section, _, name = key.partition(".")
        if name:
            config.setdefault(section, {})[name] = _VALUES[key]
        else:
            config[section] = _VALUES[key]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    return ["sweep" if sweep else run, "--config", str(path)]


def _ran(code, run):
    return code in (0, 2) if run == "verify" else code == 0  # verify at n = 10 may miss its 5-SE gate: exit 2


_FLAG_KEYS = {flag[2:].replace("-", "_"): key for key, (_, flag, _) in CONFIG_KEYS.items() if flag}


@pytest.mark.parametrize("run, dest", [(run, dest) for dest, key in _FLAG_KEYS.items() for run in CONFIG_KEYS[key][0]])
def test_cli_every_flag_a_run_reads_is_accepted(tmp_path, capsys, run, dest):
    key = _FLAG_KEYS[dest]
    code = main(_run_args(tmp_path, run) + [CONFIG_KEYS[key][1], str(_VALUES[key])])
    assert "configuration error" not in capsys.readouterr().err
    assert _ran(code, run)


_RUNS = list(dict.fromkeys(run for runs, _, _ in CONFIG_KEYS.values() for run in runs))


@pytest.mark.parametrize(
    "run, key", [(run, key) for key, (runs, flag, _) in CONFIG_KEYS.items() if flag for run in _RUNS if run not in runs]
)
def test_cli_every_flag_a_run_does_not_read_is_refused(tmp_path, capsys, run, key):
    _, flag, grid = CONFIG_KEYS[key]
    assert main(_run_args(tmp_path, run) + [flag, str(_VALUES[key])]) == 1
    scans = f"; a sweep scans {grid}" if run.endswith(" sweep") and grid else ""
    assert capsys.readouterr().err.splitlines() == [f"configuration error: {flag}: {run} does not read {key}{scans}"]


@pytest.mark.parametrize(
    "run, flags, config, code",
    [
        ("variance", ["--seed", "1", "--n", "2.5"], {"sampling": {"seed": 1, "n_unitaries": 2.5}}, 1),
        ("verify", ["--d", "2.5"], {"parameters": {"d": 2.5}}, 1),
        ("variance", ["--seed", "1.5", "--n", "100"], {"sampling": {"seed": 1.5, "n_unitaries": 100}}, 1),
        ("variance", ["--seed", "1.0", "--n", "1e3"], {"sampling": {"seed": 1.0, "n_unitaries": 1e3}}, 0),
    ],
)
def test_cli_a_flag_and_its_config_key_follow_one_number_rule(tmp_path, capsys, run, flags, config, code):
    """A flag is the number its text spells, and its key's rule decides, so flag and config give the same bytes."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    outputs = []
    for args in ([run, *flags], [run, "--config", str(path)]):
        assert main(args) == code
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert len(outputs[0].err.splitlines()) == code  # one stderr line on a refusal, none on a run


@pytest.mark.parametrize("run", _RUNS)
@pytest.mark.parametrize("key", [*_FILE_KEYS, *_REMOVED_KEYS])
def test_cli_config_key_is_read_or_refused_by_each_run(tmp_path, capsys, key, run):
    code = main(_run_args(tmp_path, run, [key]))
    err = capsys.readouterr().err.splitlines()
    if key in CONFIG_KEYS and run in CONFIG_KEYS[key][0]:
        assert err == [] and _ran(code, run)
    else:
        assert code == 1
        assert len(err) == 1 and err[0].startswith(f"configuration error: {key}:")


def test_readme_flag_table_is_the_override_table():
    """README's config-key table is CONFIG_KEYS: key, runs that read it, flag, grid a sweep scans instead."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        rows = [line for line in fh.read().splitlines() if line.startswith("| `")]

    def cell(*names):
        return ", ".join(f"`{name}`" for name in names if name) or "none"

    keys = CONFIG_KEYS.items()
    assert rows == [f"| `{key}` | {cell(*runs)} | {cell(flag)} | {cell(grid)} |" for key, (runs, flag, grid) in keys]


def test_cli_tpm_sweep_takes_the_field_override(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"protocol": "tpm", "parameters": {"alpha_grid": [0.5], "eps_grid": [0.5]}}))
    assert main(["sweep", "--config", str(config), "--b", "0.3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = list(csv.DictReader(lines[1:]))
    assert [r["b"] for r in rows] == ["0.3"]
    h = ising_battery(0.5, 1.0, 0.5, 0.3)
    spec = qbattery.spectral_decomposition(h)
    rho = thermal_mixture_state(0.5, gibbs_state(h.ha, 1.5), gibbs_state(h.hb, 1.5))
    assert float(rows[0]["var_tpm"]) == qbattery.tpm_variance_closed_form(rho, spec, 0.5, 0.5).var_tpm


def test_cli_closed_stdout_pipe_ends_without_a_traceback():
    src = os.path.dirname(os.path.dirname(qbattery.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "qbattery.cli", "sweep"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    )
    proc.stdout.close()  # the reader is gone before the first row, as after `| head -1`
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == b""
