"""Command-line runner: configs, reports, artifacts, exit codes."""
from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from rdlab import cli, covlab, fields
from rdlab.cli import main
from rdlab.config import ConfigError, get_bool, get_floats, get_int, parse_config
from rdlab.report import format_value


def run(tmp_path, command, config_text=None, seed=None):
    tmp_path.mkdir(parents=True, exist_ok=True)
    argv = [command, "--out", str(tmp_path)]
    if config_text is not None:
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(config_text)
        argv += ["--config", str(cfg)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    code = main(argv)
    report_path = tmp_path / f"{command}.report.json"
    report = json.loads(report_path.read_text()) if report_path.exists() else None
    return code, report


# ---------------------------------------------------------------------------
# config parsing and invariants


def test_parse_config_roundtrip_and_errors():
    cfg = parse_config("# grid\ngrid.n = 32\n\npacket.p0 = 0.1, 0.2, -0.3\nflag = true\n")
    assert list(cfg) == ["grid.n", "packet.p0", "flag"]
    assert get_int(cfg, "grid.n") == 32
    assert get_floats(cfg, "packet.p0") == (0.1, 0.2, -0.3)
    assert get_bool(cfg, "flag") is True
    assert get_int(cfg, "absent", 7) == 7
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("a = 1\na = 2\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config("just some words\n")
    with pytest.raises(ConfigError, match="malformed key"):
        parse_config("bad key! = 1\n")
    with pytest.raises(ConfigError):
        get_floats(cfg, "flag")


def test_invariant_lattice_size_rejected(tmp_path, capsys):
    code, report = run(tmp_path, "position", "grid.n = 48\n")
    assert code == 2 and report is None
    assert "power of two" in capsys.readouterr().err


def test_invariant_band_hygiene_rejected(tmp_path, capsys):
    code, _ = run(tmp_path, "continuity", "packet.sigma = 2.0\n")
    assert code == 2
    assert "20" in capsys.readouterr().err


def test_invariant_positive_tolerances_rejected(tmp_path, capsys):
    code, _ = run(tmp_path, "algebra-check", "tolerances.spinor = 0\n")
    assert code == 2
    assert "positive" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    code = main(["algebra-check", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)])
    assert code == 2


def test_seed_must_fit_u64():
    with pytest.raises(SystemExit):
        main(["algebra-check", "--seed", "-1", "--out", "/tmp"])


# ---------------------------------------------------------------------------
# algebra-check


def test_algebra_check_report_contract(tmp_path):
    code, report = run(tmp_path, "algebra-check", seed=3)
    assert code == 0
    assert report["command"] == "algebra-check"
    assert report["seed"] == 3
    assert report["passed"] is True
    assert report["artifact_version"]
    assert report["runtime_seconds"] > 0
    names = [c["name"] for c in report["checks"]]
    anticomm = [n for n in names if n.startswith("anticommutator[")]
    assert len(anticomm) == 16
    for chk in report["checks"]:
        assert set(chk) >= {"name", "value", "passed", "tolerance"}
        assert chk["passed"] is True
    # exact identities carry no tolerance; randomized suites do
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["anticommutator[0][0]"]["tolerance"] is None
    assert by_name["spinor_eigen_residual"]["tolerance"] == 1e-12


def test_algebra_negative_control_names_the_failure(tmp_path):
    code, report = run(
        tmp_path, "algebra-check",
        "algebra.negative_control = true\nspinors.samples = 20\nboosts.samples = 5\n",
    )
    assert code == 1
    assert report["passed"] is False
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert "anticommutator[1][1]" in failed
    assert all(name.startswith("anticommutator[") for name in failed)
    assert any("corrupted" in w for w in report["warnings"])


def test_algebra_determinism_modulo_runtime(tmp_path):
    fast = "spinors.samples = 40\nboosts.samples = 8\n"
    _, a = run(tmp_path / "a", "algebra-check", fast, seed=11)
    _, b = run(tmp_path / "b", "algebra-check", fast, seed=11)
    a.pop("runtime_seconds")
    b.pop("runtime_seconds")
    assert a == b


# ---------------------------------------------------------------------------
# locality


LOCALITY_QUICK = "locality.displacements = 0, 1, 2\nregulators.epsilon = 0.1, 0.05\n"


def test_locality_artifacts_and_checks(tmp_path):
    code, report = run(tmp_path, "locality", LOCALITY_QUICK + "tolerances.far_ratio = 0.01\n")
    assert code == 0
    assert report["config"]["regulators.epsilon"] == "0.1, 0.05"
    lines = (tmp_path / "locality.sweep.csv").read_text().splitlines()
    assert lines[0] == "displacement,epsilon,ratio"
    assert len(lines) == 1 + 3 * 2
    # full-precision cells round-trip to the report values
    far = report["results"]["far_ratios"]["0.05"]
    cells = [line.split(",") for line in lines[1:]]
    match = [float(c[2]) for c in cells if float(c[0]) == 2.0 and float(c[1]) == 0.05]
    assert match and match[0] == far
    names = {c["name"] for c in report["checks"]}
    assert "monotone_in_displacement" in names and "picture_agreement" in names
    assert "peak_oracle[eps=0.1]" in names


def test_locality_single_regulator_warns(tmp_path):
    code, report = run(
        tmp_path, "locality",
        "locality.displacements = 0, 1\nregulators.epsilon = 0.1\ntolerances.far_ratio = 0.5\n",
    )
    assert code == 0
    assert any("unassessable" in w for w in report["warnings"])


def test_locality_rejects_bad_sweeps(tmp_path, capsys):
    code, _ = run(tmp_path, "locality", "locality.displacements = 2, 1\n")
    assert code == 2
    code, _ = run(tmp_path, "locality", "regulators.epsilon = 0.1, -0.2\n")
    assert code == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# position


def test_position_coarse_grid_flags_spectral_floor(tmp_path):
    # a 16-node eigen lattice sits on the spectral floor; the packet suites
    # still run on the 64-node packet lattice
    code, report = run(tmp_path, "position", "grid.n = 64\neigen.n = 16\n")
    assert code == 1
    assert report["flags"]["spectral_floor"] is True
    assert "refinement_hint" in report["flags"]
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["eigen_residual_xp"]["value"] > 1e-6
    assert by_name["hermiticity"]["value"] is not None


# ---------------------------------------------------------------------------
# zitterbewegung


def test_zitterbewegung_rejects_few_samples(tmp_path, capsys):
    code, _ = run(tmp_path, "zitterbewegung", "times.samples = 8\n")
    assert code == 2
    assert "16 samples" in capsys.readouterr().err


ZITTER_QUICK = "times.T = 10\ntimes.samples = 16\npure.T = 4\npure.samples = 16\n"


def test_zitterbewegung_tables_and_checks(tmp_path):
    code, report = run(tmp_path, "zitterbewegung", ZITTER_QUICK)
    assert code == 0
    header = "t,xhat_x,xhat_y,xhat_z,xp_x,xp_y,xp_z,p_over_e_x,p_over_e_y,p_over_e_z"
    for table, rows in (("mixed", 16), ("pure", 16)):
        lines = (tmp_path / f"zitterbewegung.{table}.csv").read_text().splitlines()
        assert lines[0] == header
        assert len(lines) == 1 + rows
    ratio = report["results"]["frequency_over_two_mean_energy"]
    assert abs(ratio - 1.0) <= 0.05
    names = {c["name"] for c in report["checks"]}
    assert names == {
        "mixed_frequency_vs_two_mean_energy",
        "pure_coordinate_slope",
        "pure_branch_slope",
    }


@pytest.mark.parametrize("key", ["grid.n", "pure.n"])
def test_zitterbewegung_rejects_packets_failing_hygiene(tmp_path, capsys, key):
    # both packets are checked before any sampling: a config error, not a traceback
    code, report = run(tmp_path, "zitterbewegung", f"{key} = 16\n")
    assert code == 2 and report is None
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and key in err and "enlarge the box" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# continuity


def test_continuity_defaults_pass(tmp_path):
    code, report = run(tmp_path, "continuity")
    assert code == 0
    lines = (tmp_path / "continuity.refinement.csv").read_text().splitlines()
    assert lines[0] == "refinement_level,residual"
    residuals = [float(line.split(",")[1]) for line in lines[1:]]
    assert len(residuals) == 3
    assert residuals[0] > residuals[1] > residuals[2]
    assert report["results"]["nonlocality_fw"] > report["results"]["nonlocality_dirac"]
    by_name = {c["name"]: c for c in report["checks"]}
    assert "window" in by_name["dirac_dt_ratio[0]"]["note"]
    assert by_name["norm_drift"]["value"] <= 1e-12


def test_continuity_rejects_packets_failing_hygiene(tmp_path, capsys):
    # both packets are checked before any work: a config error, not a traceback
    code, report = run(tmp_path, "continuity", "grid.n = 16\n")
    assert code == 2 and report is None
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "grid.n, grid.pmax, packet.sigma, packet.p0" in err
    assert "Traceback" not in err


def test_continuity_coarse_dt_warns(tmp_path):
    code, report = run(tmp_path, "continuity", "times.dt = 0.5\ncontinuity.levels = 2\n")
    assert any("time step too coarse" in w for w in report["warnings"])


def test_continuity_fine_dt_warns(tmp_path):
    # the step is below the resolution of the phase: the centred difference is zero
    code, report = run(tmp_path, "continuity", "times.dt = 1e-300\ncontinuity.levels = 2\n")
    assert code == 1
    assert report["warnings"] == [f"level {i}: time step too fine for the density rate scale" for i in (0, 1)]


# ---------------------------------------------------------------------------
# covariance


def test_covariance_rotation_only(tmp_path, monkeypatch):
    formed = []  # (picture, field digest) of every coordinate density

    def counted(field):
        formed.append((field.rep, hashlib.sha256(field.values.tobytes()).hexdigest()))
        return density_of(field)

    density_of = cli.coordinate_density
    for module in (cli, covlab):
        monkeypatch.setattr(module, "coordinate_density", counted)
    code, report = run(tmp_path, "covariance", "boost.rapidity = 0\nrotation.quarter_turns = 2\n")
    assert code == 0
    # the rest and the rotated density of each picture, each formed once
    assert len(formed) == len(set(formed)) == 4
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["chi_zero_identity"]["value"] == 0.0
    assert by_name["rotation_consistency_dirac"]["value"] <= 1e-6
    assert by_name["rotation_consistency_fw"]["value"] <= 1e-6
    sweep = json.loads((tmp_path / "covariance.sweep.json").read_text())
    assert len(sweep) == 1
    assert sweep[0]["rapidity"] == 0.0
    assert sweep[0]["dirac_tv"] == sweep[0]["fw_tv"] == 0.0
    assert sweep[0]["grid"] == {"n": 64, "pmax": 8.0, "mass": 1.0}


def test_covariance_rejects_rapidity_beyond_the_band(tmp_path, capsys):
    # the reach of every rapidity is checked before any slice work starts
    code, report = run(tmp_path, "covariance", "boost.rapidity = 0.5, 2.5\n")
    assert code == 2 and report is None
    err = capsys.readouterr().err
    assert "boost.rapidity = 2.5" in err and "pmax" in err
    assert "Traceback" not in err


def test_covariance_rejects_packet_failing_hygiene(tmp_path, capsys):
    code, report = run(tmp_path, "covariance", "grid.n = 32\n")
    assert code == 2 and report is None
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "grid.n, grid.pmax, packet.sigma, packet.p0, packet.x0" in err
    assert "enlarge the box" in err and "Traceback" not in err


def test_covariance_rejects_bad_axes_and_rapidities(tmp_path, capsys):
    assert run(tmp_path, "covariance", "boost.axis = 3\n")[0] == 2
    assert run(tmp_path, "covariance", "boost.rapidity = 0.5, 0.1\n")[0] == 2
    capsys.readouterr()
    # a repeated rapidity would fail fw_violation_increasing by construction
    for rapidities in ("0.0, 0.0", "0.1, 0.5, 0.5"):
        assert run(tmp_path, "covariance", f"boost.rapidity = {rapidities}\n") == (2, None)
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "boost.rapidity" in err and "strictly increasing" in err


def test_covariance_fw_departure_holds_where_one_cube_cancels(tmp_path):
    # a packet whose FW departure on the contracted 99% capture cube was
    # 1.6e-4, below the 1e-3 budget: the worst region departs by far more
    code, report = run(tmp_path, "covariance", (
        "boost.rapidity = 0.0, 0.5\n"
        "packet.p0 = 0.404040, -0.010462, 0.092226\n"
        "packet.x0 = -0.204642, -0.149397, 0.079785\n"))
    assert code == 0
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["fw_box_departure"]["passed"] and by_name["fw_box_departure"]["value"] >= 1e-2
    assert by_name["box_invariance_dirac"]["value"] <= 1e-4


# ---------------------------------------------------------------------------
# one wiring path: config errors before any work, library errors as a check


CONFIG_ERRORS = [
    *[(command, "mass = 0\n", "mass = 0: must be positive") for command in (
        "algebra-check", "locality", "position", "zitterbewegung", "continuity", "covariance")],
    ("algebra-check", "mass = -1\n", "mass = -1: must be positive"),
    ("algebra-check", "spinors.pmax = -5\n", "spinors.pmax = -5: must be positive"),
    ("algebra-check", "boosts.samples = 0\n", "boosts.samples = 0"),
    ("locality", "regulators.epsilon = 0.001\nlocality.displacements = 0, 5\n",
     "regulators.epsilon, locality.displacements"),
    ("locality", "locality.spin = 0.3\n", "locality.spin: spin projection"),
    ("continuity", "continuity.ratio_window = 4.0\n", "continuity.ratio_window"),
    ("zitterbewegung", "times.T = 0\n", "times.T = 0: must be positive"),
    ("zitterbewegung", "times.T = -10\n", "times.T = -10: must be positive"),
    ("zitterbewegung", "pure.T = 0\n", "pure.T = 0: must be positive"),
    ("position", "grid.n = 16\n", "grid.n, grid.pmax, packet.sigma, packet.p0, packet.x0"),
    # a NaN or infinite number never reaches a check, where it could pass vacuously
    ("continuity", "packet.sigma = nan\n", "config key 'packet.sigma': expected a finite number"),
    ("covariance", "mass = inf\n", "config key 'mass': expected a finite number"),
    ("zitterbewegung", "packet.p0 = 0.3, nan, 0\n", "config key 'packet.p0': expected a finite number"),
    ("covariance", "boost.rapidity = 0, -inf\n", "config key 'boost.rapidity': expected a finite number"),
    ("locality", "locality.noise_floor = nan\n", "config key 'locality.noise_floor': expected a finite"),
    ("locality", "locality.noise_floor = inf\n", "config key 'locality.noise_floor': expected a finite"),
    ("locality", "locality.noise_floor = 1\n", "locality.noise_floor = 1: must lie in [0, 1)"),
]


@pytest.mark.parametrize("command, config, message", CONFIG_ERRORS)
def test_config_errors_exit_before_any_work(tmp_path, capsys, command, config, message):
    code, report = run(tmp_path, command, config)
    assert code == 2 and report is None
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
    assert "Traceback" not in err


# one library call each command makes, on a config small enough to reach it quickly
LIBRARY_ERRORS = {
    "algebra-check": ("fw_matrix", "spinors.samples = 4\nboosts.samples = 2\n"),
    "locality": ("locality_integral", LOCALITY_QUICK),
    "position": ("localized_eigen_residuals", "grid.n = 64\n"),
    "zitterbewegung": ("zitterbewegung_experiment", ZITTER_QUICK),
    "continuity": ("continuity_residuals", "continuity.levels = 2\n"),
    "covariance": ("covariance_sweep", "boost.rapidity = 0.5\n"),
}


@pytest.mark.parametrize("command", list(LIBRARY_ERRORS))
def test_library_error_is_a_failed_check(tmp_path, monkeypatch, command):
    name, config = LIBRARY_ERRORS[command]

    def boom(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(f"rdlab.cli.{name}", boom)
    code, report = run(tmp_path, command, config)
    assert code == 1
    assert report["passed"] is False
    completed = report["checks"][-1]
    assert completed["name"] == "completed" and completed["passed"] is False
    assert completed["value"] is None and completed["tolerance"] is None
    assert completed["note"] == "ValueError: boom"


# ---------------------------------------------------------------------------
# shared plumbing


def test_format_value_full_precision():
    x = 0.1 + 0.2
    assert float(format_value(x)) == x
    assert format_value(True) == "true"
    assert format_value(3) == "3"


def test_out_directory_is_created(tmp_path):
    out = tmp_path / "deep" / "nested"
    code = main(["algebra-check", "--out", str(out)])
    assert code == 0
    assert (out / "algebra-check.report.json").exists()
    assert not list(out.glob("*.tmp"))


# n = 64 is the smallest lattice whose packets pass hygiene for all three
THREAD_RUNS = {
    "zitterbewegung": (ZITTER_QUICK, ("mixed.csv", "pure.csv")),
    "continuity": (None, ("refinement.csv",)),
    "covariance": ("boost.rapidity = 0, 0.5\n", ("sweep.json",)),
}


@pytest.mark.parametrize("command", list(THREAD_RUNS))
def test_tables_identical_across_thread_counts(tmp_path, monkeypatch, command):
    config, tables = THREAD_RUNS[command]
    outputs = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("RDLAB_THREADS", threads)
        out = tmp_path / threads
        code, report = run(out, command, config)
        assert code == 0
        report.pop("runtime_seconds")
        outputs[threads] = (report, [(out / f"{command}.{t}").read_bytes() for t in tables])
    assert outputs["1"] == outputs["2"]


@pytest.mark.parametrize("value", ["0", "abc", "-1"])
def test_invalid_thread_count_exits_before_any_work(tmp_path, monkeypatch, capsys, value):
    # one parser serves the CLI and the library's FFT calls; -1 would read as "all cores"
    def untouched(*args, **kwargs):
        raise AssertionError("no work runs on an invalid RDLAB_THREADS")

    monkeypatch.setenv("RDLAB_THREADS", value)
    monkeypatch.setattr(cli, "gaussian_packet", untouched)
    code, report = run(tmp_path, "continuity", "grid.n = 32\ncontinuity.levels = 2\n")
    assert code == 2 and report is None
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "RDLAB_THREADS" in err and "packet" not in err
    with pytest.raises(ConfigError, match="RDLAB_THREADS"):
        fields._workers()
