"""Command-line runner: configs, reports, artifacts, exit codes."""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import peak_bytes

from rdlab import cli, covlab, fields
from rdlab.cli import main
from rdlab.config import ConfigError, get_bool, get_floats, get_int, load_config, parse_config
from rdlab.report import format_value, write_json


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
    report = strict_json(report_path.read_text()) if report_path.exists() else None
    return code, report


def strict_json(text):
    """json.loads that rejects the non-standard tokens NaN, Infinity and -Infinity."""
    def reject(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=reject)


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


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_bytes(b"mass = 1.0\n\xff\xfe spinors.samples = 4\n")
    with pytest.raises(ConfigError, match="not UTF-8"):
        load_config(str(cfg))
    code = main(["algebra-check", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2 and not (tmp_path / "algebra-check.report.json").exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "exp.cfg: not UTF-8" in err and "Traceback" not in err


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_check_value_fails_its_check(tmp_path):
    # the energies overflow at this momentum bound, so the randomized residuals are NaN: a
    # worst case that passed over them would read 0 and pass
    code, report = run(tmp_path, "algebra-check", "spinors.pmax = 1e300\n")
    assert code == 1
    # the report is strict JSON: each NaN value is written as the string "NaN"
    failed = {c["name"]: c["value"] for c in report["checks"] if not c["passed"]}
    assert "spinor_eigen_residual" in failed and "wigner_transport" in failed
    assert all(value == "NaN" for value in failed.values())


def test_json_artifacts_write_non_finite_floats_as_strings(tmp_path):
    path = tmp_path / "a.json"
    write_json(str(path), {"v": [float("nan"), np.inf, -np.inf, 0.5], "t": (np.float64(np.nan),)})
    assert strict_json(path.read_text()) == {"v": ["NaN", "Infinity", "-Infinity", 0.5], "t": ["NaN"]}


def test_algebra_determinism_modulo_runtime(tmp_path):
    fast = "spinors.samples = 40\nboosts.samples = 8\n"
    _, a = run(tmp_path / "a", "algebra-check", fast, seed=11)
    _, b = run(tmp_path / "b", "algebra-check", fast, seed=11)
    a.pop("runtime_seconds")
    b.pop("runtime_seconds")
    assert a == b


# ---------------------------------------------------------------------------
# locality


LOCALITY_QUICK = "locality.displacements = 0, 1, 2, 5\nregulators.epsilon = 0.1, 0.05\n"


def test_locality_artifacts_and_checks(tmp_path):
    code, report = run(tmp_path, "locality", LOCALITY_QUICK + "tolerances.far_ratio = 0.01\n")
    assert code == 0
    assert report["config"]["regulators.epsilon"] == "0.1, 0.05"
    lines = (tmp_path / "locality.sweep.csv").read_text().splitlines()
    assert lines[0] == "displacement,epsilon,ratio"
    assert len(lines) == 1 + 4 * 2
    # full-precision cells round-trip to the report values
    far = report["results"]["far_ratios"]["0.05"]
    cells = [[float(x) for x in line.split(",")] for line in lines[1:]]
    match = [c[2] for c in cells if c[0] == 5.0 and c[1] == 0.05]
    assert match and match[0] == far
    # every cell is the closed form: at d = 5, eps = 0.1 that is 7.19e-28, where a
    # quadrature read its rounding, 1.7e-17
    assert all(ratio == np.exp(-d * d / (4.0 * eps)) for d, eps, ratio in cells)
    assert [c[2] for c in cells if c[0] == 5.0 and c[1] == 0.1] == [np.exp(-62.5)]
    by_name = {c["name"]: c for c in report["checks"]}
    identity = by_name["localized_density_identity"]
    assert identity["tolerance"] == 1e-12 and identity["value"] <= 1e-15
    assert {"far_ratio[eps=0.1]", "far_ratio[eps=0.05]"} <= set(by_name)
    assert report["results"]["grids"]["locality"] == {"n": 32, "pmax": np.sqrt(37.0 / 0.05)}


def test_locality_identity_fails_without_spinor_normalization(tmp_path, monkeypatch):
    # drop the 1/sqrt(2m(E+m)) of the Dirac-picture localized state: m/E psi^dag psi != 1
    original = cli.localized_state

    def unnormalized(grid, mass, *args, **kwargs):
        f = original(grid, mass, *args, **kwargs)
        if f.rep != "dirac":
            return f
        e = grid.energies(mass)
        return replace(f, values=f.values * np.sqrt(2.0 * mass * (e + mass))[..., None])

    monkeypatch.setattr(cli, "localized_state", unnormalized)
    code, report = run(tmp_path, "locality", LOCALITY_QUICK)
    assert code == 1
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert failed == ["localized_density_identity"]


def test_locality_small_regulator_runs(tmp_path):
    # no lattice grows with the displacement: the old quadrature-reach bound is gone
    code, report = run(tmp_path, "locality", "regulators.epsilon = 0.001\nlocality.displacements = 0, 5\n")
    assert code == 0
    assert report["results"]["far_ratios"] == {"0.001": 0.0}  # e^{-6250} underflows


def test_unread_config_keys_are_warned(tmp_path, capsys):
    # a misspelt key, and a tolerance only the up-front parse of tolerances.* reads
    code, report = run(tmp_path, "locality", LOCALITY_QUICK + "locality.spn = 0.3\ntolerances.peak_oracle = 0.02\n")
    assert code == 0
    assert report["warnings"] == [
        "config key 'locality.spn' is not read by locality; it has no effect",
        "config key 'tolerances.peak_oracle' is not read by locality; it has no effect",
    ]
    out = capsys.readouterr().out
    assert out.count("[WARN]") == 2 and "'locality.spn'" in out and "'tolerances.peak_oracle'" in out


def test_read_config_keys_add_no_warning(tmp_path, capsys):
    config = LOCALITY_QUICK + "locality.spin = -0.5\ntolerances.far_ratio = 0.01\ntolerances.spinor = 1e-12\n"
    code, report = run(tmp_path, "locality", config)
    assert code == 0 and report["warnings"] == []
    assert "[WARN]" not in capsys.readouterr().out


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


def test_continuity_holds_one_field_and_the_fw_pair(tmp_path):
    # the pure packet is its FW particle pair (half a field) before the mixed packet is
    # built, and the FW stage is freed before the mixed one; holding both four-component
    # packets through the run would peak at 3.4 fields
    size = 64 * 64**3  # one (64, 64, 64, 4) complex field
    peak = peak_bytes(lambda: run(tmp_path, "continuity", "continuity.levels = 2\n"))
    assert peak <= 2.75 * size


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
    # the step is below the resolution of the phase, yet the centred rate has no rounding
    # floor: no warning, and the refinement fails only because both residuals sit at rounding
    code, report = run(tmp_path, "continuity", "times.dt = 1e-300\ncontinuity.levels = 2\n")
    assert code == 1
    assert report["warnings"] == []
    ratio = {c["name"]: c for c in report["checks"]}["dirac_dt_ratio[0]"]
    assert not ratio["passed"] and abs(ratio["value"] - 1.0) <= 1e-3


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
    sweep = strict_json((tmp_path / "covariance.sweep.json").read_text())
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
    ("locality", "locality.spin = 0.3\n", "locality.spin: spin projection"),
    ("continuity", "continuity.ratio_window = 4.0\n", "continuity.ratio_window"),
    ("zitterbewegung", "times.T = 0\n", "times.T = 0: must be positive"),
    ("zitterbewegung", "times.T = -10\n", "times.T = -10: must be positive"),
    ("zitterbewegung", "pure.T = 0\n", "pure.T = 0: must be positive"),
    # the mixed track cannot resolve 2<E> above its Nyquist frequency
    ("zitterbewegung", "times.T = 1e300\n", "times.T, times.samples: the Nyquist frequency"),
    # a mixed packet with an empty branch would normalise that branch's track from rounding
    ("zitterbewegung", "packet.mix = 0, 1\n", "packet.mix, times.T, times.samples: the +E branch"),
    ("position", "grid.n = 16\n", "grid.n, grid.pmax, packet.sigma, packet.p0, packet.x0"),
    # a NaN or infinite number never reaches a check, where it could pass vacuously
    ("continuity", "packet.sigma = nan\n", "config key 'packet.sigma': expected a finite number"),
    ("covariance", "mass = inf\n", "config key 'mass': expected a finite number"),
    ("zitterbewegung", "packet.p0 = 0.3, nan, 0\n", "config key 'packet.p0': expected a finite number"),
    ("covariance", "boost.rapidity = 0, -inf\n", "config key 'boost.rapidity': expected a finite number"),
    # a packet envelope that overflows on the lattice, or misses it, is a config error
    ("continuity", "mass = 1e300\n", "grid.n, grid.pmax, packet.sigma, packet.p0: packet normalisation nan"),
    ("zitterbewegung", "packet.p0 = 1e300, 0, 0\n", "packet.p0, packet.mix: packet normalisation 0 "),
    ("position", "mass = 1e-8\n", "packet.p0, packet.x0: packet normalisation 0 "),
    ("continuity", "packet.sigma = 1e200\n", "packet.sigma, packet.p0: packet normalisation 0 "),
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
    "locality": ("localized_state", LOCALITY_QUICK),
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


@pytest.mark.parametrize("below", ["", "sub"])
def test_out_that_cannot_be_a_directory_exits_before_any_work(tmp_path, monkeypatch, capsys, below):
    def untouched(*args, **kwargs):
        raise AssertionError("no work runs when --out cannot hold the report")

    monkeypatch.setattr(cli, "localized_state", untouched)
    blocker = tmp_path / "report.txt"
    blocker.write_text("kept\n")
    out = blocker / below if below else blocker
    code = main(["locality", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--out" in err and "Traceback" not in err
    assert blocker.read_text() == "kept\n" and sorted(tmp_path.iterdir()) == [blocker]


# locality at its defaults; n = 64 is the smallest lattice whose packets pass hygiene
# for the other four; zitterbewegung samples on min(threads, 2) lanes, so 3 threads
# give two lanes of one FFT worker each; position at n = 64 with an n = 32 eigen
# lattice, whose spectral floor the eigen, equivalence and tail tolerances allow
THREAD_RUNS = {
    "locality": (None, ("sweep.csv",), ("1", "2")),
    "zitterbewegung": (ZITTER_QUICK, ("mixed.csv", "pure.csv"), ("1", "2", "3")),
    "continuity": (None, ("refinement.csv",), ("1", "2")),
    "covariance": ("boost.rapidity = 0, 0.5\n", ("sweep.json",), ("1", "2")),
    "position": ("grid.n = 64\neigen.n = 32\ntolerances.eigen = 0.05\n"
                 "tolerances.equivalence = 1e-4\ntolerances.tail = 1e-4\n", (), ("1", "2")),
}

ROOT = Path(__file__).resolve().parent.parent


def _env(**extra):
    """This environment with rdlab's source on the path, without the BLAS and
    OpenMP pool sizes: a child sizes them from RDLAB_THREADS."""
    env = {key: value for key, value in os.environ.items() if key not in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return {**env, **extra}


@pytest.mark.parametrize("command", list(THREAD_RUNS))
def test_tables_identical_across_thread_counts(tmp_path, command):
    # each run is its own process: the BLAS pools take their size from
    # RDLAB_THREADS when numpy is first imported, and keep it
    config, tables, thread_counts = THREAD_RUNS[command]
    argv = [sys.executable, "-m", "rdlab.cli", command]
    if config is not None:
        (tmp_path / "exp.cfg").write_text(config)
        argv += ["--config", str(tmp_path / "exp.cfg")]
    outputs = {}
    for threads in thread_counts:
        out = tmp_path / threads
        proc = subprocess.run([*argv, "--out", str(out)], env=_env(RDLAB_THREADS=threads),
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        report = strict_json((out / f"{command}.report.json").read_text())
        report.pop("runtime_seconds")
        outputs[threads] = (report, [(out / f"{command}.{t}").read_bytes() for t in tables])
    for threads in thread_counts[1:]:
        assert outputs[threads] == outputs["1"], threads


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


def test_unset_thread_count_is_the_cores_this_process_may_use(monkeypatch):
    monkeypatch.delenv("RDLAB_THREADS", raising=False)
    monkeypatch.setattr(fields.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert fields._workers() == 1


def _artifacts(out):
    """Every table a run wrote, and its report without the runtime."""
    found = {path.name: path.read_bytes() for path in out.glob("*.csv")}
    for path in out.glob("*.report.json"):
        report = strict_json(path.read_text())
        report.pop("runtime_seconds")
        found[path.name] = report
    return found


def test_traced_benchmark_child_matches_an_untraced_one(tmp_path):
    # the benchmark's traced run rebinds every public positionops function while the
    # trembling-motion lanes call position_expectation from worker threads; the mixed
    # packet's tracks are in closed form and take no sample
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(ZITTER_QUICK)
    env = _env(RDLAB_THREADS="2")
    spans_path = tmp_path / "spans.json"
    artifacts = {}
    for mode, trace in (("plain", []), ("traced", ["--trace", str(spans_path)])):
        out = tmp_path / mode
        args = [sys.executable, str(ROOT / "perfbench" / "child.py"), str(tmp_path / f"{mode}.json"), *trace,
                "--", "zitterbewegung", "--config", str(cfg), "--out", str(out)]
        subprocess.run(args, env=env, cwd=ROOT, check=True, timeout=600, capture_output=True)
        assert json.loads((tmp_path / f"{mode}.json").read_text())["rc"] == 0
        artifacts[mode] = _artifacts(out)
    names = [span[0] for span in json.loads(spans_path.read_text())]
    assert names.count("positionops.position_expectation") == 16  # the pure packet's samples
    assert artifacts["traced"] == artifacts["plain"] and len(artifacts["plain"]) == 3
