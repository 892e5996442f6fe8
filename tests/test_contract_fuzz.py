"""Contract fuzz of the command-line runner: configs drawn from each command's keys,
with values at and past the edges of what a key accepts (0, negatives, +-1e+-300,
huge integers, empty lists, wrong lengths), run in-process on 16- and 32-node
lattices. Every run returns 0, 1 or 2 and raises nothing; exit 2 writes one stderr
line and no report; exit 0 or 1 writes a strict-JSON report in which every passing
check has a finite value."""
from __future__ import annotations

import math

import numpy as np
import pytest
from test_cli import strict_json

from rdlab import fields
from rdlab.cli import main

# per command: the small base config, then every key the command reads, with its
# number of components (1 for a number or an integer, None for a list of any length)
COMMANDS = {
    "algebra-check": ("spinors.samples = 20\nboosts.samples = 5\n", {
        "mass": 1, "spinors.samples": 1, "spinors.pmax": 1, "boosts.samples": 1,
        "boosts.rapidity_max": 1, "tolerances.spinor": 1, "tolerances.lorentz": 1,
        "tolerances.wigner": 1}),
    "locality": ("", {
        "mass": 1, "locality.spin": 1, "locality.displacements": None, "regulators.epsilon": None,
        "tolerances.far_ratio": 1, "tolerances.spinor": 1}),
    "position": ("grid.n = 32\neigen.n = 16\n", {
        "mass": 1, "grid.n": 1, "grid.pmax": 1, "packet.sigma": 1, "packet.p0": 3, "packet.x0": 3,
        "eigen.n": 1, "eigen.pmax": 1, "eigen.offset": 1, "tolerances.eigen": 1,
        "tolerances.hermiticity": 1, "tolerances.equivalence": 1, "tolerances.tail": 1}),
    "zitterbewegung": ("grid.n = 32\npure.n = 32\ntimes.T = 10\ntimes.samples = 16\n"
                       "pure.T = 4\npure.samples = 16\n", {
        "mass": 1, "grid.n": 1, "grid.pmax": 1, "packet.sigma": 1, "packet.p0": 3, "packet.mix": 2,
        "times.T": 1, "times.samples": 1, "pure.n": 1, "pure.pmax": 1, "pure.sigma": 1, "pure.p0": 3,
        "pure.T": 1, "pure.samples": 1, "tolerances.frequency": 1, "tolerances.slope": 1}),
    "continuity": ("grid.n = 32\ncontinuity.levels = 2\n", {
        "mass": 1, "grid.n": 1, "grid.pmax": 1, "packet.sigma": 1, "packet.p0": 3, "packet.mix": 2,
        "times.dt": 1, "continuity.levels": 1, "continuity.fw_dt": 1, "times.T": 1,
        "continuity.ratio_window": 2, "tolerances.norm_drift": 1, "tolerances.fw_defining": 1}),
    "covariance": ("grid.n = 32\nboost.rapidity = 0, 0.3\n", {
        "mass": 1, "grid.n": 1, "grid.pmax": 1, "packet.sigma": 1, "packet.p0": 3, "packet.x0": 3,
        "boost.axis": 1, "boost.rapidity": None, "rotation.axis": 1, "rotation.quarter_turns": 1,
        "covariance.fw_gap_factor": 1, "tolerances.dirac_residual": 1, "tolerances.chi_zero": 1,
        "tolerances.rotation": 1, "tolerances.box": 1}),
}

VALUES = ("0", "-1", "-0.5", "0.25", "1", "3", "1e300", "-1e300", "1e-300", "-1e-300",
          str(2**31), str(2**63), str(-(2**63)), "1" + "0" * 30)

DRAWS = 20


def _value(rng: np.random.Generator, size: int | None) -> str:
    """One drawn value: a number, or a list of drawn numbers that is empty, of the key's
    length or one off it (any length up to 3 for a list key)."""
    if size is None:
        length = int(rng.integers(0, 4))
    else:
        length = int(rng.choice([0, size - 1, size, size + 1])) if rng.random() < 0.5 else size
    return ", ".join(rng.choice(VALUES) for _ in range(length))


def _configs(command: str, seed: int = 2026) -> list[str]:
    base, keys = COMMANDS[command]
    rng = np.random.default_rng([seed, list(COMMANDS).index(command)])
    configs = []
    for _ in range(DRAWS):
        cfg = dict(line.split(" = ") for line in base.splitlines())
        for key in rng.choice(list(keys), size=int(rng.integers(1, 3)), replace=False):
            cfg[key] = _value(rng, keys[key])
        configs.append("".join(f"{key} = {value}\n" for key, value in cfg.items()))
    return configs


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", list(COMMANDS))
def test_drawn_configs_keep_the_exit_contract(tmp_path, capsys, monkeypatch, command):
    # no packet passes the coordinate-edge check below 64 nodes (at n = 32 the edge plane
    # lies within 15 pi / (pmax sigma) <= 2.4 widths of the centre); a looser bound lets
    # 32-node packets reach the experiments
    monkeypatch.setattr(fields, "COORDINATE_EDGE_TOL", 0.2)
    for i, config in enumerate(_configs(command)):
        out = tmp_path / str(i)
        out.mkdir()
        (out / "run.cfg").write_text(config)
        try:
            code = main([command, "--config", str(out / "run.cfg"), "--out", str(out), "--seed", "1"])
        except Exception as exc:  # a traceback, not an exit code
            pytest.fail(f"{command} raised {exc!r} on\n{config}")
        err = capsys.readouterr().err
        report = out / f"{command}.report.json"
        assert code in (0, 1, 2), config
        if code == 2:
            assert err.count("\n") == 1 and err.startswith("rdlab: ") and not report.exists(), config
        else:
            checks = strict_json(report.read_text())["checks"]
            passing = [c["value"] for c in checks if c["passed"]]
            assert all(isinstance(v, float) and math.isfinite(v) for v in passing), (config, checks)
