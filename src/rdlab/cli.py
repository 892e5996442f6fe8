"""Command-line experiment runner.

Six subcommands drive the library's invariant suites from flat key=value
configs and emit machine-readable artifacts:

    rdlab <command> --config <path> [--out <dir>] [--seed <u64>]

Each run writes `<out>/<command>.report.json` (config echo, one entry per
asserted check with its measured value, scalar results, warnings, runtime)
plus the command's CSV/JSON tables. The exit code is 0 exactly when every
asserted check passed. Every precondition derivable from the config (key
values, lattice and packet hygiene, boost reach) is checked before any work
and exits 2 with one stderr line naming its keys, writing no report; any
other library `ValueError` becomes a failed check named `completed`, and the
report is still written (exit 1). Runs are deterministic for a fixed config
and seed. `RDLAB_THREADS` caps numerical thread pools; when it is absent the
linear-algebra backends keep their defaults (all cores). Any value other than
a positive integer exits 2 before any work.
"""
from __future__ import annotations

import os


def _limit_threads() -> None:
    value = os.environ.get("RDLAB_THREADS")
    if value is not None:
        for var in (
            "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS",
        ):
            os.environ.setdefault(var, value)


_limit_threads()  # must precede the numpy import to reach the BLAS pools

import argparse
import sys
import time

import numpy as np

from .clifford import ALPHA, BETA, GAMMA, GAMMA5, SIGMA, anticommutation_defect, anticommutator, commutator, pair
from .config import (
    ConfigError,
    TrackedConfig,
    check_band_hygiene,
    check_declared_tolerances,
    check_lattice_n,
    get_bool,
    get_float,
    get_floats,
    get_int,
    get_positive,
    load_config,
)
from .covlab import check_boost_reach, covariance_sweep, rotate_field, rotate_scalar_lattice
from .fields import (
    _l2,
    _workers,
    branch_projection,
    continuity_residuals,
    coordinate_density,
    gaussian_packet,
    antiparticle_gaussian_packet,
    momentum_inner,
    to_fw_picture,
)
from .grids import Grid
from .lorentz import boost, energy, rotation
from .positionops import (
    apply_xfw,
    apply_xp,
    localized_eigen_residuals,
    localized_state,
    mean_position_equivalence,
    tail_consistency_residual,
    tremble_moments,
    zitterbewegung_experiment,
)
from .report import ReportRecord, format_value, write_json, write_report, write_table
from .spinors import (
    dirac_adjoint,
    dirac_spinor,
    fw_matrix,
    hamiltonian,
    rest_spinor,
    spinor_boost,
    spinor_rotation,
    wigner_spinor_matrix,
)


def _vec3(cfg: dict[str, str], key: str, default: tuple[float, float, float]) -> np.ndarray:
    vec = get_floats(cfg, key, default)
    if len(vec) != 3:
        raise ConfigError(f"{key} must have exactly 3 components, got {len(vec)}")
    return np.asarray(vec, dtype=float)


def _tol(cfg: dict[str, str], key: str, default: float) -> float:
    return get_positive(cfg, f"tolerances.{key}", default)


def _grid(cfg: dict[str, str], record: ReportRecord, prefix: str, n_default: int, pmax_default: float) -> Grid:
    n = get_int(cfg, f"{prefix}.n", n_default)
    pmax = get_positive(cfg, f"{prefix}.pmax", pmax_default)
    check_lattice_n(n, f"{prefix}.n")
    record.results.setdefault("grids", {})[prefix] = {"n": n, "pmax": pmax}
    return Grid(n, pmax)


def _packet_section(cfg: dict[str, str], record: ReportRecord, grid_prefix: str, prefix: str,
                    n: int, pmax: float, sigma: float, p0: tuple[float, float, float]):
    """Lattice and shape of one packet: `<grid_prefix>.n`, `<grid_prefix>.pmax`,
    `<prefix>.sigma` (band hygiene checked) and `<prefix>.p0`, defaulting to
    the given values. Returns (grid, sigma, p0, the keys read)."""
    grid = _grid(cfg, record, grid_prefix, n, pmax)
    sigma = get_float(cfg, f"{prefix}.sigma", sigma)
    check_band_hygiene(grid.pmax, sigma, f"{grid_prefix}.pmax", f"{prefix}.sigma")
    p0 = _vec3(cfg, f"{prefix}.p0", p0)
    return grid, sigma, p0, f"{grid_prefix}.n, {grid_prefix}.pmax, {prefix}.sigma, {prefix}.p0"


def _precondition(keys: str, fn, *args, **kwargs):
    """fn(*args, **kwargs); a ValueError from it is a config error naming the
    `keys` the failed precondition derives from."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{keys}: {exc}") from None


def _worst(values) -> float:
    """The largest of `values`, by np.max, which keeps a NaN: a check value that is not a
    number fails its check, where max() would pass over it."""
    return float(np.max(list(values)))


def _random_momentum(rng: np.random.Generator, pmax: float) -> np.ndarray:
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    return rng.uniform(0.0, pmax) * direction


# ---------------------------------------------------------------------------
# algebra-check


def cmd_algebra_check(cfg: dict[str, str], record: ReportRecord, rng: np.random.Generator, out_dir: str) -> None:
    """Matrix algebra (exact) plus randomized spinor / transformation suites."""
    mass = get_positive(cfg, "mass", 1.0)
    samples = get_int(cfg, "spinors.samples", 1000)
    pmax = get_positive(cfg, "spinors.pmax", 10.0 * mass)
    boost_samples = get_int(cfg, "boosts.samples", 50)
    chi_max = get_positive(cfg, "boosts.rapidity_max", 3.0)
    tol_spinor = _tol(cfg, "spinor", 1e-12)
    tol_lorentz = _tol(cfg, "lorentz", 1e-12)
    tol_wigner = _tol(cfg, "wigner", 1e-10)
    corrupt = get_bool(cfg, "algebra.negative_control", False)
    for key, count in (("spinors.samples", samples), ("boosts.samples", boost_samples)):
        if count < 1:
            raise ConfigError(f"{key} = {count}: the randomized suites need at least one sample")

    gamma = GAMMA
    if corrupt:
        gamma = GAMMA.copy()
        gamma[1, 0, 0] += 1e-3
        record.warnings.append("negative control active: gamma[1] deliberately corrupted")

    # the generator identities hold entry-by-entry in integer-complex
    # arithmetic: asserted at exact zero, not a tolerance
    defect = anticommutation_defect(gamma)
    for mu in range(4):
        for nu in range(4):
            record.check(
                f"anticommutator[{mu}][{nu}]",
                float(defect[mu, nu]),
                None,
                passed=defect[mu, nu] == 0.0,
                note="exact",
            )

    eye = np.eye(4)
    d5 = _worst([np.abs(GAMMA5 @ GAMMA5 - eye).max(),
                 *(np.abs(anticommutator(GAMMA5, GAMMA[mu])).max() for mu in range(4))])
    record.check("gamma5_identities", d5, None, passed=d5 == 0.0, note="exact")

    dab = [np.abs(BETA @ BETA - eye).max(), np.abs(BETA.conj().T - BETA).max()]
    for j in range(3):
        dab.append(np.abs(ALPHA[j] @ ALPHA[j] - eye).max())
        dab.append(np.abs(ALPHA[j].conj().T - ALPHA[j]).max())
        dab.append(np.abs(anticommutator(ALPHA[j], BETA)).max())
        for k in range(j + 1, 3):
            dab.append(np.abs(anticommutator(ALPHA[j], ALPHA[k])).max())
    dab = _worst(dab)
    record.check("alpha_beta_identities", dab, None, passed=dab == 0.0, note="exact")

    dsu = []
    for j, k, l in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        dsu.append(np.abs(commutator(SIGMA[j], SIGMA[k]) - 2j * SIGMA[l]).max())
        dsu.append(np.abs(SIGMA[j] @ SIGMA[j] - eye).max())
    dsu = _worst(dsu)
    record.check("spin_block_identities", dsu, None, passed=dsu == 0.0, note="exact")

    # randomized plane-wave spinor suite
    eigen, norm, adjoint, fw, opposite = [], [], [], [], []
    for _ in range(samples):
        p = _random_momentum(rng, pmax)
        e = energy(p, mass)
        for branch, sgn in (("particle", 1.0), ("antiparticle", -1.0)):
            h = hamiltonian(p, mass, branch)
            for lam in (0.5, -0.5):
                psi = dirac_spinor(p, mass, branch, lam)
                eigen.append(np.linalg.norm(h @ psi - e * psi) / e)
                norm.append(abs(psi.conj() @ psi - e / mass) * mass / e)
                adjoint.append(abs(dirac_adjoint(psi) @ psi - sgn))
        hp = hamiltonian(p, mass, "particle")
        psi_op = dirac_spinor(-p, mass, "antiparticle", 0.5)
        opposite.append(np.linalg.norm(hp @ psi_op + e * psi_op) / e)
        u = fw_matrix(p, mass)
        fw.append(np.abs(u @ hp @ u.conj().T - e * BETA).max() / e)
    record.check("spinor_eigen_residual", _worst(eigen), tol_spinor)
    record.check("spinor_normalization", _worst(norm), tol_spinor)
    record.check("spinor_adjoint_normalization", _worst(adjoint), tol_spinor)
    record.check("opposite_node_negative_energy", _worst(opposite), tol_spinor)
    record.check("fw_diagonalization", _worst(fw), tol_spinor)

    # randomized boost/rotation representation suite
    pseudo, vector, wigner = [], [], []
    for _ in range(boost_samples):
        chi = _random_momentum(rng, chi_max)
        ax = rng.normal(size=3)
        an = rng.uniform(0.0, 2.0 * np.pi)
        reps = [
            (spinor_boost(chi), boost(chi)),
            (spinor_rotation(ax, an), rotation(ax, an)),
            (spinor_boost(chi) @ spinor_rotation(ax, an), boost(chi) @ rotation(ax, an)),
        ]
        for s, lam in reps:
            pseudo.append(np.abs(GAMMA[0] @ s.conj().T @ GAMMA[0] @ s - eye).max())
            s_inv = GAMMA[0] @ s.conj().T @ GAMMA[0]
            scale = max(1.0, np.abs(lam).max())
            for mu in range(4):
                expect = np.einsum("n,nab->ab", lam[mu], GAMMA)
                vector.append(np.abs(s_inv @ GAMMA[mu] @ s - expect).max() / scale)
        s, lam = reps[2]
        p = _random_momentum(rng, 0.3 * pmax)
        w = wigner_spinor_matrix(s, lam, p, mass)
        w2 = w[:2, :2]
        wigner += [np.abs(w[:2, 2:]).max(), np.abs(w[2:, :2]).max(), np.abs(w[2:, 2:] - w2).max(),
                   np.abs(w2.conj().T @ w2 - np.eye(2)).max()]
        q = (lam @ np.concatenate(([energy(p, mass)], p)))[1:]
        for j, lamval in enumerate((0.5, -0.5)):
            lhs = s @ dirac_spinor(p, mass, "particle", lamval)
            rhs = sum(w2[i, j] * dirac_spinor(q, mass, "particle", lv) for i, lv in enumerate((0.5, -0.5)))
            wigner.append(np.abs(lhs - rhs).max())
    record.check("pseudo_unitarity", _worst(pseudo), tol_lorentz)
    record.check("vector_conjugation", _worst(vector), tol_lorentz)
    record.check("wigner_transport", _worst(wigner), tol_wigner)

    record.results.update(
        {
            "spinor_samples": samples,
            "boost_samples": boost_samples,
            "momentum_bound": pmax,
            "rapidity_bound": chi_max,
        }
    )


# ---------------------------------------------------------------------------
# locality


# the identity lattice: one fixed size, reaching e^{-eps p^2} = e^{-37} at the smallest regulator
LOCALITY_N = 32


def cmd_locality(cfg: dict[str, str], record: ReportRecord, rng: np.random.Generator, out_dir: str) -> None:
    """Newton-Wigner localized states: the per-node density identity and the overlap sweep.

    The invariant weight times the density of a localized state is m/E psi^dag psi = 1
    at every node, in both pictures and on both branches, so its regulated overlap
    with the copy displaced by a is (2 pi)^-3 integral e^{-+i p.a - eps p^2} d^3p
    = (4 pi eps)^(-3/2) e^{-a^2/(4 eps)}. The check reads the identity; the sweep
    writes the ratio to the peak, e^{-d^2/(4 eps)} with a = d/m and eps in units of 1/m^2.
    """
    mass = get_positive(cfg, "mass", 1.0)
    spin = get_float(cfg, "locality.spin", 0.5)
    displacements = get_floats(cfg, "locality.displacements", (0.0, 1.0, 2.0, 3.0, 5.0))
    epsilons = get_floats(cfg, "regulators.epsilon", (0.1, 0.03, 0.01))
    tol_far = _tol(cfg, "far_ratio", 1e-3)
    tol_identity = _tol(cfg, "spinor", 1e-12)

    if any(e <= 0.0 for e in epsilons):
        raise ConfigError("regulators.epsilon: all regulator values must be positive")
    if sorted(displacements) != list(displacements) or len(set(displacements)) != len(displacements):
        raise ConfigError("locality.displacements must be strictly increasing")
    _precondition("locality.spin", rest_spinor, "particle", spin)
    epsilons = tuple(sorted(epsilons, reverse=True))

    grid = Grid(LOCALITY_N, mass * np.sqrt(37.0 / epsilons[-1]))
    record.results.setdefault("grids", {})["locality"] = {"n": grid.n, "pmax": grid.pmax}
    weight = mass / grid.energies(mass)
    worst = []
    for rep in ("dirac", "fw"):
        for branch in ("particle", "antiparticle"):
            psi = localized_state(grid, mass, spin=spin, branch=branch, rep=rep).values
            worst.append(np.max(np.abs(weight * pair(psi, psi) - 1.0)))
    worst = _worst(worst)
    record.check("localized_density_identity", worst, tol_identity,
                 note="max over nodes, pictures and branches of |m/E psi^dag psi - 1|")

    rows = [(d, eps, float(np.exp(-d * d / (4.0 * eps)))) for eps in epsilons for d in displacements]
    far_ratios = {eps: ratio for d, eps, ratio in rows if d == displacements[-1]}
    for eps, ratio in far_ratios.items():
        record.check(f"far_ratio[eps={eps:g}]", ratio, tol_far,
                     note=f"overlap ratio at displacement {displacements[-1]:g}/m")

    write_table(out_dir, record.command, "sweep", ["displacement", "epsilon", "ratio"], rows)
    record.results.update(
        {
            "displacements": list(displacements),
            "epsilons": list(epsilons),
            "far_ratios": {f"{eps:g}": ratio for eps, ratio in far_ratios.items()},
        }
    )


# ---------------------------------------------------------------------------
# position


def cmd_position(cfg: dict[str, str], record: ReportRecord, rng: np.random.Generator, out_dir: str) -> None:
    """Localized eigenstates, Hermiticity, picture equivalence, coordinate tail."""
    mass = get_positive(cfg, "mass", 1.0)
    grid, sigma, p0, keys = _packet_section(
        cfg, record, "grid", "packet", 128, 8.0 * mass, 2.5 / mass, (0.5, -1.0, 0.0))
    x0 = _vec3(cfg, "packet.x0", (0.4, 0.0, -0.3))
    eigen_grid = _grid(cfg, record, "eigen", min(grid.n, 64), 6.0 * mass)
    offset = get_float(cfg, "eigen.offset", 1.0 / mass)
    tol_eigen = _tol(cfg, "eigen", 1e-6)
    tol_herm = _tol(cfg, "hermiticity", 1e-10)
    tol_equiv = _tol(cfg, "equivalence", 1e-6)
    tol_tail = _tol(cfg, "tail", 1e-8)

    # both packets pass the lattice hygiene checks before any work starts
    keys += ", packet.x0"
    f = _precondition(keys, gaussian_packet, grid, mass, p0, x0, sigma=sigma, spin=0.5)
    g2 = _precondition(keys, gaussian_packet, grid, mass, -0.6 * p0, -x0, sigma=sigma, spin=-0.5)

    def eigen_worst(rep: str, branch: str, points) -> float:
        return _worst(localized_eigen_residuals(eigen_grid, mass, pt, 0.5, branch, rep).max() for pt in points)

    lattice = [
        (i * offset, j * offset, k * offset)
        for i in (-1, 0, 1)
        for j in (-1, 0, 1)
        for k in (-1, 0, 1)
    ]
    mirror_points = [(0.0, 0.0, 0.0), (offset, 0.0, 0.0), (offset, -offset, offset)]
    record.check("eigen_residual_xp", eigen_worst("dirac", "particle", lattice), tol_eigen,
                 note="worst interior residual over the 3x3x3 offset lattice")
    record.check("eigen_residual_xap", eigen_worst("dirac", "antiparticle", mirror_points), tol_eigen,
                 note="antiparticle mirror states")
    record.check("eigen_residual_xfw", eigen_worst("fw", "particle", mirror_points), tol_eigen)

    def adjoint_defect(op, f, g2) -> float:
        # <g2|X_k f> for every axis, then <X_k g2|f>: one operator's axis fields at a time;
        # map, unlike a loop variable, drops each axis field before the next is formed
        left = list(map(lambda xf: momentum_inner(g2, xf), op(f)))
        return _worst(map(lambda a, xg: abs(a - momentum_inner(xg, f)), left, op(g2)))

    def antiparticle_defect() -> float:
        # fa and ga share the |envelope| of f and g2, so they pass the same
        # hygiene; built here, they are freed on return
        fa = antiparticle_gaussian_packet(grid, mass, p0, x0, sigma=sigma, spin=0.5)
        ga = antiparticle_gaussian_packet(grid, mass, -0.6 * p0, -x0, sigma=sigma, spin=-0.5)
        return adjoint_defect(apply_xp, fa, ga)

    # X_P, then X_AP before fw exists: four packets and one operator's axis field at most
    defects = [adjoint_defect(apply_xp, f, g2), antiparticle_defect()]
    fw = to_fw_picture(f)
    defects.append(adjoint_defect(apply_xfw, fw, to_fw_picture(g2)))
    del g2
    record.check("hermiticity", _worst(defects), tol_herm,
                 note="worst adjoint defect of X_P, X_FW, X_AP on packet pairs")
    record.check("equivalence", mean_position_equivalence(f).max(), tol_equiv,
                 note="U^dag X_FW U vs X_P on a particle packet")
    del f  # the tail check reads fw alone
    record.check("tail_consistency", tail_consistency_residual(fw), tol_tail,
                 note="coordinate form of X_FW: multiplication plus Yukawa-gradient tail")

    if not record.passed:
        if eigen_grid.n <= 16:
            record.flags["spectral_floor"] = True
        record.flags["refinement_hint"] = (
            "residuals above tolerance: double grid.n / eigen.n to lower the "
            "interior spectral floor before relaxing tolerances"
        )


# ---------------------------------------------------------------------------
# zitterbewegung


def cmd_zitterbewegung(cfg: dict[str, str], record: ReportRecord, rng: np.random.Generator, out_dir: str) -> None:
    """Branch-mixed trembling motion plus pure-branch uniform transport."""
    mass = get_positive(cfg, "mass", 1.0)
    grid, sigma, p0, keys = _packet_section(
        cfg, record, "grid", "packet", 64, 4.0 * mass, 5.0 / mass, (0.3 * mass, 0.0, 0.0))
    mix = get_floats(cfg, "packet.mix", (1.0, 1.0))
    if len(mix) != 2:
        raise ConfigError("packet.mix must have exactly 2 channel weights")
    duration = get_positive(cfg, "times.T", 20.0 / mass)
    samples = get_int(cfg, "times.samples", 48)
    pure_grid, pure_sigma, pure_p0, pure_keys = _packet_section(
        cfg, record, "pure", "pure", 64, 8.0 * mass, 2.5 / mass, (0.4 * mass, 0.0, 0.2 * mass))
    pure_duration = get_positive(cfg, "pure.T", 6.0 / mass)
    pure_samples = get_int(cfg, "pure.samples", 24)
    tol_freq = _tol(cfg, "frequency", 0.05)
    tol_slope = _tol(cfg, "slope", 1e-3)

    # both packets pass the lattice hygiene checks, and both tracks their
    # preconditions, before any work starts; only the mixed track must resolve its
    # trembling frequency 2<E> and hold both branches, the pure track checks slopes
    packet = _precondition(f"{keys}, packet.mix", gaussian_packet, grid, mass, p0, sigma=sigma, weights=mix)
    pure_packet = _precondition(pure_keys, gaussian_packet, pure_grid, mass, pure_p0, sigma=pure_sigma)
    _precondition("packet.mix, times.T, times.samples", tremble_moments, packet, duration, samples)
    _precondition("pure.T, pure.samples", tremble_moments, pure_packet, pure_duration, pure_samples)

    mixed = zitterbewegung_experiment(packet, duration, samples)
    del packet  # the pure track's lanes need not sit on the mixed field
    freq_err = abs(mixed.dominant_frequency / (2.0 * mixed.mean_energy) - 1.0)
    record.check(
        "mixed_frequency_vs_two_mean_energy",
        float(freq_err),
        tol_freq,
        note="relative offset of the dominant trembling frequency from 2<E>",
    )

    pure = zitterbewegung_experiment(pure_packet, pure_duration, pure_samples)
    record.check(
        "pure_coordinate_slope",
        float(np.abs(pure.coordinate_slopes - pure.velocity_expectation).max()),
        tol_slope,
        note="d<x>/dt vs <p/E> on a single-branch packet",
    )
    record.check(
        "pure_branch_slope",
        float(np.abs(pure.branch_slopes - pure.velocity_expectation).max()),
        tol_slope,
        note="d<X_P>/dt vs <p/E> on a single-branch packet",
    )

    header = [
        "t",
        "xhat_x", "xhat_y", "xhat_z",
        "xp_x", "xp_y", "xp_z",
        "p_over_e_x", "p_over_e_y", "p_over_e_z",
    ]
    for table, result in (("mixed", mixed), ("pure", pure)):
        rows = [
            (t, *result.coordinate_track[i], *result.branch_position_track[i], *result.velocity_expectation)
            for i, t in enumerate(result.times)
        ]
        write_table(out_dir, record.command, table, header, rows)

    record.results.update(
        {
            "dominant_frequency": mixed.dominant_frequency,
            "mean_energy": mixed.mean_energy,
            "frequency_over_two_mean_energy": mixed.dominant_frequency / (2.0 * mixed.mean_energy),
            "pure_velocity_expectation": list(pure.velocity_expectation),
            "pure_coordinate_slopes": list(pure.coordinate_slopes),
            "pure_branch_slopes": list(pure.branch_slopes),
        }
    )


# ---------------------------------------------------------------------------
# continuity


def cmd_continuity(cfg: dict[str, str], record: ReportRecord, rng: np.random.Generator, out_dir: str) -> None:
    """Discrete continuity residuals, norm conservation, and nonlocality proxies."""
    mass = get_positive(cfg, "mass", 1.0)
    grid, sigma, p0, keys = _packet_section(
        cfg, record, "grid", "packet", 64, 8.0 * mass, 2.5 / mass, (0.3 * mass, 0.0, 0.0))
    mix = get_floats(cfg, "packet.mix", (1.0, 1.0))
    dt = get_positive(cfg, "times.dt", 2e-3 / mass)
    levels = get_int(cfg, "continuity.levels", 3)
    fw_dt = get_positive(cfg, "continuity.fw_dt", 1e-5 / mass)
    horizon = get_float(cfg, "times.T", 100.0 / mass)
    window = get_floats(cfg, "continuity.ratio_window", (3.5, 4.5))
    tol_norm = _tol(cfg, "norm_drift", 1e-12)
    tol_fw = _tol(cfg, "fw_defining", 1e-10)
    if levels < 2:
        raise ConfigError("continuity.levels must be at least 2 to form ratios")
    if len(window) != 2 or not window[0] < window[1]:
        raise ConfigError("continuity.ratio_window must be two increasing numbers: low, high")

    # both packets pass the lattice hygiene checks before any work starts. The pure packet
    # becomes its FW particle pair before the mixed packet is built, and the FW stage runs
    # and is freed before the mixed one: one four-component field and the pair at a time
    pure_fw = branch_projection(to_fw_picture(_precondition(keys, gaussian_packet, grid, mass, p0, sigma=sigma)))
    mixed = _precondition(f"{keys}, packet.mix", gaussian_packet, grid, mass, p0, sigma=sigma, weights=mix)
    fw_rep = continuity_residuals(pure_fw, [fw_dt])[0]
    del pure_fw

    reports = continuity_residuals(mixed, [dt / 2.0**level for level in range(levels)])
    residuals = [rep.residual_l2 for rep in reports]
    base_report = reports[0]
    for level, rep in enumerate(reports):
        if rep.dt_warning:
            record.warnings.append(
                f"level {level}: time step {rep.dt_warning} for the density rate scale"
            )
    for level in range(levels - 1):
        ratio = residuals[level] / residuals[level + 1]
        record.check(
            f"dirac_dt_ratio[{level}]",
            float(ratio),
            None,
            passed=window[0] <= ratio <= window[1],
            note=f"centered-difference order: window [{window[0]:g}, {window[1]:g}]",
        )
    write_table(
        out_dir, record.command, "refinement",
        ["refinement_level", "residual"],
        list(enumerate(residuals)),
    )

    norm0 = base_report.probability
    norm_t = float(np.sum(coordinate_density(mixed, horizon)) * grid.dx**3)
    record.check("norm_drift", abs(norm_t - norm0), tol_norm,
                 note=f"coordinate-space probability drift over T = {horizon:g}")

    record.check("fw_defining_residual", fw_rep.residual_l2, tol_fw,
                 note="FW density against the divergence of its own current")

    gap = fw_rep.nonlocality - base_report.nonlocality
    record.check(
        "nonlocality_proxy_gap",
        float(gap),
        None,
        passed=gap > 0.0,
        note="FW current mass outside the density concentration box must exceed the Dirac one",
    )
    record.results.update(
        {
            "residuals": residuals,
            "base_dt": dt,
            "norm_initial": norm0,
            "norm_final": norm_t,
            "nonlocality_dirac": base_report.nonlocality,
            "nonlocality_fw": fw_rep.nonlocality,
            "rate_scale_dirac": base_report.rate_scale,
            "rate_scale_fw": fw_rep.rate_scale,
            "grid_metadata": {"n": grid.n, "pmax": grid.pmax, "dx": grid.dx},
        }
    )


# ---------------------------------------------------------------------------
# covariance


def cmd_covariance(cfg: dict[str, str], record: ReportRecord, rng: np.random.Generator, out_dir: str) -> None:
    """Boosted-slice consistency sweep, rotations, and region-probability departures."""
    mass = get_positive(cfg, "mass", 1.0)
    grid, sigma, p0, keys = _packet_section(
        cfg, record, "grid", "packet", 64, 8.0 * mass, 2.5 / mass, (0.5 * mass, 0.0, 0.0))
    x0 = _vec3(cfg, "packet.x0", (0.0, 0.0, 0.0))
    axis = get_int(cfg, "boost.axis", 1)
    rapidities = get_floats(cfg, "boost.rapidity", (0.0, 0.1, 0.25, 0.5))
    rot_axis = get_int(cfg, "rotation.axis", 2)
    quarter_turns = get_int(cfg, "rotation.quarter_turns", 1)
    gap_factor = get_float(cfg, "covariance.fw_gap_factor", 10.0)
    tol_dirac = _tol(cfg, "dirac_residual", 1e-4)
    tol_zero = _tol(cfg, "chi_zero", 1e-12)
    tol_rot = _tol(cfg, "rotation", 1e-6)
    tol_box = _tol(cfg, "box", 1e-3)
    if axis not in (0, 1, 2) or rot_axis not in (0, 1, 2):
        raise ConfigError("boost.axis and rotation.axis must be 0, 1, or 2")
    if rapidities[0] < 0.0 or any(b <= a for a, b in zip(rapidities, rapidities[1:])):
        raise ConfigError("boost.rapidity must be a strictly increasing list of rapidities >= 0")

    packet = _precondition(f"{keys}, packet.x0", gaussian_packet, grid, mass, p0, x0, sigma=sigma, spin=0.5)
    for chi in rapidities:
        _precondition(f"boost.rapidity = {chi:g}", check_boost_reach, packet, chi, axis)

    sweep, rho_rest, rho_fw = covariance_sweep(packet, rapidities, axis)
    for report in sweep:
        if report.rapidity == 0.0:
            # the zero-rapidity boost and slice are identities: the residual is exactly 0
            record.check("chi_zero_identity", report.dirac_residual, tol_zero,
                         note="exact-identity short-circuit")
        else:
            record.check(f"dirac_residual[chi={report.rapidity:g}]", report.dirac_residual, tol_dirac)
    write_json(os.path.join(out_dir, f"{record.command}.sweep.json"), [report.as_dict() for report in sweep])
    final = sweep[-1] if sweep[-1].rapidity > 0.0 else None

    violations = [report.fw_violation for report in sweep]
    if len(violations) > 1:
        increase = float(np.min(np.diff(violations)))
        record.check(
            "fw_violation_increasing",
            increase,
            None,
            passed=increase > 0.0,
            note="FW slice violation must grow strictly with rapidity",
        )
    if final is not None:
        record.check(
            "fw_gap",
            float(final.fw_violation / final.dirac_residual),
            None,
            passed=final.fw_violation >= gap_factor * final.dirac_residual,
            note=f"FW violation over Dirac residual at chi = {final.rapidity:g}; must be >= {gap_factor:g}",
        )
        record.check(
            "box_invariance_dirac",
            final.dirac_tv,
            tol_box,
            note="worst-region probability departure, boosted density vs flux-corrected rest accounting",
        )
        record.check(
            "fw_box_departure",
            final.fw_tv,
            None,
            passed=final.fw_tv >= tol_box,
            note="some region's FW probability must miss the invariance budget the Dirac pair meets",
        )

    rho_rot = coordinate_density(rotate_field(packet, rot_axis, quarter_turns))
    perm = rotate_scalar_lattice(rho_rest, rot_axis, quarter_turns)
    scale = _l2(rho_rest)
    record.check(
        "rotation_consistency_dirac",
        _l2(rho_rot - perm) / scale,
        tol_rot,
        note="density of the rotated field vs the permuted rest density",
    )
    rho_fw_rot = coordinate_density(rotate_field(branch_projection(to_fw_picture(packet)), rot_axis, quarter_turns))
    perm_fw = rotate_scalar_lattice(rho_fw, rot_axis, quarter_turns)
    record.check(
        "rotation_consistency_fw",
        _l2(rho_fw_rot - perm_fw) / _l2(rho_fw),
        tol_rot,
    )

    record.results.update(
        {
            "rapidities": list(rapidities),
            "fw_violations": violations,
            "dirac_residuals": [report.dirac_residual for report in sweep],
            "boost_axis": axis,
            "rotation": {"axis": rot_axis, "quarter_turns": quarter_turns},
        }
    )


# ---------------------------------------------------------------------------
# entry point


COMMANDS = {
    "algebra-check": (cmd_algebra_check, "matrix algebra and randomized spinor/transformation suites"),
    "locality": (cmd_locality, "localized-state density identity and regulated overlap decay"),
    "position": (cmd_position, "localized eigenstates, Hermiticity, equivalence, coordinate tail"),
    "zitterbewegung": (cmd_zitterbewegung, "branch-mixed trembling motion and pure-branch transport"),
    "continuity": (cmd_continuity, "discrete continuity residuals and nonlocality proxies"),
    "covariance": (cmd_covariance, "boosted-slice consistency, rotations, region probabilities"),
}


def _seed_value(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdlab",
        description="numerical laboratory for relativistic wave mechanics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", default=None, help="flat key = value experiment config")
        cmd.add_argument("--out", default=".", help="artifact output directory")
        cmd.add_argument("--seed", type=_seed_value, default=0, help="RNG seed (u64)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _workers()  # the RDLAB_THREADS check
        cfg = load_config(args.config) if args.config else {}
        check_declared_tolerances(cfg)
        try:
            os.makedirs(args.out, exist_ok=True)  # an --out that cannot hold the report fails here
        except OSError as exc:
            raise ConfigError(f"--out {args.out}: {exc.strerror}") from None
    except (OSError, ConfigError) as exc:
        print(f"rdlab: {exc}", file=sys.stderr)
        return 2
    cfg = TrackedConfig(cfg)  # tracked after the tolerance check, which reads every tolerances.* key

    record = ReportRecord(command=args.command, config=cfg, seed=args.seed)
    rng = np.random.default_rng(args.seed)
    start = time.perf_counter()
    try:
        COMMANDS[args.command][0](cfg, record, rng, args.out)
    except ConfigError as exc:
        print(f"rdlab: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # any other library error is a failed check, reported
        record.check("completed", None, None, passed=False, note=f"{type(exc).__name__}: {exc}")
    else:
        for key in cfg.unread():
            record.warnings.append(f"config key {key!r} is not read by {args.command}; it has no effect")
    record.runtime_seconds = time.perf_counter() - start

    path = write_report(args.out, record)
    for chk in record.checks:
        status = "PASS" if chk.passed else "FAIL"
        shown = "n/a" if chk.value is None else format_value(chk.value)
        tol = "exact" if chk.tolerance is None else format_value(chk.tolerance)
        print(f"[{status}] {chk.name}: {shown} (tolerance {tol})")
    for warning in record.warnings:
        print(f"[WARN] {warning}")
    print(f"report: {path}")
    return 0 if record.passed else 1


if __name__ == "__main__":
    sys.exit(main())
