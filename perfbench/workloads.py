"""The benchmark's workloads and the correctness gate every run must pass.

Each workload is one `rdlab` CLI experiment with a config owned by the
benchmark. Lattice sizes and sample counts are fixed, so the work per run
does not depend on the seed; the seed only perturbs packet momentum (and,
where the command accepts it, packet position) inside ranges in which every
check of the command passes.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Seed at which headline results are compared with `reference.json`.
REFERENCE_SEED = 1

# Largest accepted drift of a headline result at the reference seed:
# max |run - reference| over the entries of one result, relative to the
# largest |reference| entry. Loose enough for round-off changes from a
# refactor, tight enough to catch a changed algorithm or a broken kernel.
HEADLINE_RTOL = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    # fixed config lines, identical for every seed
    config: tuple[str, ...]
    # (config key, centre per component, half-width): uniform draws from the seed
    perturbed: tuple[tuple[str, tuple[float, ...], float], ...]
    # report `results` keys compared with reference.json at REFERENCE_SEED
    headline: tuple[str, ...]
    # lattice sizes the experiment allocates fields on
    lattices: tuple[int, ...]

    def config_text(self, seed: int) -> str:
        """The experiment's config file for `seed`; the same seed gives the same text."""
        rng = random.Random(f"{self.name}/{seed}")
        lines = list(self.config)
        for key, centre, half in self.perturbed:
            values = [c + rng.uniform(-half, half) for c in centre]
            lines.append(f"{key} = " + ", ".join(f"{v:.6f}" for v in values))
        return "\n".join(lines) + "\n"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="boost-slice",
            command="covariance",
            config=("boost.rapidity = 0.0, 0.5",),
            perturbed=(
                ("packet.p0", (0.5, 0.0, 0.0), 0.1),
                ("packet.x0", (0.0, 0.0, 0.0), 0.5),
            ),
            headline=("dirac_residuals", "fw_violations"),
            lattices=(64,),
        ),
        Workload(
            name="tremble-track",
            command="zitterbewegung",
            config=("times.samples = 16", "times.T = 8", "pure.samples = 16"),
            perturbed=(
                ("packet.p0", (0.3, 0.0, 0.0), 0.05),
                ("pure.p0", (0.4, 0.0, 0.2), 0.05),
            ),
            headline=("frequency_over_two_mean_energy", "pure_branch_slopes"),
            lattices=(64,),
        ),
        Workload(
            name="transport-128",
            command="continuity",
            config=("grid.n = 128", "continuity.levels = 2"),
            perturbed=(("packet.p0", (0.3, 0.0, 0.0), 0.05),),
            headline=("residuals", "nonlocality_fw"),
            lattices=(128,),
        ),
    )
}


def load_reference() -> dict:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


def headline_drift(value, reference) -> float:
    """max |value - reference| over entries, relative to max |reference|."""
    a = value if isinstance(value, list) else [value]
    b = reference if isinstance(reference, list) else [reference]
    if len(a) != len(b):
        return float("inf")
    scale = max(abs(x) for x in b) or 1.0
    return max(abs(x - y) for x, y in zip(a, b)) / scale


def gate(workload: Workload, seed: int, child: dict | None, out_dir: Path, reference: dict) -> list[str]:
    """Reasons the run failed; an empty list means it passed.

    A run fails when it raised, exited non-zero or wrote no report, when any
    check in its report failed, or, at REFERENCE_SEED, when a headline result
    drifted from the stored reference by more than HEADLINE_RTOL.
    """
    if child is None:
        return ["the experiment process wrote no result"]
    reasons = []
    if child.get("error"):
        reasons.append("raised: " + child["error"].strip().splitlines()[-1])
    elif child.get("rc") != 0:
        reasons.append(f"exit code {child.get('rc')}")
    path = out_dir / f"{workload.command}.report.json"
    if not path.exists():
        return reasons + ["no report written"]
    report = json.loads(path.read_text(encoding="utf-8"))
    failed = [c["name"] for c in report.get("checks", []) if not c.get("passed")]
    if failed:
        reasons.append("failed checks: " + ", ".join(failed))
    if not report.get("checks"):
        reasons.append("report holds no checks")
    if seed == REFERENCE_SEED:
        stored = reference[workload.name]["results"]
        results = report.get("results", {})
        for key in workload.headline:
            if key not in results:
                reasons.append(f"headline result {key} missing")
                continue
            drift = headline_drift(results[key], stored[key])
            if not drift <= HEADLINE_RTOL:
                reasons.append(f"headline {key} drifted by {drift:.3g} (bound {HEADLINE_RTOL:g})")
    return reasons


def artifact_digest(out_dir: Path) -> str:
    """Digest of every artifact a run wrote, minus the report's runtime.

    Runs are deterministic for a fixed config and seed: tables are
    byte-identical and reports identical except for `runtime_seconds`.
    """
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        if path.suffix not in (".csv", ".json"):
            continue
        data = path.read_bytes()
        if path.name.endswith(".report.json"):
            report = json.loads(data)
            report.pop("runtime_seconds", None)
            data = json.dumps(report, sort_keys=True).encode()
        h.update(path.name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()
