"""rdlab benchmark: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each experiment runs `rdlab.cli.main` in a fresh child process with
RDLAB_THREADS=2 and a config the benchmark generates from the seed, and must
pass the correctness gate in `workloads.py`. A run measures whole
experiments: it starts one and keeps starting more while the projected end
stays within --seconds. With --trace 0 it reports the end-to-end metrics
(medians over the run's samples); with --trace 1 it runs one traced
experiment and reports the per-layer metrics. Lines before the last describe
the run for a reader; the last line is the JSON result. Every run's record
(environment, samples, metrics) is kept under `.bench_out/results/`.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from workloads import WORKLOADS, artifact_digest, gate, load_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
THREADS = "2"
# import-only children per end-to-end run; setup_s is the median of these
# and each experiment's own import
SETUP_SAMPLES = 2
# every child is killed, and the run counted failed, past this many seconds
RUN_DEADLINE_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env["RDLAB_THREADS"] = THREADS
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_child(args: list[str], result_path: Path, log_path: Path, timeout: float) -> dict | None:
    """Run child.py to completion (killed after `timeout`); its result, or None."""
    with open(log_path, "w", encoding="utf-8") as log:
        try:
            subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(result_path), *args],
                stdout=log, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT,
                timeout=max(timeout, 1.0), check=False,
            )
        except subprocess.TimeoutExpired:
            return None
    try:
        return json.loads(result_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def llc_bytes() -> int | None:
    """Size of the largest CPU cache level, from the kernel's cache description."""
    best = (0, None)
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024 * 1024}.get(size[-1], 1)
        best = max(best, (level, int(size.rstrip("KM")) * scale))
    return best[1]


def environment(workload, src_digest: str) -> dict:
    llc = llc_bytes()
    fields = {str(n): n**3 * 4 * 16 for n in workload.lattices}  # complex128 4-spinor per node
    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest,
        "nproc": len(os.sched_getaffinity(0)),
        "RDLAB_THREADS": THREADS,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "lattices": list(workload.lattices),
        "field_bytes": fields,
        "llc_bytes": llc,
        "field_over_llc": {n: b / llc for n, b in fields.items()} if llc else None,
    }


class Run:
    """The experiments of one benchmark invocation, with their gate results."""

    def __init__(self, workload, seed: int, trace: bool, src_digest: str):
        self.workload, self.seed = workload, seed
        self.started = time.perf_counter()
        self.stem = f"{workload.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
        self.scratch = OUT / "runs" / self.stem
        # artifacts of this code and config at this seed, for the determinism check
        key = hashlib.sha256((src_digest + workload.config_text(seed)).encode()).hexdigest()
        self.history = OUT / "history" / f"{key[:16]}-{workload.name}-seed{seed}.json"
        self.reference = load_reference()
        self.samples: list[dict] = []
        self.failures: list[str] = []
        shutil.rmtree(self.scratch, ignore_errors=True)
        self.scratch.mkdir(parents=True)

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.started)

    def import_sample(self) -> dict | None:
        i = len(list(self.scratch.glob("import*.json")))
        return run_child(["--import-only"], self.scratch / f"import{i}.json",
                         self.scratch / f"import{i}.log", self.remaining())

    def experiment(self, traced: bool = False) -> dict | None:
        """Run one experiment through the gate; its child result, or None."""
        index = len(self.samples)
        exp = self.scratch / f"exp{index}"
        out = exp / "out"
        out.mkdir(parents=True)
        cfg = exp / "experiment.cfg"
        cfg.write_text(self.workload.config_text(self.seed), encoding="utf-8")
        args = ["--trace", str(exp / "spans.json")] if traced else []
        args += ["--", self.workload.command, "--config", str(cfg), "--out", str(out), "--seed", str(self.seed)]
        child = run_child(args, exp / "result.json", exp / "log.txt", self.remaining())
        reasons = gate(self.workload, self.seed, child, out, self.reference)
        if not reasons:
            reasons = self.check_determinism(artifact_digest(out), None if traced else child["wall_s"])
        self.samples.append({"child": child, "failures": reasons, "traced": traced})
        self.failures += [f"experiment {index}: {r}" for r in reasons]
        return child

    def check_determinism(self, digest: str, wall_s: float | None) -> list[str]:
        """Compare the artifacts with every earlier experiment of this code and seed.

        Experiments of one run share the seed, and so does any earlier run in
        this checkout recorded under `.bench_out/history/`. The record also
        keeps the untraced wall_s of those experiments.
        """
        record = {"digest": digest, "wall_s": []}
        if self.history.exists():
            record = json.loads(self.history.read_text(encoding="utf-8"))
            if record["digest"] != digest:
                return ["artifacts differ from an earlier run with the same code and seed"]
        if wall_s is not None:
            record["wall_s"].append(wall_s)
        self.history.parent.mkdir(parents=True, exist_ok=True)
        self.history.write_text(json.dumps(record), encoding="utf-8")
        return []

    def untraced_walls(self) -> list[float]:
        """Untraced wall_s of every recorded experiment of this code and seed."""
        if not self.history.exists():
            return []
        return json.loads(self.history.read_text(encoding="utf-8"))["wall_s"]

    def measured(self, key: str) -> list[float]:
        return [s["child"][key] for s in self.samples
                if s["child"] and key in s["child"] and not s["traced"]]


def end_to_end(run: Run, seconds: int) -> tuple[dict, dict]:
    """Run experiments for `seconds`; metric values and their sample counts."""
    setup = []
    for _ in range(SETUP_SAMPLES):
        child = run.import_sample()
        if child:
            setup.append(child["setup_s"])
    start = time.perf_counter()
    while True:
        run.experiment()
        walls = run.measured("wall_s")
        elapsed = time.perf_counter() - start
        typical = statistics.median(walls) if walls else elapsed
        if elapsed + typical > min(seconds, run.remaining()):
            break
    setup += run.measured("setup_s")
    values = {
        "wall_s": run.measured("wall_s"),
        "cpu_s": run.measured("cpu_s"),
        "peak_rss_mb": run.measured("peak_rss_mb"),
        "setup_s": setup,
    }
    return ({k: statistics.median(v) for k, v in values.items() if v},
            {k: len(v) for k, v in values.items()})


def per_layer(run: Run) -> dict:
    """One traced experiment; per-layer metrics from its spans.

    Its artifacts and wall_s are compared with untraced experiments of the
    same code and seed: earlier ones in this checkout, or else one run here
    first.
    """
    if not run.history.exists():
        run.experiment()
    untraced = run.untraced_walls()
    child = run.experiment(traced=True)
    spans_path = run.scratch / f"exp{len(run.samples) - 1}" / "spans.json"
    if child is None or "wall_s" not in child or not spans_path.exists():
        return {}
    spans = json.loads(spans_path.read_text(encoding="utf-8"))
    shutil.copyfile(spans_path, OUT / "results" / f"{run.stem}.spans.json")
    values = tracing.summarize(spans, child["wall_s"])
    values["trace.wall_s"] = child["wall_s"]
    if untraced:
        values["trace.overhead_s"] = child["wall_s"] - statistics.median(untraced)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rdlab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rdlab" / "cli.py").is_file():
        print(f"run.py: no rdlab sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]

    workload = WORKLOADS[args.workload]
    src_digest = source_digest()
    env = environment(workload, src_digest)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    run = Run(workload, args.seed, bool(args.trace), src_digest)
    if args.trace:
        values, counts = per_layer(run), {}
        # per-layer metrics have no bound and may be 0: a layer the workload
        # never calls reads 0 calls and 0 s
        metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in declared}
        missing = [] if values else ["the traced experiment"]
    else:
        values, counts = end_to_end(run, args.seconds)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared if m["name"] in values}
        missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        run.failures.append("no measurement for " + ", ".join(missing))
    attempted = len(run.samples)
    failed = sum(1 for s in run.samples if s["failures"])
    result = {"correct": not run.failures, "attempted": attempted, "failed": failed, "metrics": metrics}

    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
              "run_s": time.perf_counter() - run.started,
              "environment": env, "config": workload.config_text(args.seed), "samples": counts,
              "failures": run.failures, "children": [s["child"] for s in run.samples], **result}
    (OUT / "results" / f"{run.stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if not run.failures:
        shutil.rmtree(run.scratch, ignore_errors=True)

    print(f"workload {workload.name} ({workload.command}), seed {args.seed}, trace {args.trace}")
    print("environment " + json.dumps(env))
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:>16.6g} {m['unit']:8s} median of {counts.get(name, 1)}")
    print(f"  fail_frac {failed}/{attempted}")
    for reason in run.failures:
        print(f"  FAILED {reason}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
