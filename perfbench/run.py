"""ramseykit benchmark: runs one workload for a fixed time and reports metrics.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout (the directory holding ``src/``).
Each repetition is a fresh interpreter started from ``perfbench/worker.py``
with ``workers=1`` and no budget, so the program's ``lru_cache``s start cold as
they do for a command-line user. ``setup_s`` runs from the start of that
interpreter to inputs ready; ``wall_s`` runs from inputs ready to output
produced and excludes the correctness checks.

Both are reported at a fixed machine speed: each measured time is multiplied
by the machine's speed while it was measured, relative to a probe loop that
takes ``PROBE_NOMINAL_S``. The speed is the mean of ``PROBE_NOMINAL_S / t``
over the probe times ``t`` taken in the same process (see ``worker.py``). On a
shared host whose speed swings by a third for tens of seconds at a time this
keeps the numbers of one commit steady; the measured times are in the report
as ``wall_raw_s`` and ``setup_raw_s``, and the median probe time as
``bench.ref_s``.

With ``--trace 0`` every repetition is untraced and the last line carries
the end-to-end metrics. With ``--trace 1`` the first half of the time runs
untraced repetitions and the second half traced ones, and the last line
carries the per-layer metrics, including the tracing overhead. Every
workload is a fixed instance; ``--seed`` is recorded and changes no input.
Lines before the last one are a human-readable report.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from worker import WORKLOADS  # noqa: E402  (imports nothing from ramseykit)

BENCHMARK = ("ramsey-k3-2k3", "survey-k3k2-n7", "minimalize-pendant3")
SETUP_PROBES = 3  # set-up-only launches at the start of a run, and one before each repetition
CHILD_TIMEOUT_S = 170.0
PROBE_NOMINAL_S = 0.008  # the worker's probe loop at the reference speed

# counts that must repeat exactly across traced repetitions of one commit
EXACT_COUNTS = (
    "arrowing.arrows.calls",
    "arrowing.arrows.nodes",
    "arrowing.arrows.arrow.calls",
    "arrowing.arrows.not_arrow.calls",
    "arrowing.find_pattern.calls",
    "minimal.canonical_key.calls",
    "minimal.canonical_graph.calls",
    "minimal.enumerate_graphs.classes",
    "minimal.is_minimal.calls",
    "minimal.degree_survey.records",
)


def speed(probe_times: list[float]) -> float:
    """The machine's speed over the probes, relative to the reference speed."""
    return statistics.mean(PROBE_NOMINAL_S / t for t in probe_times)


def upper_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    return (100 * (n - 10)) // n, sorted(values)[n - 11]


def metadata(root: Path, workload: str, seed: int, traced: bool) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "workers": 1,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


class Run:
    """Launches worker processes for one workload and keeps their results."""

    def __init__(self, root: Path, workload: str):
        self.root, self.workload = root, workload
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        # set-up is timed with bytecode caches, whatever the caller's setting
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.setups: list[tuple[float, float]] = []  # (seconds, speed)
        self.reps: list[dict] = []
        self.traced: list[dict] = []
        self.probes: list[float] = []
        self.attempted = 0
        self.failed: list[str] = []

    def launch(self, *flags: str, count: bool = True) -> dict | None:
        cmd = [sys.executable, str(HERE / "worker.py"), self.workload, *flags]
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
        except BaseException:  # interrupted or terminated: take the worker down too
            proc.kill()
            proc.wait()
            raise
        result = None
        if proc.returncode == 0 and out.strip():
            result = json.loads(out.strip().splitlines()[-1])
        if count:
            self.attempted += 1
            if result is None:
                self.failed.append(f"worker {' '.join(flags)} exited {proc.returncode}: {err.strip()[-500:]}")
                return None
            if "--trace" not in flags:
                self.setups.append((result["ready_monotonic"] - start, speed(result["setup_probes"])))
            for name, ok in result.get("checks", []):
                self.attempted += 1
                if not ok:
                    self.failed.append(f"check {name} failed")
        if result is not None:
            self.probes += result["setup_probes"] + result.get("probes", [])
        return result

    def measure(self, until: float, traced: bool) -> None:
        """Repetitions until ``until`` (monotonic), at least one; a repetition
        starts only if the previous one would still fit."""
        out = self.traced if traced else self.reps
        flags = ("--trace",) if traced else ()
        last = 0.0
        while True:
            t = time.monotonic()
            if out and t + last > until:
                return
            self.launch("--setup-only")
            res = self.launch(*flags)
            last = time.monotonic() - t
            if res is None:
                return
            out.append(res)

    def fill_setups(self, until: float) -> None:
        """Set-up-only launches in the time a repetition no longer fits into."""
        last = 0.0
        while time.monotonic() + last <= until:
            t = time.monotonic()
            if self.launch("--setup-only") is None:
                return
            last = time.monotonic() - t

    def check_counts(self) -> None:
        """A count that differs between traced repetitions is a benchmark error."""
        if len(self.traced) < 2:
            return
        self.attempted += 1
        first = self.traced[0]["layers"]
        bad = [k for k in EXACT_COUNTS if any(r["layers"][k] != first[k] for r in self.traced)]
        if bad:
            self.failed.append(f"counts differ between traced repetitions: {bad}")


def summarise(run: Run, traced: bool) -> tuple[dict, dict]:
    """(metrics for the last line, report for the lines before it)."""
    raw_walls = [r["wall_s"] for r in run.reps]
    walls = [r["wall_s"] * speed(r["setup_probes"] + r["probes"]) for r in run.reps]
    setups = [t * v for t, v in run.setups]
    rss = [r["maxrss_kb"] / 1024 for r in run.reps]
    report: dict = {
        "wall_s": {"median": statistics.median(walls), "unit": "s", "samples": len(walls)},
        "setup_s": {"median": statistics.median(setups), "unit": "s", "samples": len(setups)},
        "peak_rss_mb": {"median": statistics.median(rss), "unit": "MB", "samples": len(rss)},
        "fail_frac": {"value": len(run.failed) / max(run.attempted, 1), "failed": len(run.failed), "attempted": run.attempted},
        "wall_raw_s": {"median": statistics.median(raw_walls), "unit": "s", "samples": len(raw_walls)},
        "setup_raw_s": {"median": statistics.median(t for t, _v in run.setups), "unit": "s", "samples": len(run.setups)},
        "bench.ref_s": {"median": statistics.median(run.probes), "unit": "s", "samples": len(run.probes)},
    }
    hi = upper_percentile(walls)
    report["wall_s"]["upper"] = None if hi is None else {f"p{hi[0]}": hi[1]}
    if not traced:
        metrics = {
            "wall_s": {"value": report["wall_s"]["median"], "unit": "s"},
            "setup_s": {"value": report["setup_s"]["median"], "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"]["median"], "unit": "MB"},
        }
        return metrics, report
    layers = {}
    for key in run.traced[0]["layers"]:
        layers[key] = statistics.median(r["layers"][key] for r in run.traced)
    # traced phases run no probes: their speed comes from the probes before and after
    traced_wall = statistics.median(r["wall_s"] * speed(r["setup_probes"] + r["probes"]) for r in run.traced)
    layers["process.cpu_s"] = statistics.median(r["cpu_s"] for r in run.traced)
    layers["trace.overhead_s"] = traced_wall - report["wall_s"]["median"]
    layers["bench.ref_s"] = report["bench.ref_s"]["median"]
    metrics = {k: {"value": v, "unit": _unit(k)} for k, v in sorted(layers.items())}
    return metrics, report


def _unit(name: str) -> str:
    if name.endswith("_ms.p50") or name.endswith("_ms.p99"):
        return "ms"
    if name.endswith("nodes_per_s") or name.endswith("classes_per_s"):
        return "1/s"
    if name.endswith("_ratio") or name.endswith("coverage"):
        return "ratio"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    return "count"


def run_workload(root: Path, workload: str, seed: int, seconds: float, traced: bool) -> dict:
    run = Run(root, workload)
    start = time.monotonic()
    run.launch("--setup-only", count=False)  # writes bytecode caches; not timed
    for _ in range(SETUP_PROBES):
        run.launch("--setup-only")
    if traced:
        run.measure(start + seconds / 2, traced=False)
        if run.reps:
            run.measure(start + seconds, traced=True)
        run.check_counts()
    else:
        run.measure(start + seconds, traced=False)
        run.fill_setups(start + seconds)
    complete = bool(run.reps) and (not traced or bool(run.traced))
    if not complete:
        return {"correct": False, "attempted": max(run.attempted, 1), "failed": max(len(run.failed), 1), "report": None, "errors": run.failed}
    metrics, report = summarise(run, traced)
    report["meta"] = metadata(root, workload, seed, traced)
    report["elapsed_s"] = time.monotonic() - start
    return {
        "correct": not run.failed,
        "attempted": run.attempted,
        "failed": len(run.failed),
        "metrics": metrics,
        "report": report,
        "errors": run.failed,
    }


def print_report(workload: str, res: dict) -> None:
    rep = res["report"]
    for err in res["errors"]:
        print(f"{workload}: ERROR {err}")
    if rep is None:
        return
    for name in ("wall_s", "setup_s", "peak_rss_mb", "wall_raw_s", "setup_raw_s", "bench.ref_s"):
        m = rep[name]
        extra = ""
        if name == "wall_s" and m["upper"]:
            (level, value), = m["upper"].items()
            extra = f"  {level} {value:.4f}"
        print(f"{workload}: {name:<12} median {m['median']:.4f} {m['unit']}{extra}  samples {m['samples']}")
    f = rep["fail_frac"]
    print(f"{workload}: {'fail_frac':<12} {f['value']:.4f}  ({f['failed']} of {f['attempted']} checks failed)")
    print(f"{workload}: report {json.dumps(rep, sort_keys=True)}")


def main() -> int:
    # SIGTERM unwinds like Ctrl-C, so a running worker is killed and waited for
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "ramseykit" / "__init__.py").is_file():
        print("run from the root of a ramseykit checkout: src/ramseykit not found", file=sys.stderr)
        return 2

    names = BENCHMARK if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
        print_report(name, results[name])
    if args.workload != "all":
        res = results[args.workload]
        if res["report"] is None:
            return 1
        final = {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{k}": v for name, r in results.items() if r["report"] for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
