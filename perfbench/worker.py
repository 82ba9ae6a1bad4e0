"""One repetition of a benchmark workload, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/worker.py <workload> [--trace] [--setup-only]

Set-up (imports, pattern parsing, input construction) runs first, then the
timed phase, then the correctness checks, which are outside the timed phase.
The last line of stdout is one JSON object for ``run.py``. Every instance is
fixed; nothing is drawn at random.

The machine's speed is sampled in the same thread as the workload: a fixed
pure-stdlib loop (the probe) runs after set-up and, from a SIGALRM handler,
every ``PROBE_EVERY_S`` seconds of the timed phase. Probe time inside the
timed phase is taken out of ``wall_s``; ``run.py`` uses the probe times to
express both times at a fixed machine speed.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import signal
import sys
import time
from contextlib import nullcontext, redirect_stdout
from itertools import combinations
from pathlib import Path

from tracing import Tracer, layer_metrics


def _cliques(edges: set, n: int, size: int):
    return [c for c in combinations(range(n), size) if all(e in edges for e in combinations(c, 2))]


def has_clique_union(edges: set, n: int, sizes: list[int]) -> bool:
    """Brute force: does the graph hold vertex-disjoint cliques of ``sizes``?"""
    if not sizes:
        return True
    for c in _cliques(edges, n, sizes[0]):
        rest = {e for e in edges if e[0] not in c and e[1] not in c}
        if has_clique_union(rest, n, sizes[1:]):
            return True
    return False


class Ramsey:
    """``ramsey_number(red, blue)``: verdicts on K_r, K_{r+1}, ..., up to one
    exhaustive ARROW proof on K_n that does nearly all of the work."""

    def __init__(self, red: str, blue: str, n: int, red_sizes, blue_sizes):
        self.red, self.blue, self.n = red, blue, n
        self.sizes = {"RED": red_sizes, "BLUE": blue_sizes}

    def setup(self, tracer):
        from ramseykit import arrowing, patterns

        if tracer:
            tracer.install()
        return arrowing, patterns.parse_pattern(self.red), patterns.parse_pattern(self.blue)

    def run(self, inputs):
        arrowing, red, blue = inputs
        return arrowing.ramsey_number(red, blue)

    def output(self, inputs, report):
        # the canonical witness on K_{n-1}, which the checks inspect
        arrowing, red, blue = inputs
        from ramseykit.graphs import Graph

        verdict = arrowing.arrows(Graph.complete(self.n - 1), red, blue)
        return {"n": report.n, "decided": report.decided, "witness": verdict.witness}

    def check(self, inputs, out):
        arrowing, red, blue = inputs
        from ramseykit.patterns import Colour

        checks = [("ramsey_number", out["decided"] and out["n"] == self.n)]
        w = out["witness"]
        if w is None:
            return checks + [("witness", False)]
        checks.append(
            (
                "witness.find_mono",
                arrowing.find_mono(w, red, Colour.RED) is None
                and arrowing.find_mono(w, blue, Colour.BLUE) is None,
            )
        )
        for colour, sizes in self.sizes.items():
            edges = {e for e, c in zip(w.graph.edges(), w.colours) if c.name == colour}
            checks.append((f"witness.brute_force.{colour.lower()}", not has_clique_union(edges, w.graph.n, sizes)))
        return checks


class Survey:
    """``ramseykit survey`` through ``cli.main``, stdout captured."""

    def __init__(self, argv: list[str], sha256: str):
        self.argv, self.sha256 = argv, sha256

    def setup(self, tracer):
        from ramseykit import cli

        if tracer:
            tracer.install()
        return cli

    def run(self, cli):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(list(self.argv))
        return code, buf.getvalue()

    def output(self, cli, result):
        return result

    def check(self, cli, out):
        code, text = out
        return [
            ("exit_code", code == 0),
            ("stdout_sha256", hashlib.sha256(text.encode()).hexdigest() == self.sha256),
        ]


class MinimalizePendant:
    """``minimalize`` of the k = 3 pendant gadget against K3·K2."""

    def __init__(self, graph6: str):
        self.graph6 = graph6

    def setup(self, tracer):
        from ramseykit import gadgets, minimal, patterns
        from ramseykit.graphs import Graph

        if tracer:
            tracer.install()
        g0 = gadgets.build_g0(3, Graph.cycle(5))
        gadget = gadgets.build_pendant_gadget(3, [g0] * 2)
        return minimal, gadget.graph, patterns.CliquePendant(3)

    def run(self, inputs):
        minimal, g, p = inputs
        return minimal.minimalize(g, p)

    def output(self, inputs, result):
        from ramseykit.formats import graph6_encode

        return graph6_encode(result)

    def check(self, inputs, out):
        return [("graph6", out == self.graph6)]


_SURVEY = ["survey", "--pattern", "K3.K2", "--no-timing", "--nmax"]

WORKLOADS = {
    # R(K3, 2K3) = 8 (Burr, Erdős & Spencer 1975): one 1.26M-node ARROW proof on K8
    "ramsey-k3-2k3": Ramsey("K3", "K3+1K3", 8, [3], [3, 3]),
    "survey-k3k2-n7": Survey(
        _SURVEY + ["7"], "f5ff88ac85c4d52150bcfc4e5cc88a162282830175758ffa6f837112113d0232"
    ),
    "minimalize-pendant3": MinimalizePendant("P~~nNe??G@_F?N?M_FG@x_G?"),
    # the paper-size instances: one repetition takes about a minute, too long
    # for a benchmark run; run them by hand to reproduce the baseline counts
    "ramsey-k3k4": Ramsey("K3", "K4", 9, [3], [4]),
    "survey-k3k2-n8": Survey(
        _SURVEY + ["8"], "d2031673b9fe8214262ab69049848799a20f2b8a6c6f5a8ff237927bd7e6fd1f"
    ),
}


PROBE_ITERATIONS = 80_000  # about 8 ms on an Intel Xeon vCPU
PROBE_EVERY_S = 0.5
PROBES_AFTER_SETUP = 3


def probe() -> float:
    """Seconds for a fixed pure-stdlib CPU loop; imports nothing from ramseykit."""
    t = time.perf_counter()
    x = 0
    for i in range(PROBE_ITERATIONS):
        x = (x * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - t


class Probes:
    """Runs the probe every ``PROBE_EVERY_S`` seconds while active."""

    def __init__(self):
        self.times: list[tuple[float, float]] = []  # (start, seconds)

    def _tick(self, _signum, _frame):
        self.times.append((time.perf_counter(), probe()))

    def inside(self, t0: float, t1: float) -> list[float]:
        return [d for start, d in self.times if t0 <= start < t1]

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


SPANS_DIR = Path(".bench_spans")  # the last traced repetition's spans, per workload


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None

    inputs = wl.setup(tracer)
    ready_mono = time.monotonic()
    result = {"ready_monotonic": ready_mono, "setup_probes": [probe() for _ in range(PROBES_AFTER_SETUP)]}
    if not args.setup_only:
        cpu0 = _cpu_s()
        probes = Probes()
        # no probes inside a traced phase: they would land inside the spans
        with probes if tracer is None else nullcontext():
            t0 = time.perf_counter()
            raw = wl.run(inputs)
            t1 = time.perf_counter()
        cpu1 = _cpu_s()
        in_phase = probes.inside(t0, t1)
        result["probes"] = in_phase + [probe()]  # one after, so a short phase has one too
        if tracer:
            tracer.uninstall()
            result["layers"] = layer_metrics(tracer.spans, t0, t1)
            SPANS_DIR.mkdir(exist_ok=True)
            with open(SPANS_DIR / f"{args.workload}.json", "w") as fh:
                json.dump({"t0": t0, "t1": t1, "spans": tracer.spans}, fh)
        out = wl.output(inputs, raw)
        result.update(
            wall_s=t1 - t0 - sum(in_phase),
            cpu_s=cpu1 - cpu0 - sum(in_phase),
            checks=[[name, bool(ok)] for name, ok in wl.check(inputs, out)],
        )
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
