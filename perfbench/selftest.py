"""Negative self-test of the benchmark's correctness gate.

    python3 perfbench/selftest.py        (from the root of a checkout, ~40 s)

For each benchmark workload it runs the instance once, checks the genuine
output (every check must pass), then corrupts the output and checks it again
(``fail_frac`` must rise above 0):

* ramsey: one blue witness edge that closes a red path is flipped to red;
* survey: one stdout byte is altered;
* minimalize: one graph6 byte is altered.

It also feeds the exact-count check two traced repetitions whose node counts
differ. Exits 0 when the gate fires every time, 1 otherwise.
"""
from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

from run import BENCHMARK, EXACT_COUNTS, Run  # noqa: E402
from worker import WORKLOADS  # noqa: E402


def flip_closing_edge(witness):
    """Recolour red the first blue edge uv with a red path u-w-v."""
    from ramseykit.patterns import Colour

    red = {e for e, c in zip(witness.graph.edges(), witness.colours) if c is Colour.RED}
    colours = list(witness.colours)
    for i, (u, v) in enumerate(witness.graph.edges()):
        if colours[i] is Colour.BLUE and any(
            tuple(sorted((u, w))) in red and tuple(sorted((v, w))) in red for w in range(witness.graph.n)
        ):
            colours[i] = Colour.RED
            return replace(witness, colours=tuple(colours))
    raise AssertionError("witness has no blue edge closing a red path")


def alter_byte(text: str) -> str:
    i = len(text) // 2
    return text[:i] + chr(ord(text[i]) ^ 1) + text[i + 1 :]


CORRUPT = {
    "ramsey-k3-2k3": lambda out: dict(out, witness=flip_closing_edge(out["witness"])),
    "survey-k3k2-n7": lambda out: (out[0], alter_byte(out[1])),
    "minimalize-pendant3": alter_byte,
}


def fail_frac(checks) -> float:
    return sum(1 for _name, ok in checks if not ok) / len(checks)


def main() -> int:
    ok = True
    for name in BENCHMARK:
        wl = WORKLOADS[name]
        inputs = wl.setup(None)
        out = wl.output(inputs, wl.run(inputs))
        genuine = fail_frac(wl.check(inputs, out))
        corrupted = fail_frac(wl.check(inputs, CORRUPT[name](out)))
        fired = genuine == 0 and corrupted > 0
        ok &= fired
        print(f"{name}: fail_frac genuine {genuine:.3f}, corrupted {corrupted:.3f} -> {'gate fires' if fired else 'GATE BROKEN'}")

    run = Run(Path.cwd(), BENCHMARK[0])
    layers = {k: 1 for k in EXACT_COUNTS}
    run.traced = [{"layers": layers}, {"layers": dict(layers, **{"arrowing.arrows.nodes": 2})}]
    run.check_counts()
    fired = run.failed != [] and run.attempted == 1
    ok &= fired
    print(f"exact counts: {run.failed} -> {'gate fires' if fired else 'GATE BROKEN'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
