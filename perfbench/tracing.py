"""In-memory spans around calls into ramseykit's public functions.

The tracer replaces module attributes, so a call that looks a function up in
its module's namespace (``minimal.arrows``, ``arrowing.arrows`` inside
``ramsey_number``, ``cli.degree_survey``) runs through a wrapper that records
a span: name, start, end, parent and a small piece of information taken from
the arguments or the result. Nothing under ``src/`` is edited.
"""
from __future__ import annotations

import sys
import time

# (defining module, function, what to record besides the timing)
TRACED = (
    ("arrowing", "arrows", "verdict"),
    ("arrowing", "find_pattern", None),
    ("arrowing", "ramsey_number", None),
    ("minimal", "canonical_key", None),
    ("minimal", "canonical_graph", None),
    ("minimal", "enumerate_graphs", "generator"),
    ("minimal", "is_minimal", None),
    ("minimal", "degree_survey", "survey"),
    ("minimal", "minimalize", "edges"),
    ("gadgets", "build_g0", None),
    ("gadgets", "build_pendant_gadget", None),
    ("cli", "main", None),
)


class Tracer:
    """Records spans as ``[name, start, end, parent_index, info]`` lists."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _enter(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _exit(self, idx: int, info=None) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[4] = info
        self._open.pop()

    def _wrap(self, name: str, fn, kind):
        tracer = self

        if kind == "generator":
            # drained inside one span, so the span holds all of the
            # generator's work; the caller still sees the same items
            def wrapper(*args, **kwargs):
                idx = tracer._enter(name)
                try:
                    items = list(fn(*args, **kwargs))
                finally:
                    tracer._exit(idx)
                tracer.spans[idx][4] = len(items)
                yield from items

            return wrapper

        def wrapper(*args, **kwargs):
            idx = tracer._enter(name)
            info = None
            try:
                result = fn(*args, **kwargs)
                if kind == "verdict":
                    info = (result.outcome.name, result.nodes)
                elif kind == "survey":
                    info = (len(result.records), result.graphs_checked)
                elif kind == "edges":
                    info = (args[0].num_edges, result.num_edges)
                return result
            finally:
                tracer._exit(idx, info)

        return wrapper

    def install(self) -> None:
        """Wrap every function in ``TRACED`` wherever an imported ramseykit
        module binds it; modules the workload did not import stay untouched."""
        modules = [m for k, m in list(sys.modules.items()) if k == "ramseykit" or k.startswith("ramseykit.")]
        for modname, attr, kind in TRACED:
            home = sys.modules.get(f"ramseykit.{modname}")
            if home is None:
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(f"{modname}.{attr}", original, kind)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, value))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, value in reversed(self._patched):
            setattr(mod, key, value)
        self._patched.clear()


def _nearest_rank(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    k = max(1, -(-len(sorted_values) * q // 100))  # ceil(n * q / 100)
    return sorted_values[int(k) - 1]


def layer_metrics(spans: list[list], t0: float, t1: float) -> dict[str, float]:
    """Per-layer metrics of the spans recorded in one repetition.

    ``t0``/``t1`` bound the timed phase (perf_counter); spans before ``t0``
    belong to set-up.
    """
    calls: dict[str, int] = {}
    secs: dict[str, float] = {}
    for name, start, end, _parent, _info in spans:
        calls[name] = calls.get(name, 0) + 1
        secs[name] = secs.get(name, 0.0) + (end - start)

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return secs.get(name, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    out: dict[str, float] = {}
    arrows = [sp for sp in spans if sp[0] == "arrowing.arrows"]
    nodes = sum(sp[4][1] for sp in arrows)
    out["arrowing.arrows.calls"] = len(arrows)
    out["arrowing.arrows.s"] = s("arrowing.arrows")
    out["arrowing.arrows.nodes"] = nodes
    out["arrowing.arrows.nodes_per_s"] = ratio(nodes, s("arrowing.arrows"))
    for outcome, key in (("ARROW", "arrow"), ("NOT_ARROW", "not_arrow")):
        part = [sp for sp in arrows if sp[4][0] == outcome]
        out[f"arrowing.arrows.{key}.calls"] = len(part)
        out[f"arrowing.arrows.{key}.nodes"] = sum(sp[4][1] for sp in part)
        out[f"arrowing.arrows.{key}.s"] = sum(sp[2] - sp[1] for sp in part)
    call_ms = sorted((sp[2] - sp[1]) * 1e3 for sp in arrows)
    out["arrowing.arrows.call_ms.p50"] = _nearest_rank(call_ms, 50)
    out["arrowing.arrows.call_ms.p99"] = _nearest_rank(call_ms, 99)
    out["arrowing.find_pattern.calls"] = c("arrowing.find_pattern")
    out["arrowing.find_pattern.s"] = s("arrowing.find_pattern")

    for name in ("canonical_key", "canonical_graph", "is_minimal"):
        out[f"minimal.{name}.calls"] = c(f"minimal.{name}")
        out[f"minimal.{name}.s"] = s(f"minimal.{name}")
    classes = sum(sp[4] for sp in spans if sp[0] == "minimal.enumerate_graphs")
    out["minimal.enumerate_graphs.s"] = s("minimal.enumerate_graphs")
    out["minimal.enumerate_graphs.classes"] = classes
    out["minimal.enumerate_graphs.classes_per_s"] = ratio(classes, s("minimal.enumerate_graphs"))
    out["minimal.enumerate_graphs.useful_ratio"] = ratio(classes, c("minimal.canonical_key"))

    surveys = [sp[4] for sp in spans if sp[0] == "minimal.degree_survey"]
    records = sum(rec for rec, _checked in surveys)
    checked = sum(chk for _rec, chk in surveys)
    out["minimal.degree_survey.records"] = records
    out["minimal.is_minimal.useful_ratio"] = ratio(records, c("minimal.is_minimal"))
    if surveys:
        out["minimal.degree_survey.filtered_cheap"] = checked - c("arrowing.find_pattern")
        out["minimal.degree_survey.filtered_pattern"] = c("arrowing.find_pattern") - c("minimal.is_minimal")
    else:
        out["minimal.degree_survey.filtered_cheap"] = 0
        out["minimal.degree_survey.filtered_pattern"] = 0

    out["minimal.minimalize.s"] = s("minimal.minimalize")
    deleted = tried = 0
    for idx, sp in enumerate(spans):
        if sp[0] != "minimal.minimalize":
            continue
        m_in, m_out = sp[4]
        deleted += m_in - m_out
        # the first arrows call checks the input graph; each later one tries a deletion
        tried += sum(1 for ch in spans if ch[3] == idx and ch[0] == "arrowing.arrows") - 1
    out["minimal.minimalize.kept_ratio"] = ratio(deleted, tried)

    out["gadgets.build_g0.s"] = s("gadgets.build_g0")
    out["gadgets.build_pendant_gadget.s"] = s("gadgets.build_pendant_gadget")

    child_s = [0.0] * len(spans)
    for sp in spans:
        if sp[3] >= 0:
            child_s[sp[3]] += sp[2] - sp[1]
    out["cli.main.self_s"] = sum(
        (sp[2] - sp[1]) - child_s[i] for i, sp in enumerate(spans) if sp[0] == "cli.main"
    )

    covered = sum(sp[2] - sp[1] for sp in spans if sp[3] < 0 and sp[1] >= t0)
    out["trace.coverage"] = ratio(covered, t1 - t0)
    return out
