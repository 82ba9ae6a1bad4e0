"""Pigeonhole colour focusing on complete bipartite colourings, and the
iterated two-stage procedure that extracts a rigid colour structure from a
colouring of the block product graph.

Tie-breaking is fixed so identical inputs give identical outputs: colour
patterns are compared as tuples with red before blue, rows ordered by
ascending label; among equally common patterns the least wins, and an exact
majority tie between rows goes to red.

Block indices are 1-based throughout (block j lives on the vertices of the
product's ``V{j}`` block); vertices of the K_h part are addressed by their
graph labels 0..h-1.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .errors import InputError
from .gadgets import BlockGraph
from .graphs import cliques, mask_of
from .patterns import COLOUR_KEY, Colour, EdgeColouring

__all__ = [
    "BipartiteColouring",
    "FocusRows",
    "FocusBlock",
    "focus_rows",
    "focus_block",
    "FocusReport",
    "FocusFailure",
    "iterated_focus",
    "Violation",
    "FocusVerification",
    "verify_focus_report",
    "report_to_json",
    "report_from_json",
]


@dataclass(frozen=True)
class BipartiteColouring:
    """Total red/blue assignment on all pairs between two disjoint vertex sets.

    ``colours`` is ordered by (a, b) with both sides ascending.
    """

    a_side: tuple[int, ...]
    b_side: tuple[int, ...]
    colours: tuple[Colour, ...]

    def __post_init__(self):
        if set(self.a_side) & set(self.b_side):
            raise InputError("the two sides must be disjoint")
        if tuple(sorted(self.a_side)) != self.a_side or tuple(sorted(self.b_side)) != self.b_side:
            raise InputError("sides must be sorted")
        if len(self.colours) != len(self.a_side) * len(self.b_side):
            raise InputError("colouring must cover all pairs exactly")

    @classmethod
    def from_mapping(
        cls,
        a_side,
        b_side,
        mapping: Mapping[tuple[int, int], Colour],
    ) -> "BipartiteColouring":
        a = tuple(sorted(a_side))
        b = tuple(sorted(b_side))
        cols = []
        for x in a:
            for y in b:
                if (x, y) in mapping:
                    cols.append(mapping[(x, y)])
                elif (y, x) in mapping:
                    cols.append(mapping[(y, x)])
                else:
                    raise InputError(f"pair ({x}, {y}) missing from the colouring")
        return cls(a, b, tuple(cols))

    @classmethod
    def between(cls, chi: EdgeColouring, a_side, b_side) -> "BipartiteColouring":
        """Restrict an edge colouring to the complete bipartite graph between
        two vertex sets; every pair must be an edge."""
        a = tuple(sorted(a_side))
        b = tuple(sorted(b_side))
        cols = []
        for x in a:
            for y in b:
                if not chi.graph.has_edge(x, y):
                    raise InputError(f"({x}, {y}) is not an edge; sides must be completely joined")
                cols.append(chi.colour_of(x, y))
        return cls(a, b, tuple(cols))

    def colour_of(self, a: int, b: int) -> Colour:
        i = self.a_side.index(a)
        j = self.b_side.index(b)
        return self.colours[i * len(self.b_side) + j]

    def pattern_of(self, b: int) -> tuple[Colour, ...]:
        """Colours from every a-vertex (ascending) toward ``b``."""
        j = self.b_side.index(b)
        nb = len(self.b_side)
        return tuple(self.colours[i * nb + j] for i in range(len(self.a_side)))


@dataclass(frozen=True)
class FocusRows:
    b_prime: tuple[int, ...]
    row_colours: dict  # a-vertex -> Colour toward b_prime


@dataclass(frozen=True)
class FocusBlock:
    a_prime: tuple[int, ...]
    b_prime: tuple[int, ...]
    colour: Colour


def _pattern_key(pattern: tuple[Colour, ...]) -> tuple[int, ...]:
    return tuple(COLOUR_KEY[c] for c in pattern)


def _largest_bucket(keyed, rows) -> tuple[tuple[int, ...], dict]:
    """Group the (key, item) pairs by key and pick the most common key, the
    least key on ties. Returns that bucket's items ascending and the map
    from ``rows[i]`` to the colour of the key's entry i."""
    buckets: dict[tuple[int, ...], list[int]] = {}
    for key, item in keyed:
        buckets.setdefault(key, []).append(item)
    best_key = min(buckets, key=lambda k: (-len(buckets[k]), k))
    colours = {a: (Colour.RED if best_key[i] == 0 else Colour.BLUE) for i, a in enumerate(rows)}
    return tuple(sorted(buckets[best_key])), colours


def focus_rows(bc: BipartiteColouring) -> FocusRows:
    """Keep the b-vertices sharing the most common colour pattern toward the
    a-side, so every a-vertex is monochromatic toward the survivors.

    Pigeonhole guarantees at least ceil(|B| / 2^|A|) survivors.
    """
    if not bc.a_side or not bc.b_side:
        raise InputError("both sides must be non-empty")
    keyed = ((_pattern_key(bc.pattern_of(b)), b) for b in bc.b_side)
    return FocusRows(*_largest_bucket(keyed, bc.a_side))


def focus_block(bc: BipartiteColouring) -> FocusBlock:
    """Focus rows, then keep the majority-colour rows: at least half the
    a-side survives and every surviving pair carries the returned colour.
    An exact tie between the colours goes to red."""
    rows = focus_rows(bc)
    reds = tuple(a for a in bc.a_side if rows.row_colours[a] is Colour.RED)
    blues = tuple(a for a in bc.a_side if rows.row_colours[a] is Colour.BLUE)
    if len(reds) >= len(blues):
        return FocusBlock(reds, rows.b_prime, Colour.RED)
    return FocusBlock(blues, rows.b_prime, Colour.BLUE)


# -- the iterated procedure ----------------------------------------------------


@dataclass(frozen=True)
class FocusReport:
    """Structured output of the iterated focusing procedure.

    ``j_set`` holds the selected block indices (1-based). ``w_sets[j]`` is the
    vertex set of a monochromatic clique on one less vertex than the small
    target, of colour ``w_colours[j]`` (red by convention when it has no
    edges). ``pair_colours[(i, j)]`` with i < j covers exactly the template
    edges inside the selection, and ``row_colours[v]`` the K_h vertices.
    ``sizes`` records the per-stage subset sizes for the bound bookkeeping.
    """

    j_set: tuple[int, ...]
    w_sets: dict
    w_colours: dict
    pair_colours: dict
    row_colours: dict
    sizes: dict = field(default_factory=dict)


@dataclass(frozen=True)
class FocusFailure:
    """First block whose focused subset carries no monochromatic clique of the
    required size; legitimate at desk scale, where blocks are far below the
    sizes the shrink schedule was designed for."""

    block: int
    subset: tuple[int, ...]
    required_clique: int


def iterated_focus(bg: BlockGraph, chi: EdgeColouring) -> FocusReport | FocusFailure:
    """Run the two-stage focusing procedure on a colouring of a product graph.

    Stage 1 focuses every block against the K_h part and pigeonholes the
    blocks on their row-colour functions, keeping a set J of at least
    n0 / 2^h blocks with one shared function. Stage 2 applies the block
    focusing step to every template edge inside J in ascending lexicographic
    order, shrinking the surviving subsets; the final subset of block j keeps
    at least its scheduled fraction. Each surviving subset is then searched
    for a monochromatic clique on t-1 vertices, red first, ties to the least
    vertex tuple.
    """
    if bg.provenance != "build_product":
        raise InputError("iterated focusing needs a product block graph")
    if chi.graph != bg.graph:
        raise InputError("colouring does not match the block graph")
    params = bg.params
    if params is None:
        raise InputError("product parameters required")
    vh = bg.block("V_H")
    n0 = params.n0
    t = params.t

    # stage 1: per-block row focusing, then pigeonhole on the row functions
    stage1: dict[int, tuple[int, ...]] = {}
    functions: dict[int, tuple[int, ...]] = {}
    for j in range(1, n0 + 1):
        bc = BipartiteColouring.between(chi, vh, bg.block(f"V{j}"))
        rows = focus_rows(bc)
        stage1[j] = rows.b_prime
        functions[j] = _pattern_key(tuple(rows.row_colours[a] for a in vh))
    j_set, row_colours = _largest_bucket(((fn, j) for j, fn in functions.items()), vh)

    # stage 2: pairwise block focusing along template edges inside J
    current: dict[int, tuple[int, ...]] = {j: stage1[j] for j in j_set}
    pair_colours: dict[tuple[int, int], Colour] = {}
    jset = set(j_set)
    template_pairs = sorted(
        (i + 1, j + 1) for i, j in bg.g0.edges() if i + 1 in jset and j + 1 in jset
    )
    for i, j in template_pairs:
        bc = BipartiteColouring.between(chi, current[i], current[j])
        focused = focus_block(bc)
        current[i] = focused.a_prime
        current[j] = focused.b_prime
        pair_colours[(i, j)] = focused.colour

    floors = {j: params.eps_schedule[j - 1] * params.block_sizes[j - 1] for j in j_set}
    sizes = {
        "stage1": {j: len(stage1[j]) for j in range(1, n0 + 1)},
        "final": {j: len(current[j]) for j in j_set},
        "eps_floor": {j: str(floor) for j, floor in floors.items()},
    }
    for j, floor in floors.items():
        # the shrink schedule is exactly the worst case of the two stages
        if len(current[j]) < floor:
            raise RuntimeError(f"block {j} kept {len(current[j])} vertices, below its floor {floor}")

    # find one monochromatic K_{t-1} inside each surviving subset
    w_sets: dict[int, tuple[int, ...]] = {}
    w_colours: dict[int, Colour] = {}
    for j in j_set:
        found = None
        for colour in (Colour.RED, Colour.BLUE):
            tpl = next(cliques(chi.class_adj(colour), mask_of(current[j]), t - 1), None)
            if tpl is not None:
                found = (tpl, colour)
                break
        if found is None:
            return FocusFailure(j, current[j], t - 1)
        w_sets[j], w_colours[j] = found
    return FocusReport(j_set, w_sets, w_colours, pair_colours, row_colours, sizes)


# -- independent verification ------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    item: str  # "a", "b", "c" or "d"
    where: str
    message: str


@dataclass(frozen=True)
class FocusVerification:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_focus_report(bg: BlockGraph, chi: EdgeColouring, report: FocusReport) -> FocusVerification:
    """Re-check every reported property literally against the colouring:
    (a) the selection is large enough, (b) every reported clique is
    monochromatic of its reported colour, (c) template pairs inside the
    selection are monochromatic of their reported colour, (d) every K_h
    vertex is monochromatic toward the union of the cliques. A pair that
    should be an edge of the reported colour and is no edge at all is a
    violation too."""
    params = bg.params
    if params is None:
        raise InputError("product parameters required")
    violations: list[Violation] = []

    def check_edge(item: str, x: int, y: int, colour: Colour) -> None:
        try:
            found = chi.colour_of(x, y)
        except InputError:
            violations.append(Violation(item, f"({x}, {y})", "missing edge"))
            return
        if found is not colour:
            violations.append(Violation(item, f"({x}, {y})", f"edge not {colour.value}"))

    n0, t = params.n0, params.t
    j_set = tuple(sorted(report.j_set))

    bound = Fraction(n0, 2 ** params.h)
    if Fraction(len(j_set)) < bound:
        violations.append(
            Violation("a", f"|J|={len(j_set)}", f"selection smaller than {bound}")
        )
    for j in j_set:
        if not 1 <= j <= n0:
            violations.append(Violation("a", f"j={j}", "block index out of range"))

    for j in j_set:
        w = report.w_sets.get(j)
        if w is None:
            violations.append(Violation("b", f"j={j}", "missing clique"))
            continue
        block = set(bg.block(f"V{j}"))
        if not set(w) <= block:
            violations.append(Violation("b", f"j={j}", "clique leaves its block"))
        if len(w) != t - 1:
            violations.append(
                Violation("b", f"j={j}", f"clique has {len(w)} vertices, needs {t - 1}")
            )
        colour = report.w_colours.get(j)
        for idx, x in enumerate(w):
            for y in w[idx + 1:]:
                check_edge("b", x, y, colour)

    jset = set(j_set)
    expected_pairs = {
        (i + 1, j + 1) for i, j in bg.g0.edges() if i + 1 in jset and j + 1 in jset
    }
    for pair in sorted(expected_pairs):
        if pair not in report.pair_colours:
            violations.append(Violation("c", f"pair {pair}", "missing pair colour"))
            continue
        colour = report.pair_colours[pair]
        i, j = pair
        for x in report.w_sets.get(i, ()):
            for y in report.w_sets.get(j, ()):
                check_edge("c", x, y, colour)

    union = [x for j in j_set for x in report.w_sets.get(j, ())]
    for a in bg.block("V_H"):
        colour = report.row_colours.get(a)
        if colour is None:
            violations.append(Violation("d", f"v={a}", "missing row colour"))
            continue
        for x in union:
            check_edge("d", a, x, colour)

    return FocusVerification(tuple(violations))


# -- JSON form -----------------------------------------------------------------------


def report_to_json(report: FocusReport) -> str:
    doc = {
        "J": list(report.j_set),
        "W": {str(j): list(w) for j, w in sorted(report.w_sets.items())},
        "w_colour": {str(j): c.value for j, c in sorted(report.w_colours.items())},
        "c_pair": {f"{i},{j}": c.value for (i, j), c in sorted(report.pair_colours.items())},
        "c_row": {str(a): c.value for a, c in sorted(report.row_colours.items())},
        "sizes": report.sizes,
    }
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def report_from_json(text: str) -> FocusReport:
    doc = json.loads(text)
    return FocusReport(
        j_set=tuple(doc["J"]),
        w_sets={int(j): tuple(w) for j, w in doc["W"].items()},
        w_colours={int(j): Colour(c) for j, c in doc["w_colour"].items()},
        pair_colours={
            tuple(int(x) for x in key.split(",")): Colour(c)
            for key, c in doc["c_pair"].items()
        },
        row_colours={int(a): Colour(c) for a, c in doc["c_row"].items()},
        # JSON object keys are strings; the block indices are ints
        sizes={
            stage: {int(j): v for j, v in by_block.items()}
            for stage, by_block in doc.get("sizes", {}).items()
        },
    )
