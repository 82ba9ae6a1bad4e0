"""Ramsey-minimality checks, minimalization, degree surveys, and
Ramsey-equivalence refutation by distinguishing witnesses.

Graph enumeration is built in for up to 9 vertices: graphs are grown one
vertex at a time, once per orbit of the parent's automorphism group on the
new vertex's neighbourhoods. A child is kept only when its new vertex lies in
its top refinement class, the one with the largest id from
``symmetry.refine``; every graph is such a child of some parent (McKay's
canonical augmentation, J. Algorithms 1998, with the top class in place of
the canonically last orbit). The few duplicates left, from top classes of
more than one vertex, are removed by the canonical form of ``symmetry``.
An order is built on up to the usable CPUs: ``forks.map_shares`` deals
its parents out to shares and runs each share but the caller's in a forked
worker. The keys of all shares are merged and sorted, so the order, and
every output built on it, does not depend on the number of workers.
Survey results only ever bound the smallest minimum degree from above
within the searched order range; no claim is made beyond it.

The survey and ``distinguish`` read only verdicts, and one scan,
``_candidates``, feeds them both. It counts each graph in range and drops,
without a search, a graph that cannot arrow H: one with fewer than
2e(H) - 1 edges, which a colouring can split so that neither class has
e(H); one with no copy of H, whose all-red colouring is good; and one with
chi(G) < R(w, w), w = omega(H) (the chi rule; Burr, Erdős & Lovász 1976).
Proof of the chi rule: the complete graph K_{chi(G)} has a colouring with
no monochromatic K_w. Pull it back along a proper colouring of G: the edge
uv takes the colour of the edge between the colours of u and v. The
vertices of a K_w in G have distinct colours, so a monochromatic K_w in G
would give one in K_{chi(G)}. The pulled-back colouring thus has no
monochromatic K_w, and no monochromatic H, which contains a K_w.
The chi rule is tried first by edge count: chi(G) >= k needs C(k, 2)
edges, since a colouring with k = chi(G) colours has an edge between every
two colour classes, or two of them could merge. A graph with fewer than
C(R(w, w), 2) edges is therefore dropped before any copy of H is sought.
The survey builds no graph these edge rules drop. It counts those with
fewer than F = max(2e(H) - 1, C(R(w, w), 2)) edges by edge number (Pólya's
theorem, ``symmetry.graphs_by_edges``) and builds only the graphs with at
most C(n_max, 2) - F non-edges, which hold all the others on every order.
Deleting a vertex adds no non-edge, so the family is hereditary and
``_classes`` builds it under a cap; the full order on n vertices is the one
under the cap C(n, 2), and one cache holds every order built, keyed by order
and cap. ``distinguish``, which reports its graph's rank in the full
enumeration, scans every graph.

``is_minimal`` and ``minimalize`` run one deletion pass (``_deletions``):
it tries the edges of G in lexicographic order and deletes each one whose
deletion still arrows. One pass suffices, since an edge whose deletion
broke arrowing cannot become deletable after further deletions
(monotonicity). A kept edge e keeps its whole orbit under Aut(cur), cur the
current graph (``symmetry.edge_orbits``): an automorphism sigma maps
cur - e onto cur - sigma(e), and every later graph is a subgraph of cur, so
no deletion from the orbit can arrow. Until the first deletion, then, the
edges tried are the least edges of the orbits of Aut(G), in order, and the
first edge deleted is the least edge of G whose deletion arrows.
``is_minimal`` stops there and reports it as ``failing_edge``;
``minimalize`` runs the pass to the end, and ``minimal --minimalize`` reads
its report from the first part and runs the rest of the same pass. The
orbits are computed when an edge is first kept, and again after each
deletion, under the caller's deadline; cut short, they are the orbits of a
subgroup, which are finer, so sharing one verdict per orbit stays sound.

The pass keeps the last good colouring it holds, a colouring with no
monochromatic copy of the target, and repairs it on a deletion before it
searches the deletion in full. A restriction of a good colouring to a
subgraph is good, since each colour class only loses edges. The stored
colouring colours a graph with every edge of the next deletion h but one,
uv, the edge whose deletion gave it and which was then kept. Restricted to
h, with every edge of h at u or v left free (uv among them), it is the
root of a search of h (``arrows`` with ``root``; ``_root``), which leaves
only those edges open. A good completion of the root is a good colouring
of h, so h does not arrow the target, and the completion becomes the
stored colouring. When no completion is good, which says nothing about
h, or the rooted search is undecided, h is searched in full, and when h
does not arrow, the full search's good colouring of h, in h's labels, is
stored in its place. Both searches are exact, so the verdicts, and so the
reports and graphs, are the ones one full search per deletion gives.
Only the edges at u and v are freed. Freeing every edge at a vertex of
N[u] or N[v] settled more deletions of the k = 3 pendant gadget, but one
of its rooted searches took 636 nodes, more than a full search there,
since a rooted search runs without lex-leader pruning.

The pass, the survey and ``distinguish`` read verdicts only, so they
search the host relabelled in smallest-last order (Matula & Beck, JACM
1983; ``_search``). The search branches on edges in lexicographic order,
and this order puts the dense core, where the copies of the target lie,
first; the gadgets' construction labellings, and the canonical labellings
the survey enumerates (ascending refinement class), put low-degree
vertices first. The verdict does not depend on the labelling. The
colouring mapped back from the relabelled witness is good but not the
canonical witness of ``arrows``, so the colourings stored for reuse, and
which deletions they settle, depend on the order, while the verdicts do
not.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator, Optional

from .arrowing import Budget, Outcome, arrows, find_pattern, ramsey_number
from .errors import InputError, Undecided
from .forks import map_shares
from .formats import graph6_encode
from .graphs import Graph, bits, clique_number, colourable, induced_subgraph, mask_of
from .patterns import Clique, Colour, TargetPattern, pattern_graph, pattern_text
from .symmetry import (
    canonical_graph,
    canonical_key,
    edge_orbits,
    graphs_by_edges,
    refine,
    subset_orbit_reps,
)

# canonical_key, canonical_graph and enumerate_graphs stay bound here: the
# benchmark's tracer (perfbench/tracing.py, Tracer.install) looks them up in
# this module with getattr, and without them ``perfbench/run.py --trace 1``
# raises AttributeError. ROADMAP 4(b) drops them with the benchmark change.
__all__ = [
    "MinimalityReport",
    "is_minimal",
    "minimalize",
    "DegreeSurvey",
    "degree_survey",
    "DistinguishReport",
    "distinguish",
    "canonical_key",
    "canonical_graph",
    "enumerate_graphs",
]

_ENUM_LIMIT = 9  # built-in generation bound


# -- enumeration ----------------------------------------------------------------


# _orders[n, cap]: every order built whole, under its clamped cap (_classes)
_orders: dict[tuple[int, int], tuple[Graph, ...]] = {(0, 0): (), (1, 0): (Graph.empty(1),)}


def _classes(n: int, budget: Budget | None = None, cap: int | None = None) -> tuple[Graph, ...] | None:
    """The graphs on ``n`` vertices with at most ``cap`` non-edges, canonical
    representatives ascending by key; ``cap`` defaults to C(n, 2), all graphs.

    Each class on ``n - 1`` vertices (a parent) gains a vertex ``n - 1``
    joined to a subset S of its vertices, one S per orbit of Aut(parent) on
    subsets. The classes are the same as with every S: for an automorphism
    sigma of the parent, sigma extended to fix the new vertex maps the child
    of S onto the child of sigma(S), and every graph on ``n`` vertices is a
    child of the class of its first ``n - 1`` vertices.

    A child is canonicalised only when vertex ``n - 1`` lies in its top
    refinement class, the class with the largest id from ``refine``. This
    loses no class: take a graph X on ``n`` vertices and a vertex x in X's
    top class. X - x is isomorphic to some parent P, so up to Aut(P), X is
    the child of P's orbit representative S, with ``n - 1`` playing the
    part of x. Refinement ids are isomorphism invariant, so that child
    passes the test. Class ids refine the degree order, so the top class
    holds only vertices of maximum degree, and a child whose new vertex has
    a smaller degree fails before it is refined. A top class of more than
    one vertex can still pass two children of one class; the key set
    removes them.

    X - x has no more non-edges than X, so the argument holds inside the
    capped family: the parents are order ``n - 1`` under the same cap, and
    a child of S, ``n - 1 - |S|`` non-edges above its parent, is skipped
    unbuilt when over the cap. Under the cap C(n, 2) no child is skipped.

    ``forks.map_shares`` deals the parents out to shares, runs each share
    but the caller's in a forked worker, and each share computes its key
    set (``_share``). Every key comes from one parent alone, so the union of
    the shares' key sets, sorted, is the same order for any number of
    shares and any dealing.

    Each order built whole is kept in ``_orders`` under ``(n, cap)``, the
    cap clamped. ``budget`` is checked before each parent, in every share;
    once it is spent the order being built is dropped, and the result is None.
    """
    full = n * (n - 1) // 2
    cap = full if cap is None else min(cap, full)
    if (n, cap) in _orders:
        return _orders[n, cap]
    parents = _classes(n - 1, budget, cap)
    if parents is None:
        return None
    shares = map_shares(lambda share, stopped: _share(share, n, stopped, cap), parents, budget)
    if shares is None:
        return None
    order = _orders[n, cap] = tuple(Graph.from_bits(n, k) for k in sorted(set().union(*shares)))
    return order


def _share(parents, n: int, stopped, cap: int) -> set[int] | None:
    """The packed canonical keys of the children of ``parents`` that pass
    the top-class test of ``_classes`` and have at most ``cap`` non-edges;
    None once ``stopped()`` is true before a parent."""
    keys: set[int] = set()
    for parent in parents:
        if stopped():
            return None
        degrees = parent.degrees()
        top = max(degrees)
        top_mask = mask_of(v for v, d in enumerate(degrees) if d == top)
        # the child of S has its parent's non-edges and n - 1 - |S| more
        fewest = (n - 1) * (n - 2) // 2 - parent.num_edges + n - 1 - cap
        for subset in subset_orbit_reps(parent):
            # the child's maximum degree beside the new vertex's: top + 1
            # when the subset meets a parent vertex of degree top
            size = subset.bit_count()
            if size < fewest or top + (subset & top_mask != 0) > size:
                continue
            adj = [row | (((subset >> v) & 1) << (n - 1)) for v, row in enumerate(parent.adj)]
            adj.append(subset)
            child = Graph._trusted(n, tuple(adj))
            colour = refine(child)
            if colour[n - 1] != max(colour):
                continue
            keys.add(canonical_key(child, colour)[1])
    return keys


def enumerate_graphs(n_max: int, budget: Budget | None = None) -> Iterator[Graph | None]:
    """All non-isomorphic graphs with 1..n_max vertices, canonical
    representatives, by vertex count and then canonical form, ended by a
    None for the first order that ``budget`` leaves unbuilt (never without a budget)."""
    _require_order_range(n_max)
    for n in range(1, n_max + 1):
        if (order := _classes(n, budget)) is None:
            yield None
            return
        yield from order


def _require_order_range(n_max: int, enumerated: bool = True) -> None:
    """Reject a negative ``n_max``, and one past ``_ENUM_LIMIT`` when the
    built-in enumeration is to reach it."""
    if n_max < 0:
        raise InputError(f"n_max must be at least 0, got {n_max}")
    if enumerated and n_max > _ENUM_LIMIT:
        raise InputError(f"built-in enumeration is limited to {_ENUM_LIMIT} vertices, got n_max = {n_max}")


# -- minimality ---------------------------------------------------------------


@dataclass(frozen=True)
class MinimalityReport:
    graph: Graph
    pattern: TargetPattern
    decided: bool
    is_ramsey: bool
    failing_edge: Optional[tuple[int, int]]  # first edge whose deletion still arrows
    isolated_vertices: tuple[int, ...]

    @property
    def is_minimal(self) -> bool:
        return self.decided and self.is_ramsey and not (self.failing_edge or self.isolated_vertices)


def _require_no_isolated(p: TargetPattern) -> None:
    """Reject a target with an isolated vertex: minimality drops isolated
    host vertices as never needed, and 2 delta(H) - 1 needs delta(H) >= 1."""
    if 0 in pattern_graph(p).degrees():
        raise InputError(f"target {pattern_text(p)} has an isolated vertex; minimality needs none")


def _smallest_last(g: Graph) -> list[int]:
    """The vertices of ``g`` in smallest-last order (Matula & Beck, JACM
    1983): a vertex of least degree among those left, the least label on
    ties, is deleted until none is left, and the order is the reverse of
    the deletions, so the densest part of ``g`` comes first."""
    left = (1 << g.n) - 1
    deleted = []
    while left:
        v = min(bits(left), key=lambda w: (g.adj[w] & left).bit_count())
        deleted.append(v)
        left &= ~(1 << v)
    return deleted[::-1]


def _relabelled(adj, label: list[int]) -> tuple[int, ...]:
    """The adjacency ``adj`` with each vertex v renamed ``label[v]``."""
    out = [0] * len(adj)
    for v, row in enumerate(adj):
        out[label[v]] = mask_of(label[w] for w in bits(row))
    return tuple(out)


def _search(g: Graph, p: TargetPattern, budget: Budget):
    """The outcome of ``arrows(g, p, p, budget)`` and, for NOT_ARROW, the red
    and blue class adjacencies of a good colouring of ``g`` (else None).

    The search runs on ``g`` relabelled in smallest-last order (see the
    module docstring); the witness, mapped back to ``g``'s labels, is good
    but not canonical."""
    order = _smallest_last(g)
    label = [0] * g.n
    for i, v in enumerate(order):
        label[v] = i
    verdict = arrows(Graph._trusted(g.n, _relabelled(g.adj, label)), p, p, budget)
    if verdict.outcome is not Outcome.NOT_ARROW:
        return verdict.outcome, None
    w = verdict.witness
    return verdict.outcome, (
        _relabelled(w.class_adj(Colour.RED), order),
        _relabelled(w.class_adj(Colour.BLUE), order),
    )


def _root(good, h: Graph):
    """The root that repairs the stored colouring on ``h``.

    ``good`` is (red, blue, uv): the class adjacencies of a good colouring
    of a graph holding every edge of ``h`` but uv. The classes are
    restricted to ``h``, and every edge of ``h`` at u or v is left free,
    so the root fixes the rest (see the module docstring)."""
    red, blue, (u, v) = good
    keep = ~((1 << u) | (1 << v))
    classes = []
    for cls in (red, blue):
        fixed = [c & a & keep for c, a in zip(cls, h.adj)]
        fixed[u] = fixed[v] = 0
        classes.append(fixed)
    return tuple(classes)


def _deletions(
    g: Graph, p: TargetPattern, budget: Budget
) -> Iterator[tuple[tuple[int, int], Optional[Graph]]]:
    """The deletion pass over ``g``, which arrows ``p`` (see the module
    docstring): each deleted edge e with the graph left after it, ended by
    (e, None) at an undecided deletion. A deletion that a search rooted at
    the last good colouring settles gets no full search. The searches and
    the orbits share ``budget``."""
    good = None  # the last good colouring of a deletion
    cur = g
    orbits = None  # edge orbits of Aut(cur), None until needed
    kept: set[tuple[int, int]] = set()
    for e in g.edges():
        if e in kept:
            continue
        smaller = cur.without_edge(*e)
        found = None
        if good is not None:
            verdict = arrows(smaller, p, p, budget, root=_root(good, smaller))
            if verdict.outcome is Outcome.NOT_ARROW:
                w = verdict.witness
                found = (w.class_adj(Colour.RED), w.class_adj(Colour.BLUE), e)
        if found is None:
            outcome, classes = _search(smaller, p, budget)
            if outcome is Outcome.UNDECIDED:
                yield e, None
                return
            if outcome is Outcome.ARROW:
                cur = smaller
                orbits = None
                yield e, cur
                continue
            found = (*classes, e)
        good = found
        if orbits is None:
            orbits = edge_orbits(cur, budget.deadline)
        kept.update(next(orbit for orbit in orbits if e in orbit))


def _minimality(g: Graph, p: TargetPattern, budget: Budget) -> tuple[MinimalityReport, Iterator]:
    """The report of ``is_minimal``, read from the pass up to its first
    deletion, and the rest of the pass from that deletion on, which
    ``_minimalized`` runs; the rest is empty unless ``g`` arrows ``p``."""
    _require_no_isolated(p)
    isolated = tuple(v for v in range(g.n) if g.degree(v) == 0)
    outcome, _ = _search(g, p, budget)
    if outcome is not Outcome.ARROW:
        decided = outcome is Outcome.NOT_ARROW
        return MinimalityReport(g, p, decided, False, None, isolated), iter(())
    rest = _deletions(g, p, budget)
    first = next(rest, None)
    if first is None:
        return MinimalityReport(g, p, True, True, None, isolated), rest
    e, left = first
    decided = left is not None
    report = MinimalityReport(g, p, decided, True, e if decided else None, isolated)
    return report, chain([first], rest)


def _minimalized(g: Graph, rest: Iterator) -> Graph:
    """What the pass ``rest`` leaves of ``g``, without isolated vertices;
    ``Undecided`` when one of its deletions is."""
    cur = g
    for e, cur in rest:
        if cur is None:
            raise Undecided(f"deletion of edge {e} undecided within budget")
    keep = [v for v in range(cur.n) if cur.degree(v) > 0]
    return induced_subgraph(cur, keep) if len(keep) < cur.n else cur


def is_minimal(g: Graph, p: TargetPattern, opts: Budget | None = None) -> MinimalityReport:
    """Check that ``g`` arrows ``p`` while no proper subgraph does.

    Edge deletions suffice by monotonicity; isolated vertices violate
    vertex-minimality on their own. The deletions tried are those of
    ``minimalize``'s pass up to its first: one per orbit of Aut(g) on the
    edges, the orbit's least edge, since g - sigma(e) is isomorphic to
    g - e (see the module docstring). The first that still arrows is
    ``failing_edge``. Every ``arrows`` call and the orbits share ``opts``.
    A target with an isolated vertex raises ``InputError``.
    """
    return _minimality(g, p, opts or Budget())[0]


def minimalize(g: Graph, p: TargetPattern, opts: Budget | None = None) -> Graph:
    """Greedy minimal Ramsey subgraph: delete edges in lexicographic order
    whenever arrowing survives, then drop isolated vertices (the pass of the
    module docstring). Every ``arrows`` call and the orbits share ``opts``.
    A target with an isolated vertex raises ``InputError``."""
    report, rest = _minimality(g, p, opts or Budget())
    if not report.is_ramsey:
        if not report.decided:
            raise Undecided("arrowing of the input graph undecided within budget")
        raise InputError("minimalize requires a graph that arrows the pattern")
    return _minimalized(g, rest)


# -- the scan behind the survey and distinguish ---------------------------------


def _chromatic_floor(p: TargetPattern, n_max: int, budget: Budget) -> int:
    """A lower bound on chi(G) for every graph G on at most ``n_max``
    vertices that arrows ``p``: R(w, w) for w = omega(p), or one more than the
    largest order known to lie below it.

    R is sought on complete graphs up to ``min(n_max, _ENUM_LIMIT)`` vertices
    only, so the cost stays small when R(w, w) is out of reach (R(4, 4) = 18);
    a budget spent on the way leaves a smaller, still valid, bound. The
    searches share ``budget``.
    """
    w = clique_number(pattern_graph(p))
    r = ramsey_number(Clique(w), Clique(w), budget, n_max=min(n_max, _ENUM_LIMIT))
    return r.n if r.decided else r.checked_up_to + 1


def _chromatic_edges(k: int) -> int:
    """C(k, 2), the fewest edges of a graph with chi(G) >= k (see the module
    docstring); K_k has exactly these."""
    return k * (k - 1) // 2


def _candidates(
    p: TargetPattern, n_max: int, graphs: Iterable[Graph] | None, budget: Budget, result
) -> Iterator[Graph]:
    """The graphs of ``graphs`` on at most ``n_max`` vertices that may arrow
    ``p``, in order; by default those of the built-in enumeration, where the
    graphs too sparse to keep are counted and not built (``_dense_graphs``).

    Each graph in range counts in ``result.graphs_checked``; the rules of
    the module docstring drop a counted graph without a search, and the
    first that drops it counts it: too few edges for H, too few for the
    chi rule, no copy of H, and the chi rule itself. Once ``budget`` is
    spent the scan sets ``result.complete`` to False and stops, and it
    builds no further order of the enumeration."""
    min_edges = 2 * pattern_graph(p).num_edges - 1
    chi_floor = _chromatic_floor(p, n_max, budget)
    chi_edges = _chromatic_edges(chi_floor)
    if graphs is None:
        graphs = _dense_graphs(n_max, min_edges, chi_edges, budget, result)
    for g in graphs:
        if g is None or budget.spent():
            result.complete = False
            return
        if g.n > n_max:
            continue
        result.graphs_checked += 1
        m = g.num_edges  # a property that counts every row
        if m < min_edges:
            result.dropped_sparse += 1
        elif m < chi_edges:
            result.dropped_chi_edges += 1
        elif find_pattern(g, p) is None:
            result.dropped_no_copy += 1
        elif colourable(g, chi_floor - 1):
            result.dropped_chi += 1
        else:
            yield g


def _dense_graphs(n_max: int, min_edges: int, chi_edges: int, budget: Budget, result) -> Iterator[Graph | None]:
    """The graphs of ``enumerate_graphs(n_max, budget)`` with at least
    F = max(min_edges, chi_edges) edges (see the module docstring), ended by a
    None at the first order the budget leaves unbuilt or finds spent. Entering
    an order counts its graphs below F in ``result`` as ``_candidates`` would."""
    floor = max(min_edges, chi_edges)
    for n in range(1, n_max + 1):
        if budget.spent():
            yield None
            return
        counts = graphs_by_edges(n)
        result.graphs_checked += sum(counts[:floor])
        result.dropped_sparse += sum(counts[:min_edges])
        result.dropped_chi_edges += sum(counts[min_edges:floor])
        order = _classes(n, budget, n_max * (n_max - 1) // 2 - floor) if n * (n - 1) // 2 >= floor else ()
        if order is None:
            yield None
            return
        yield from (g for g in order if g.num_edges >= floor)


# -- degree survey --------------------------------------------------------------

_SURVEY_CAVEAT = (
    "min_delta only bounds the smallest minimum degree from above within the "
    "searched order range; smaller values may exist at larger orders"
)


@dataclass
class DegreeSurvey:
    pattern: TargetPattern
    n_max: int
    records: list[dict] = field(default_factory=list)
    upper_bound: Optional[int] = None  # r(H) - 1 when supplied
    complete: bool = True
    graphs_checked: int = 0
    # the graphs each rule of ``_candidates`` dropped, in its order; not
    # compared, so that equal reports still mean equal results
    dropped_sparse: int = field(default=0, compare=False)
    dropped_chi_edges: int = field(default=0, compare=False)
    dropped_no_copy: int = field(default=0, compare=False)
    dropped_chi: int = field(default=0, compare=False)
    # the graphs the scan kept that have an isolated vertex, never minimal
    dropped_isolated: int = field(default=0, compare=False)

    @property
    def min_delta(self) -> Optional[int]:
        """The least minimum degree among the records, None without one."""
        return min((rec["delta"] for rec in self.records), default=None)

    @property
    def lower_bound(self) -> int:
        """2*delta(H) - 1"""
        return 2 * min(pattern_graph(self.pattern).degrees()) - 1

    def iter_json_lines(self) -> Iterator[str]:
        for rec in self.records:
            yield json.dumps(rec, sort_keys=True)
        summary = {
            "summary": True,
            "pattern": pattern_text(self.pattern),
            "n_max": self.n_max,
            "minimal_graphs": len(self.records),
            "min_delta": self.min_delta,
            "lower_bound": self.lower_bound,
            "upper_bound": self.upper_bound,
            "complete": self.complete,
            "graphs_checked": self.graphs_checked,
            "caveat": _SURVEY_CAVEAT,
        }
        yield json.dumps(summary, sort_keys=True)


def degree_survey(
    p: TargetPattern,
    n_max: int,
    *,
    opts: Budget | None = None,
    graphs: Iterable[Graph] | None = None,
    r_value: int | None = None,
) -> DegreeSurvey:
    """Survey all candidate graphs up to ``n_max`` vertices for minimal Ramsey
    graphs of ``p`` and report the smallest minimum degree seen.

    ``graphs`` overrides the built-in enumeration (for externally generated
    graph6 streams). ``r_value``, when supplied, records the upper bound
    r(H) - 1 next to the always-available lower bound 2*delta(H) - 1; an
    ``r_value`` with r_value - 1 below that bound raises ``InputError``, as
    s(H) <= r(H) - 1 holds for every H. The survey stops, incomplete, once
    the budget ``opts`` is spent.

    The graphs are those of the scan of the module docstring, less those
    with an isolated vertex, which are never minimal. A target with an
    isolated vertex, or a negative ``n_max``, raises ``InputError``.
    """
    _require_no_isolated(p)
    survey = DegreeSurvey(p, n_max, upper_bound=None if r_value is None else r_value - 1)
    if r_value is not None and survey.upper_bound < survey.lower_bound:
        raise InputError(
            f"r_value - 1 = {survey.upper_bound} is below the lower bound "
            f"2*delta(H) - 1 = {survey.lower_bound}, so r_value cannot be r(H)"
        )
    _require_order_range(n_max, graphs is None)
    budget = opts or Budget()
    for g in _candidates(p, n_max, graphs, budget, survey):
        if 0 in g.degrees():
            survey.dropped_isolated += 1
            continue
        report = is_minimal(g, p, budget)
        if not report.decided:
            survey.complete = False
            continue
        if report.is_minimal:
            survey.records.append(
                {
                    "graph6": graph6_encode(g),
                    "n": g.n,
                    "m": g.num_edges,
                    "delta": min(g.degrees()),
                }
            )
    if survey.min_delta is not None and survey.min_delta < survey.lower_bound:
        raise RuntimeError(
            f"survey found min degree {survey.min_delta} below the lower bound "
            f"{survey.lower_bound}; the arrowing engine is inconsistent"
        )
    return survey


# -- Ramsey-equivalence refutation ------------------------------------------------


@dataclass
class DistinguishReport:
    graph: Optional[Graph] = None  # arrows h1 but not h2
    complete: bool = True
    graphs_checked: int = 0
    # as in ``DegreeSurvey``
    dropped_sparse: int = field(default=0, compare=False)
    dropped_chi_edges: int = field(default=0, compare=False)
    dropped_no_copy: int = field(default=0, compare=False)
    dropped_chi: int = field(default=0, compare=False)


def distinguish(
    h1: TargetPattern,
    h2: TargetPattern,
    n_max: int,
    *,
    opts: Budget | None = None,
) -> DistinguishReport:
    """Search for a graph that arrows ``h1`` but not ``h2``.

    A returned graph refutes Ramsey-equivalence of the two patterns; absence
    within the searched range proves nothing. The search stops, incomplete,
    once the budget ``opts`` is spent. The graphs searched are those of the
    scan of the module docstring for ``h1``. A negative ``n_max`` raises
    ``InputError``.
    """
    _require_order_range(n_max, enumerated=False)
    report = DistinguishReport()
    if h1 == h2:
        return report
    budget = opts or Budget()
    for g in _candidates(h1, n_max, enumerate_graphs(n_max, budget), budget, report):
        outcome, _ = _search(g, h1, budget)
        if outcome is Outcome.ARROW:
            outcome, _ = _search(g, h2, budget)
            if outcome is Outcome.NOT_ARROW:
                report.graph = g
                return report
        if outcome is Outcome.UNDECIDED:
            report.complete = False
    return report
