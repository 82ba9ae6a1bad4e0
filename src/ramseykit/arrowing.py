"""Exact two-colour arrowing decisions by exhaustive search with forced-colour
propagation and symmetry breaking.

Determinism contract: the canonical witness is the least colouring, edges in
sorted-pair (lexicographic) order and red before blue, that contains no
monochromatic target (a good colouring). The search finds it as its first
leaf. A colour of an uncoloured edge is forbidden when placing the edge in it
completes a copy of that colour's target; after every placement the search
gives every edge with one colour forbidden the other colour, until nothing
changes (forced-colour propagation, the unit propagation of Davis, Logemann
& Loveland), and backtracks when an edge has both colours forbidden. A
colour's check on an edge runs again only when that colour class has grown
since the edge was last checked; a class that did not grow forbids nothing
new, so the fixpoint is the one a full rescan reaches. It then
branches on the least uncoloured edge, red first. The witness survives
because:
  - every good colouring that extends a partial colouring gives each forced
    edge its forced colour, so propagation cuts only colourings that are not
    good;
  - every edge below the branching edge is already coloured, so the leaves
    of the red subtree all come before those of the blue subtree;
  - the propagation fixpoint does not depend on the order of the scan, since
    a larger colour class only forbids more, so the tree and its node count
    are well defined.
When both targets are equal the first edge is fixed red (colour-swap
symmetry); nothing is forced at the root then, because equal targets forbid
red and blue together. A partial colouring is also pruned when, for a
permutation of the edges from ``symmetry.edge_perms`` (a generator of
Aut(G) or its inverse, acting on edge indices), the image colouring is
lex-smaller at the first position where either side is
uncoloured or the two differ (lex-leader symmetry breaking). The good
colourings are closed under Aut(G) and, for equal targets, under the colour
swap, so their least member is no larger than any of its images: neither
rule cuts it, and neither changes the verdict or the canonical witness.
A search from a root, a partial colouring fixed before the first
propagation, decides the colourings that extend it and finds the least
good completion; it runs without both rules, since its completions are
closed under neither Aut(G) nor the swap unless the root is.
Every placement is checked before it is made, so no colour class ever holds
a copy, and the through-edge checks use that: asked whether adding uv to a
class completes a copy, they look only for copies through uv, and the
CliquePendant check reads degrees before it searches for a clique. The
canonical witness is checked once more in full before it is returned.
Budgets produce an explicit UNDECIDED outcome, never a guess. One
``Budget`` (a wall-clock deadline and a count of search nodes) is made by
the caller and passed down unchanged, so it caps every search of a
computation together. The clique, packing and embedding tests are the
kernels of ``graphs``, but the through-edge check of K3·K2 asks about
cliques of at most 2 vertices on the masks themselves. Copies come from
``patterns.copies``, as in ``cnf``.
"""
from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass
from typing import Optional

from .errors import InputError
from .graphs import Graph, bits, embeddings, has_clique, has_clique_then_packing
from .patterns import (
    Arbitrary,
    Clique,
    CliquePendant,
    CliquePlusCliques,
    Colour,
    EdgeColouring,
    TargetPattern,
    copies,
    largest_component_size,
    pattern_graph,
)
from .symmetry import edge_perms

__all__ = [
    "Outcome",
    "ArrowingVerdict",
    "Budget",
    "find_mono",
    "find_pattern",
    "arrows",
    "ramsey_number",
    "RamseyNumberReport",
]


# -- through-edge completion checks -------------------------------------------


def _through_edge_checker(p: TargetPattern):
    """Build ``check(adj, u, v) -> bool``: would adding the edge (u,v) to the
    colour class whose adjacency is ``adj``, which does not contain it,
    complete a copy of ``p``?

    Precondition: the class holds no copy of ``p``, so every copy the check
    can find uses (u,v). The search keeps this true by induction: the empty
    class holds no copy, and an edge joins a class only when this check
    says no. The checks read only N(u) - v, N(v) - u and masks that exclude
    u and v, so they answer the same whether or not ``adj`` holds (u,v).
    The Clique, CliquePlusCliques and Arbitrary checks find the copies
    through (u,v) in any class; the CliquePendant check is exact only under
    the precondition.

    CliquePendant(k), K_k with one pendant edge. In a class with no K_k·K_2,
    every K_k is a whole component, since a K_k vertex with a neighbour
    outside it would carry a pendant. Let N(x) be the neighbourhood of x in
    the class, without v or u, and C = N(u) & N(v). A copy through uv either
      (a) has uv as its pendant edge: u (or v) lies in a K_k of the class,
          which is its whole component, so |N(u)| = k - 1 and N(u) is a
          clique;
    or
      (b) has uv inside its K_k = {u, v} + T, with T a K_{k-2} inside C.
          If |N(u)| >= k - 1, u has a neighbour outside the K_k, so any T
          will do; likewise for v. Otherwise |N(u)|, |N(v)| <= k - 2 force
          N(u) = N(v) = C = T, and the one candidate K_k needs a pendant at
          a vertex of C.
    For k = 3, T = K1: (b) with a degree of 2 or more asks C != 0, (a) asks
    whether N(u) = {s, a} with sa an edge, and with both degrees at most 1,
    C = {s} and (b) asks whether s has a neighbour besides u and v.

    CliquePlusCliques(k, f, t), K_k + fK_t. With C = N(u) & N(v), a copy
    through uv either has uv in its K_k, which is then {u, v} + T with T a
    K_{k-2} inside C, and the rest of the class without u, v and T holds
    fK_t; or has uv in one of its K_t's, {u, v} + T with T a K_{t-2} inside
    C, and the rest holds K_k + (f-1)K_t. Both questions are asked as
    yes/no questions over masks (``has_clique_then_packing``). They cover
    every copy through uv and find only such copies, so the check is exact
    on any class and needs no precondition. When t = k the copy is
    (f+1)K_k, whose cliques are interchangeable: "uv in a K_t" asks again
    whether the rest holds fK_k, so that branch is skipped.

    CliquePendant(3) has a closure of its own that asks these questions in
    a few mask operations: the general closure pays a kernel call or more
    per check, even for a clique of 0, 1 or 2 vertices, and that call is
    the cost. On the 20,033 checks of the k = 3 pendant gadget's
    minimalization, which made 23,589 ``has_clique`` calls, a check costs
    about 350 ns instead of 470 ns with its call (2-core Xeon, CPython 3.11).
    """
    if isinstance(p, Clique):
        k = p.k
        if k == 1:
            return lambda adj, u, v: False

        def check_clique(adj, u, v):
            return has_clique(adj, adj[u] & adj[v], k - 2)

        return check_clique

    if isinstance(p, CliquePendant):
        k = p.k
        if k == 3:

            def check_pendant3(adj, u, v):
                nu = adj[u] & ~(1 << v)
                nv = adj[v] & ~(1 << u)
                a = nu & (nu - 1)  # N(u) less its least vertex, 0 when |N(u)| <= 1
                b = nv & (nv - 1)
                if a or b:
                    # (b) with any T, else (a): N(u) = {s, a} with sa an edge
                    return (
                        nu & nv != 0
                        or (a != 0 and not a & (a - 1) and adj[a.bit_length() - 1] & nu != 0)
                        or (b != 0 and not b & (b - 1) and adj[b.bit_length() - 1] & nv != 0)
                    )
                # T = C = {s} is the one candidate, and needs a pendant at s
                common = nu & nv
                return common != 0 and adj[common.bit_length() - 1] & ~((1 << u) | (1 << v)) != 0

            return check_pendant3

        def check_pendant(adj, u, v):
            nu = adj[u] & ~(1 << v)
            nv = adj[v] & ~(1 << u)
            du = nu.bit_count()
            dv = nv.bit_count()
            common = nu & nv
            if du >= k - 1 or dv >= k - 1:
                # (b) with any T, else (a)
                return (
                    has_clique(adj, common, k - 2)
                    or (du == k - 1 and has_clique(adj, nu, k - 1))
                    or (dv == k - 1 and has_clique(adj, nv, k - 1))
                )
            # (a) needs a degree of k - 1; in (b), T = C is the one candidate
            if not has_clique(adj, common, k - 2):
                return False
            outside = ~(common | (1 << u) | (1 << v))
            for s in bits(common):
                if adj[s] & outside:
                    return True
            return False

        return check_pendant

    if isinstance(p, CliquePlusCliques):
        k, f, t = p.k, p.f, p.t
        in_k = k >= 2  # uv can lie in the K_k
        in_t = f >= 1 and t >= 2 and t != k  # in a K_t, unless that is the K_k case again

        def check_plus(adj, u, v):
            avail = ((1 << len(adj)) - 1) & ~((1 << u) | (1 << v))
            common = adj[u] & adj[v]
            return (in_k and has_clique_then_packing(adj, common, k - 2, avail, 0, f, t)) or (
                in_t and has_clique_then_packing(adj, common, t - 2, avail, k, f - 1, t)
            )

        return check_plus

    if not isinstance(p, Arbitrary):
        raise InputError(f"unknown pattern type {type(p).__name__}")
    pat = p.graph
    pedges = pat.edges()

    def check_arbitrary(adj, u, v):
        n = len(adj)
        for a, b in pedges:
            for x, y in ((u, v), (v, u)):
                for _ in embeddings(adj, n, pat, {a: x, b: y}):
                    return True
        return False

    return check_arbitrary


# -- global pattern search -----------------------------------------------------


def find_pattern(g: Graph, p: TargetPattern) -> tuple[int, ...] | None:
    """The first copy of ``p`` in ``g`` (colour-blind) in ``patterns.copies`` order,
    or None. A copy is the tuple whose entry i is the vertex of ``g`` that
    vertex i of ``pattern_graph(p)`` maps to."""
    return next(copies(g.adj, g.n, p), None)


def find_mono(c: EdgeColouring, p: TargetPattern, colour: Colour) -> tuple[int, ...] | None:
    """The first copy of ``p`` in the given colour class of ``c``, in
    ``copies`` order and shape (see ``find_pattern``), or None."""
    return next(copies(c.class_adj(colour), c.graph.n, p), None)


# -- the arrowing search --------------------------------------------------------


class Outcome(enum.Enum):
    ARROW = "arrow"
    NOT_ARROW = "not-arrow"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class ArrowingVerdict:
    outcome: Outcome
    witness: Optional[EdgeColouring]
    nodes: int
    seconds: float

    def __post_init__(self):
        if (self.outcome is Outcome.NOT_ARROW) != (self.witness is not None):
            raise InputError("witness present exactly for NOT_ARROW verdicts")


class Budget:
    """The resources of one computation: a ``time.monotonic()`` deadline,
    fixed when the budget is made, and the number of search nodes left
    (None: no limit). A caller makes one and passes the same object to every
    search, and each search charges the nodes it explored, so the limits hold
    for the computation as a whole. A NaN ``seconds`` or ``nodes`` raises
    ``InputError``: every comparison with a NaN is false, so it would
    switch its limit off."""

    __slots__ = ("deadline", "nodes_left")

    def __init__(self, seconds: float | None = None, nodes: int | None = None):
        for limit in (seconds, nodes):
            if limit is not None and math.isnan(limit):
                raise InputError("a Budget limit must not be NaN")
        self.deadline = None if seconds is None else time.monotonic() + seconds
        self.nodes_left = nodes

    def spent(self) -> bool:
        return (self.nodes_left is not None and self.nodes_left <= 0) or (
            self.deadline is not None and time.monotonic() >= self.deadline
        )


def _edgeless_arrow(g: Graph, p: TargetPattern) -> bool:
    """True when every colouring trivially contains ``p`` because the pattern
    has no edges and enough vertices exist."""
    h = pattern_graph(p)
    return h.num_edges == 0 and h.n <= g.n


# int colours of the search, red sorting first; _FREE marks an uncoloured edge
_RED, _BLUE, _FREE = 0, 1, 2
_COLOURS = (Colour.RED, Colour.BLUE)


def _dfs_search(
    g: Graph,
    edges: list[tuple[int, int]],
    red: TargetPattern,
    blue: TargetPattern,
    budget: Budget,
    root: list[int] | None = None,
) -> tuple[Outcome, tuple[Colour, ...] | None, int]:
    """Exhaustive search with forced-colour propagation, on int colours.

    Edge e is ``edges[e]``, and ``edges`` is ``g.edges()``. ``col[e]`` is
    the colour of edge e, or ``_FREE`` while it is uncoloured.
    Placing edge uv in colour c is forbidden when it completes a copy of c's
    target, which the ``_through_edge_checker`` of c decides. After every
    placement, and once at the root, ``propagate`` scans the uncoloured
    edges again and again until nothing changes: an edge with one colour
    forbidden gets the other one, and an edge with both forbidden is a
    conflict. Forbidding is monotone (a larger class only completes more
    copies), so the fixpoint, and whether it has a conflict, does not depend
    on the order of the scan. The scan runs a colour-c check on an edge only
    when class c grew since the edge was last checked: at the root both
    classes count as grown, after a branching placement in c only c has. A
    skipped check is known to say "not forbidden": its class is unchanged
    since a check, or the fixpoint the node started from, allowed that
    colour on the still uncoloured edge. So the fixpoint is the one a full
    rescan reaches; only the number of checks falls. Each frame keeps the
    edges its fixpoint left uncoloured, least (its branching edge) first,
    and the scans below it visit only those. A node is one branching
    placement that was tried: the least uncoloured edge, red, then blue;
    forced colours are not nodes. When the targets are equal, edge 0 is only
    red (colour swap); at the root equal targets forbid red and blue
    together, so nothing is forced there and edge 0 is the first branching
    edge.

    A node is cut on a conflict, or when some edge permutation ``pi`` from
    ``symmetry.edge_perms`` maps the colouring to a lex-smaller one: the
    scan of ``pi`` reads its moved pairs (j, pi[j]) in ascending j and stops
    at the first pair where either edge is uncoloured or the colours differ,
    cutting when col[pi[j]] < col[j]. Fixed positions compare equal even while
    uncoloured. Each permutation is scanned from its start after the
    branching placement and again at the fixpoint; the scans keep no state.

    Invariant: neither colour class holds a copy of its target, as
    ``_through_edge_checker`` requires; its checks read the classes as they
    are, without the edge they ask about. ``place`` colours every edge. A
    forced edge is placed only after both checks, and a fixpoint leaves no
    uncoloured edge with a forbidden colour, so the branching placement
    never completes a copy and needs no check of its own. At a leaf both
    classes are searched in full once more, and a copy raises RuntimeError
    instead of returning a wrong witness.

    ``root``, when given, holds the int colour of each edge, ``_FREE`` for
    an edge it leaves open, and the search decides the colourings that
    extend it. Its edges are placed before the first propagation, which
    checks every free edge against both classes as they are. There is no
    lex-leader pruning and no colour swap, and ``edge_perms`` is not
    called: the good completions of a root are closed under neither
    Aut(g) nor the swap unless the root is. Restricted to completions, the
    argument of the module docstring holds as it stands, so the first leaf
    is the least good completion. Neither root class may hold a copy of
    its target, as the invariant below needs; ``arrows`` checks that.

    The generators of Aut(g) behind ``edge_perms`` run before the first
    node and stop at ``budget.deadline``, keeping the automorphisms found
    so far. The budget is checked once after them, and at every node, so a
    search whose generators ran out of time explores no node. Explores at most
    ``budget.nodes_left`` nodes and stops at the first node after
    ``budget.deadline``; the node that would pass a limit is not explored.
    Returns (outcome, witness colour tuple or None, nodes explored); the
    witness is present exactly for NOT_ARROW, and is ``()`` for a graph
    without edges.
    """
    m = len(edges)
    n = g.n
    adj = ([0] * n, [0] * n)  # red and blue adjacency, indexed by int colour
    red_adj, blue_adj = adj
    check_red, check_blue = _through_edge_checker(red), _through_edge_checker(blue)
    sym = red == blue
    col = [_FREE] * m
    max_nodes = budget.nodes_left
    deadline = budget.deadline
    if root is None:
        perms = [[(j, k) for j, k in enumerate(pi) if j != k] for pi in edge_perms(g, deadline, edges)]
    else:
        sym, perms = False, []
    if budget.spent():  # the generators may have stopped at the deadline
        return Outcome.UNDECIDED, None, 0

    def place(e: int, c: int) -> None:
        """Colour edge e with c, in ``col`` and in c's adjacency."""
        u, v = edges[e]
        a = adj[c]
        a[u] |= 1 << v
        a[v] |= 1 << u
        col[e] = c

    for e, c in enumerate(root or ()):
        if c != _FREE:
            place(e, c)

    def propagate(free, red_grew: bool, blue_grew: bool) -> bool:
        """Colour every forced edge, to the fixpoint; False on a conflict.

        The scan visits the edges of ``free`` in ascending order and skips
        the coloured ones: ``free`` is every edge at the root, and after a
        branch the edges left uncoloured by the fixpoint the frame restores.
        ``red_grew``/``blue_grew`` say which classes grew since that
        fixpoint: both at the root, the branching colour after a branch.
        The scan visits edge e at step ``base + e``, so it last visited e at
        step ``base + e - m``; ``lr``/``lb`` are one past the step of the
        latest red/blue placement, 0 for a class that grew before the scan
        and -m for one that did not. A colour-c check runs only when class
        c grew since the edge's last visit. A skipped check is known to say
        "not forbidden": class c is the same as at that visit, where the c
        check ran and allowed c (the edge would be coloured otherwise) or
        was skipped for the same reason, back to the starting fixpoint,
        where no uncoloured edge has a forbidden colour. The scan stops at
        the end of the first pass that ends m or more steps after the latest
        placement: every edge has then been visited with both classes as
        they are."""
        lr = 0 if red_grew else -m
        lb = 0 if blue_grew else -m
        base = 0
        while True:
            last = base - m  # the step of the previous visit of edge 0
            for e in free:
                if col[e] != _FREE:
                    continue
                u, v = edges[e]
                red_bad = lr > last + e and check_red(red_adj, u, v)
                if lb > last + e and check_blue(blue_adj, u, v):
                    if red_bad:
                        return False
                    place(e, _RED)
                    lr = base + e + 1
                elif red_bad:
                    place(e, _BLUE)
                    lb = base + e + 1
            base += m
            if base >= max(lr, lb) + m:
                return True

    def lex_leader() -> bool:
        """No permutation maps ``col`` to a lex-smaller colouring."""
        for pairs in perms:
            for j, k in pairs:
                x, y = col[j], col[k]
                if x != y or x == _FREE:
                    if x == _BLUE and y == _RED:
                        return False
                    break
        return True

    free = range(m)
    if not (propagate(free, True, True) and lex_leader()):
        return Outcome.ARROW, None, 0
    nodes = 0
    # one frame per open branching edge: [the uncoloured edges, least (the
    # branching edge) first, next colour, the state to restore before each
    # try]
    stack = []
    while free := [e for e in free if col[e] == _FREE]:
        stack.append([free, _RED, col[:], red_adj[:], blue_adj[:]])
        while True:  # to the next node that survives
            if not stack:
                return Outcome.ARROW, None, nodes
            frame = stack[-1]
            free, c, saved_col, saved_red, saved_blue = frame
            e = free[0]
            if c > _BLUE or (sym and e == 0 and c == _BLUE):
                stack.pop()
                continue
            frame[1] = c + 1
            nodes += 1
            if max_nodes is not None and nodes > max_nodes:
                return Outcome.UNDECIDED, None, nodes - 1
            if deadline is not None and time.monotonic() > deadline:
                return Outcome.UNDECIDED, None, nodes - 1
            col[:] = saved_col
            red_adj[:] = saved_red
            blue_adj[:] = saved_blue
            place(e, c)
            if lex_leader() and propagate(free, c == _RED, c == _BLUE) and lex_leader():
                break
    # canonical: the first leaf in lex order; a copy here means a
    # through-edge check broke its contract
    if (
        next(copies(red_adj, n, red), None) is not None
        or next(copies(blue_adj, n, blue), None) is not None
    ):
        raise RuntimeError("search witness contains a monochromatic target")
    return Outcome.NOT_ARROW, tuple(_COLOURS[x] for x in col), nodes


def _root_colours(g: Graph, edges: list[tuple[int, int]], root) -> list[int]:
    """The int colour of each of ``edges``, the edges of ``g``, under
    ``root``, a pair (red, blue) of class adjacencies, ``_FREE`` for an edge
    in neither; an ``InputError`` unless ``root`` is a pair of ``g.n`` int
    rows each and the classes are disjoint symmetric subgraphs of ``g``."""
    try:
        red, blue = (list(a) for a in root)
    except (TypeError, ValueError):
        raise InputError("a root is a pair (red, blue) of class adjacencies") from None
    if len(red) != g.n or len(blue) != g.n or not all(isinstance(row, int) for row in red + blue):
        raise InputError(f"root classes need {g.n} int adjacency rows")
    col = []
    rebuilt = ([0] * g.n, [0] * g.n)
    for u, v in edges:
        r, b = (red[u] >> v) & 1, (blue[u] >> v) & 1
        if r and b:
            raise InputError(f"root colours edge ({u}, {v}) both red and blue")
        c = _RED if r else _BLUE if b else _FREE
        col.append(c)
        if c != _FREE:
            rebuilt[c][u] |= 1 << v
            rebuilt[c][v] |= 1 << u
    if rebuilt != (red, blue):
        raise InputError("root classes must be symmetric and hold only edges of the host")
    return col


def arrows(
    g: Graph,
    red: TargetPattern,
    blue: TargetPattern,
    opts: Budget | None = None,
    *,
    root: tuple | None = None,
) -> ArrowingVerdict:
    """Decide whether every red/blue colouring of E(g) contains a red copy of
    ``red`` or a blue copy of ``blue``.

    NOT_ARROW verdicts carry the canonical witness colouring. A budget that
    is spent on entry or runs out during the search yields UNDECIDED; the
    nodes explored are charged to ``opts``.

    ``root``, a pair (red, blue) of disjoint class adjacencies, each a
    subgraph of ``g``, asks instead about the colourings that extend it: the
    search fixes its edges before the first propagation and runs without
    lex-leader pruning and without the colour swap, which an asymmetric root
    would make unsound. A NOT_ARROW witness is then the least good
    completion of the root, and a root class that holds a copy of its
    target gives ARROW with 0 nodes. A root that is not such a pair raises
    ``InputError``.
    """
    edges = g.edges()
    col = None if root is None else _root_colours(g, edges, root)
    budget = opts or Budget()
    if budget.spent():
        return ArrowingVerdict(Outcome.UNDECIDED, None, 0, 0.0)
    start = time.monotonic()

    trivial = _edgeless_arrow(g, red) or _edgeless_arrow(g, blue)
    if root is not None and not trivial:
        trivial = any(next(copies(a, g.n, p), None) is not None for a, p in zip(root, (red, blue)))
    if trivial:
        return ArrowingVerdict(Outcome.ARROW, None, 0, time.monotonic() - start)

    outcome, wit, nodes = _dfs_search(g, edges, red, blue, budget, col)
    if budget.nodes_left is not None:
        budget.nodes_left -= nodes
    witness = None if wit is None else EdgeColouring(g, wit)
    return ArrowingVerdict(outcome, witness, nodes, time.monotonic() - start)


# -- Ramsey numbers --------------------------------------------------------------


@dataclass(frozen=True)
class RamseyNumberReport:
    n: int | None  # the Ramsey number, when decided
    checked_up_to: int  # largest n with a resolved verdict
    nodes: int

    @property
    def decided(self) -> bool:
        return self.n is not None


def ramsey_number(
    red: TargetPattern,
    blue: TargetPattern,
    opts: Budget | None = None,
    *,
    n_max: int | None = None,
) -> RamseyNumberReport:
    """Smallest n such that the complete graph on n vertices arrows the pair.

    Increments n from 1 when either pattern is edgeless, and otherwise from
    the largest component size of either pattern: below it, colouring every
    edge in that pattern's colour leaves the other colour class empty. On
    budget exhaustion, or after order ``n_max`` when given, reports the last
    resolved order. Every resolved order is below the Ramsey number."""
    if pattern_graph(red).num_edges and pattern_graph(blue).num_edges:
        n = max(largest_component_size(red), largest_component_size(blue))
    else:
        n = 1
    nodes = 0
    resolved = n - 1
    while True:
        if n_max is not None and n > n_max:
            return RamseyNumberReport(None, resolved, nodes)
        verdict = arrows(Graph.complete(n), red, blue, opts)
        nodes += verdict.nodes
        if verdict.outcome is Outcome.UNDECIDED:
            return RamseyNumberReport(None, resolved, nodes)
        resolved = n
        if verdict.outcome is Outcome.ARROW:
            return RamseyNumberReport(n, resolved, nodes)
        n += 1
