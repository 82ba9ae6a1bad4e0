"""Independent brute-force oracles used to compute expected test values.

These deliberately avoid the library's algorithms: subsets are enumerated
directly, girth is computed by per-vertex BFS, arrowing and witnesses are
decided by checking every one of the 2^m colourings (of a root's completions,
for a rooted search) against precomputed copy
masks, search trees by a plain recursion that rescans every edge against the
copy masks and every permutation at every node, chromatic numbers by trying
every assignment of colours to vertices, automorphisms by trying every one of
the n! vertex permutations, canonical forms by trying every
class-grouped vertex ordering, and refinement by building every vertex's
full signature in every round. Four exceptions lean on the library on
purpose, so that each tests one choice only: the unfiltered enumeration
deduplicates by the library's canonical key, testing which children
enumeration tries; the per-edge minimality checks call the library's
``arrows`` once for every edge deletion, testing which deletions the
library searches, and the per-orbit ones once for every orbit of the
library's ``symmetry.edge_orbits``, testing the library's reuse of good
colourings between deletions; the reference search takes its edge permutations from
``symmetry.edge_perms``, the library's action of Aut(G) on edge indices,
testing which nodes the library's search cuts with them; and
``automorphisms`` closes the library's
``symmetry.generators`` under composition, testing whether they generate
the whole group.
"""
from itertools import combinations, permutations, product

from ramseykit.arrowing import Outcome, arrows
from ramseykit.graphs import Graph, induced_subgraph
from ramseykit.minimal import MinimalityReport
from ramseykit.patterns import Clique, CliquePendant, Colour, pattern_graph
from ramseykit.symmetry import canonical_key, edge_orbits, edge_perms, generators


def brute_clique_number(g: Graph) -> int:
    best = 0
    for size in range(g.n, 0, -1):
        for sub in combinations(range(g.n), size):
            if all(g.has_edge(u, v) for u, v in combinations(sub, 2)):
                return size
    return best


def brute_chromatic_number(g: Graph) -> int:
    """Least c for which some assignment of c colours to the vertices, out of
    all c^n, gives every edge two different colours."""
    edges = g.edges()
    c = 0
    while not any(
        all(col[u] != col[v] for u, v in edges) for col in product(range(c), repeat=g.n)
    ):
        c += 1
    return c


def brute_independence_number(g: Graph) -> int:
    for size in range(g.n, 0, -1):
        for sub in combinations(range(g.n), size):
            if not any(g.has_edge(u, v) for u, v in combinations(sub, 2)):
                return size
    return 0


def bfs_girth(g: Graph):
    """Classic girth of a simple graph via BFS from every vertex."""
    best = float("inf")
    for s in range(g.n):
        dist = {s: 0}
        parent = {s: -1}
        queue = [s]
        while queue:
            nxt = []
            for x in queue:
                for y in range(g.n):
                    if not g.has_edge(x, y):
                        continue
                    if y not in dist:
                        dist[y] = dist[x] + 1
                        parent[y] = x
                        nxt.append(y)
                    elif parent[x] != y:
                        best = min(best, dist[x] + dist[y] + 1)
            queue = nxt
    return best


def copy_edge_masks(g: Graph, pattern) -> list[int]:
    """Bitmask (over the canonical edge order) of every copy of the pattern."""
    index = {e: i for i, e in enumerate(g.edges())}

    def mask(edges) -> int:
        out = 0
        for u, v in edges:
            out |= 1 << index[(u, v) if u < v else (v, u)]
        return out

    masks = []
    if isinstance(pattern, Clique):
        k = pattern.k
        for sub in combinations(range(g.n), k):
            pairs = list(combinations(sub, 2))
            if all(g.has_edge(u, v) for u, v in pairs):
                masks.append(mask(pairs))
    elif isinstance(pattern, CliquePendant):
        k = pattern.k
        for sub in combinations(range(g.n), k):
            pairs = list(combinations(sub, 2))
            if not all(g.has_edge(u, v) for u, v in pairs):
                continue
            for s in sub:
                for w in range(g.n):
                    if w not in sub and g.has_edge(s, w):
                        masks.append(mask(pairs + [(s, w)]))
    else:
        # every injective map of the pattern's vertices that sends edges to
        # edges, each image edge set once
        h = pattern_graph(pattern)
        hedges = h.edges()
        found = set()
        for image in permutations(range(g.n), h.n):
            if all(g.has_edge(image[a], image[b]) for a, b in hedges):
                found.add(mask((image[a], image[b]) for a, b in hedges))
        masks = sorted(found)
    return masks


def naive_arrows(g: Graph, red, blue) -> bool:
    """Exhaustive check of all 2^m colourings; bit set means red."""
    m = g.num_edges
    red_masks = copy_edge_masks(g, red)
    blue_masks = copy_edge_masks(g, blue)
    full = (1 << m) - 1
    for colouring in range(1 << m):
        if any(cm & colouring == cm for cm in red_masks):
            continue
        inverse = full & ~colouring
        if any(cm & inverse == cm for cm in blue_masks):
            continue
        return False  # witness found
    return True


def naive_witness(g: Graph, red, blue):
    """The lex-first colouring, edges in sorted order and red before blue,
    with no red copy of ``red`` and no blue copy of ``blue``; None if every
    colouring has one."""
    m = g.num_edges

    def top_first(cm: int) -> int:  # edge i moves to bit m-1-i
        return sum(1 << (m - 1 - i) for i in range(m) if (cm >> i) & 1)

    red_masks = [top_first(cm) for cm in copy_edge_masks(g, red)]
    blue_masks = [top_first(cm) for cm in copy_edge_masks(g, blue)]
    full = (1 << m) - 1
    # x is the set of blue edges with edge 0 as the top bit, so counting up
    # walks the colourings in lex order
    for x in range(1 << m):
        reds = full & ~x
        if any(cm & reds == cm for cm in red_masks):
            continue
        if any(cm & x == cm for cm in blue_masks):
            continue
        return tuple(
            Colour.BLUE if (x >> (m - 1 - i)) & 1 else Colour.RED for i in range(m)
        )
    return None


def least_good_completion(g: Graph, red, blue, root):
    """The lex-first colouring, edges in sorted order and red before blue,
    that gives every edge in a class of ``root`` (a pair of red and blue
    adjacencies) that class's colour and has no red copy of ``red`` and no
    blue copy of ``blue``; None if every such completion has one. Every
    completion is tried, the first free edge varying slowest."""
    edges = g.edges()
    m = len(edges)
    red_root, blue_root = root
    fixed_blue = sum(1 << i for i, (u, v) in enumerate(edges) if (blue_root[u] >> v) & 1)
    fixed = fixed_blue | sum(1 << i for i, (u, v) in enumerate(edges) if (red_root[u] >> v) & 1)
    free = [i for i in range(m) if not (fixed >> i) & 1]
    red_masks = copy_edge_masks(g, red)
    blue_masks = copy_edge_masks(g, blue)
    full = (1 << m) - 1
    for choice in product((0, 1), repeat=len(free)):  # 1: blue
        blues = fixed_blue | sum(1 << i for i, b in zip(free, choice) if b)
        reds = full & ~blues
        if any(cm & reds == cm for cm in red_masks):
            continue
        if any(cm & blues == cm for cm in blue_masks):
            continue
        return tuple(Colour.BLUE if (blues >> i) & 1 else Colour.RED for i in range(m))
    return None


def reference_search(g: Graph, red, blue):
    """The library's search tree, written plainly. At the root and after
    every branching placement, every uncoloured edge is scanned again and
    again until nothing changes: an edge whose colour c would complete a
    copy from ``copy_edge_masks`` in c's class gets the other colour, and an
    edge with both colours completing a copy is a conflict. A node is one
    branching placement, on the least uncoloured edge, red before blue, and
    edge 0 red only when the targets coincide. It is cut on a conflict, or
    when some permutation from ``symmetry.edge_perms`` maps the colouring at
    the fixpoint to a lex-smaller one, every permutation scanned from
    position 0 past its fixed positions to the first position where either
    side is uncoloured or the two colours differ. Returns (nodes, witness),
    the witness None when the search exhausts."""
    m = g.num_edges
    masks = {Colour.RED: copy_edge_masks(g, red), Colour.BLUE: copy_edge_masks(g, blue)}
    perms = edge_perms(g)
    col: list[Colour | None] = [None] * m
    nodes = 0

    def completes(e: int, c: Colour) -> bool:
        mine = sum(1 << i for i in range(m) if col[i] is c or i == e)
        return any(cm & mine == cm for cm in masks[c])

    def propagate() -> bool:
        changed = True
        while changed:
            changed = False
            for e in range(m):
                if col[e] is not None:
                    continue
                allowed = [c for c in (Colour.RED, Colour.BLUE) if not completes(e, c)]
                if not allowed:
                    return False
                if len(allowed) == 1:
                    col[e] = allowed[0]
                    changed = True
        return True

    def lex_smaller_image() -> bool:
        for pi in perms:
            for j in range(m):
                if pi[j] == j:
                    continue
                x, y = col[j], col[pi[j]]
                if x is None or y is None:
                    break
                if x is not y:
                    if y is Colour.RED:
                        return True
                    break
        return False

    def settle() -> bool:
        """Propagate and check the fixpoint; True when it holds a witness."""
        nonlocal nodes
        if not propagate() or lex_smaller_image():
            return False
        if None not in col:
            return True
        e = col.index(None)
        colours = (Colour.RED,) if red == blue and e == 0 else (Colour.RED, Colour.BLUE)
        saved = list(col)
        for c in colours:
            nodes += 1
            col[e] = c
            if settle():
                return True
            col[:] = saved
        return False

    found = settle()
    return nodes, tuple(col) if found else None


def preserves_adjacency(g: Graph, perm) -> bool:
    """Is the vertex permutation ``perm`` an automorphism of ``g``?"""
    return sorted(perm) == list(range(g.n)) and all(
        g.has_edge(perm[u], perm[v]) == g.has_edge(u, v)
        for u, v in combinations(range(g.n), 2)
    )


def brute_automorphism_count(g: Graph) -> int:
    """Number of the n! vertex permutations that preserve adjacency. A
    permutation prefix that already breaks adjacency is dropped together
    with its extensions, which keeps the Petersen graph's 10! and the
    17-vertex pendant gadget in reach. Vertex v may go to w when w is
    unused and its neighbours among the images of ``0..v-1`` are the images
    of v's neighbours among them."""

    def count(perm: list[int], used: int) -> int:
        v = len(perm)
        if v == g.n:
            return 1
        image = sum(1 << perm[u] for u in range(v) if g.has_edge(u, v))
        total = 0
        for w in range(g.n):
            if not (used >> w) & 1 and g.adj[w] & used == image:
                total += count(perm + [w], used | (1 << w))
        return total

    return count([], 0)


def automorphisms(g: Graph, limit: int = 2000) -> list[tuple[int, ...]]:
    """Vertex automorphisms of ``g`` as permutation tuples, the identity first:
    the closure of ``generators(g)`` under composition, cut off at ``limit``."""
    gens = generators(g)
    out = [tuple(range(g.n))][:limit]
    seen = set(out)
    for p in out:  # grows while it is read: a breadth-first closure
        for s in gens:
            if len(out) >= limit:
                return out
            q = tuple(s[x] for x in p)
            if q not in seen:
                seen.add(q)
                out.append(q)
    return out


def reference_refine(nbrs: list[list[int]], colour: list[int]) -> list[int]:
    """Degree refinement of ``colour`` on the graph with neighbour lists
    ``nbrs``: each round gives every vertex the signature (id, sorted
    neighbour ids) and ranks the signatures, until no class splits."""
    count = len(set(colour))
    while True:
        sig = [(colour[v], tuple(sorted(colour[u] for u in nb))) for v, nb in enumerate(nbrs)]
        ranks = {s: i for i, s in enumerate(sorted(set(sig)))}
        colour = [ranks[s] for s in sig]
        if len(ranks) == count:
            return colour
        count = len(ranks)


def brute_canonical_columns(g: Graph, colour) -> list[int]:
    """The least column string over every vertex ordering that lists the
    vertices grouped by ascending ``colour`` class. Column j holds the
    adjacency of the vertex at position j toward positions 0..j-1, position
    0 in the highest bit."""
    classes = [[v for v in range(g.n) if colour[v] == c] for c in sorted(set(colour))]

    def columns(order):
        return [
            sum(g.has_edge(order[i], order[j]) << (j - 1 - i) for i in range(j))
            for j in range(g.n)
        ]

    return min(
        columns([v for part in parts for v in part])
        for parts in product(*(permutations(cls) for cls in classes))
    )


def brute_subset_orbits(g: Graph) -> list[set[int]]:
    """The orbits of Aut(g) on vertex-subset masks, each automorphism found
    among all n! vertex permutations."""
    auts = [p for p in permutations(range(g.n)) if preserves_adjacency(g, p)]
    orbits, seen = [], set()
    for m in range(1 << g.n):
        if m in seen:
            continue
        orbit = {sum(1 << p[v] for v in range(g.n) if (m >> v) & 1) for p in auts}
        seen |= orbit
        orbits.append(orbit)
    return orbits


def brute_edge_orbits(g: Graph) -> set[frozenset]:
    """The orbits of Aut(g) on the edges of ``g``, each automorphism found
    among all n! vertex permutations."""
    auts = [p for p in permutations(range(g.n)) if preserves_adjacency(g, p)]
    return {
        frozenset(tuple(sorted((p[u], p[v]))) for p in auts) for u, v in g.edges()
    }


def _decided_arrows(g: Graph, p) -> bool:
    verdict = arrows(g, p, p)
    assert verdict.outcome is not Outcome.UNDECIDED
    return verdict.outcome is Outcome.ARROW


def per_edge_is_minimal(g: Graph, p) -> MinimalityReport:
    """The minimality report from one search per edge deletion, in edge
    order: ``failing_edge`` is the first edge whose deletion still arrows."""
    isolated = tuple(v for v in range(g.n) if g.degree(v) == 0)
    if not _decided_arrows(g, p):
        return MinimalityReport(g, p, True, False, None, isolated)
    failing = next((e for e in g.edges() if _decided_arrows(g.without_edge(*e), p)), None)
    return MinimalityReport(g, p, True, True, failing, isolated)


def per_edge_minimalize(g: Graph, p) -> Graph:
    """Delete the edges of ``g`` in edge order, searching each deletion from
    the current graph, whenever arrowing survives; then drop the isolated
    vertices."""
    cur = g
    for e in g.edges():
        if _decided_arrows(cur.without_edge(*e), p):
            cur = cur.without_edge(*e)
    keep = [v for v in range(cur.n) if cur.degree(v) > 0]
    return induced_subgraph(cur, keep) if len(keep) < cur.n else cur


def per_orbit_is_minimal(g: Graph, p) -> MinimalityReport:
    """The minimality report from one search per edge orbit, the orbit's
    least edge, in the order of least edges, with no colouring reused."""
    isolated = tuple(v for v in range(g.n) if g.degree(v) == 0)
    if not _decided_arrows(g, p):
        return MinimalityReport(g, p, True, False, None, isolated)
    reps = [orbit[0] for orbit in edge_orbits(g)]
    failing = next((e for e in reps if _decided_arrows(g.without_edge(*e), p)), None)
    return MinimalityReport(g, p, True, True, failing, isolated)


def per_orbit_minimalize(g: Graph, p) -> Graph:
    """``per_edge_minimalize`` that keeps, without a search, every edge in
    the orbit of a kept edge under the automorphisms of the current graph,
    and reuses no colouring."""
    cur = g
    kept = set()
    for e in g.edges():
        if not cur.has_edge(*e) or e in kept:
            continue
        if _decided_arrows(cur.without_edge(*e), p):
            cur = cur.without_edge(*e)
        else:
            kept.update(next(orbit for orbit in edge_orbits(cur) if e in orbit))
    keep = [v for v in range(cur.n) if cur.degree(v) > 0]
    return induced_subgraph(cur, keep) if len(keep) < cur.n else cur


def unfiltered_classes(n_max: int) -> list[tuple[Graph, ...]]:
    """Canonical representatives of the graphs on 0..n_max vertices, each
    order ascending by canonical key: every subset of every parent's vertices
    is tried as the new vertex's neighbourhood, deduplicated by
    ``canonical_key``."""
    levels = [(), (Graph.empty(1),)]
    for n in range(2, n_max + 1):
        keys = set()
        for parent in levels[-1]:
            for subset in range(1 << (n - 1)):
                adj = [row | (((subset >> v) & 1) << (n - 1)) for v, row in enumerate(parent.adj)]
                keys.add(canonical_key(Graph(n, tuple(adj + [subset]))))
        levels.append(tuple(Graph.from_bits(*k) for k in sorted(keys)))
    return levels[: n_max + 1]
