"""Finite simple graphs and uniform hypergraphs with exact solvers, and the
bitmask subgraph kernels (cliques, clique packings, embeddings) that the
search, ``patterns.copies`` and focusing share.

Vertices are always the integers ``0..n-1`` with no gaps. Graphs are
immutable; adjacency is stored as one bitmask per vertex. The exact clique
and independence routines are designed for up to 64 vertices, where
``clique_number`` takes ~1 ms on K64, 0.3-0.6 ms on co-C63 and co-C64, and
3-42 ms on G(64, 0.8) and G(64, 0.9) (2-core Xeon, CPython 3.11). All
functions here are pure.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator

from .errors import InputError

__all__ = [
    "Graph",
    "Hypergraph",
    "clique_number",
    "colourable",
    "independence_number",
    "induced_subgraph",
    "hyper_girth",
    "hyper_alpha",
    "bits",
    "mask_of",
    "components",
    "has_clique",
    "cliques",
    "packings",
    "has_clique_then_packing",
    "embeddings",
    "shortest_circuit",
]

INFINITE = math.inf  # girth of a circuit-free hypergraph


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask with the bits of ``vertices`` set; the inverse of ``bits``."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: no loops, no multi-edges, labels 0..n-1."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0:
            raise InputError("vertex count must be non-negative")
        if len(self.adj) != self.n:
            raise InputError("adjacency table length must equal vertex count")
        full = (1 << self.n) - 1 if self.n else 0
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise InputError(f"vertex {v} has a neighbour out of range")
            if (row >> v) & 1:
                raise InputError(f"vertex {v} has a self-loop")
        for v, row in enumerate(self.adj):
            for u in bits(row):
                if not (self.adj[u] >> v) & 1:
                    raise InputError(f"adjacency is not symmetric at ({u}, {v})")

    @classmethod
    def _trusted(cls, n: int, adj: tuple[int, ...]) -> "Graph":
        """The graph with adjacency ``adj``, built without the checks of
        ``__post_init__``. Only for internal builders whose ``adj`` is
        symmetric, loop-free and in range by construction."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", adj)
        return g

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, tuple(adj))

    @classmethod
    def from_bits(cls, n: int, packed: int) -> "Graph":
        """The graph on ``n >= 0`` vertices whose ``bits()`` are ``packed``.
        Bits beyond the n(n-1)/2 of the triangle are ignored. The adjacency
        is symmetric and loop-free by construction, so it skips validation.
        Only the set bits of each column are visited: bit p of column j is
        the pair (j - 1 - p, j)."""
        adj = [0] * n
        for j in range(n - 1, 0, -1):
            col = packed & ((1 << j) - 1)
            packed >>= j
            while col:
                low = col & -col
                col ^= low
                i = j - low.bit_length()
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        return cls._trusted(n, tuple(adj))

    # -- basic accessors ---------------------------------------------------

    def edges(self) -> list[tuple[int, int]]:
        """Edge list as sorted pairs in lexicographic order."""
        out = []
        for u in range(self.n):
            row = self.adj[u] >> (u + 1)
            for d in bits(row):
                out.append((u, u + 1 + d))
        return out

    def bits(self) -> int:
        """The upper triangle as one integer, the graph6 payload: the pairs
        (i, j) with i < j ordered by j, then by i, the first pair the most
        significant bit. Packed a column at a time, as ``canonical_key``
        packs its columns: a shift per bit costs quadratic big-integer work."""
        packed = 0
        for j in range(1, self.n):
            col = 0
            row = self.adj[j]
            for i in range(j):
                col = (col << 1) | ((row >> i) & 1)
            packed = (packed << j) | col
        return packed

    def edge_index(self, u: int, v: int) -> int:
        """Position of the edge uv in ``edges()``, counted from the adjacency
        rows: the edges (w, x) with w < min(u, v) come before it, and so do
        those from min(u, v) to a vertex below max(u, v)."""
        if u > v:
            u, v = v, u
        if not (0 <= u and v < self.n and (self.adj[u] >> v) & 1):
            raise InputError(f"({u}, {v}) is not an edge of the graph")
        rank = sum((self.adj[w] >> (w + 1)).bit_count() for w in range(u))
        return rank + (self.adj[u] >> (u + 1) & ((1 << (v - u - 1)) - 1)).bit_count()

    @property
    def num_edges(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> list[int]:
        return [row.bit_count() for row in self.adj]

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        return Graph(self.n, tuple((full & ~row) & ~(1 << v) for v, row in enumerate(self.adj)))

    def without_edge(self, u: int, v: int) -> "Graph":
        if not self.has_edge(u, v):
            raise InputError(f"edge ({u}, {v}) not present")
        adj = list(self.adj)
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
        return Graph(self.n, tuple(adj))

    # -- fixtures ----------------------------------------------------------

    @staticmethod
    def empty(n: int) -> "Graph":
        return Graph(n, (0,) * n)

    @staticmethod
    def complete(n: int) -> "Graph":
        return Graph.from_edges(n, combinations(range(n), 2))

    @staticmethod
    def path(n: int) -> "Graph":
        return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))

    @staticmethod
    def cycle(n: int) -> "Graph":
        if n < 3:
            raise InputError("a cycle needs at least 3 vertices")
        return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    @staticmethod
    def petersen() -> "Graph":
        """Petersen graph; vertices 0..4 are the outer 5-cycle, 5..9 the inner star."""
        edges = [(i, (i + 1) % 5) for i in range(5)]
        edges += [(i, i + 5) for i in range(5)]
        edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        return Graph.from_edges(10, edges)

    @staticmethod
    def disjoint_union(parts: Iterable["Graph"]) -> "Graph":
        offset = 0
        edges: list[tuple[int, int]] = []
        for g in parts:
            edges += [(u + offset, v + offset) for u, v in g.edges()]
            offset += g.n
        return Graph.from_edges(offset, edges)


# -- exact clique / independence -------------------------------------------


def _colour_sort(adj: tuple[int, ...], cand: int) -> tuple[list[int], list[int]]:
    """Greedy colouring of the vertices in ``cand``; returns (order, bounds).

    Vertices appear grouped by colour class; ``bounds[i]`` is the number of
    classes used up to and including ``order[i]``, an upper bound on the size
    of any clique within ``order[:i+1]``.
    """
    order: list[int] = []
    bounds: list[int] = []
    colour = 0
    left = cand
    while left:
        colour += 1
        q = left
        while q:
            b = q & -q
            v = b.bit_length() - 1
            q &= ~adj[v]
            q ^= b
            left ^= b
            order.append(v)
            bounds.append(colour)
    return order, bounds


def colourable(g: Graph, c: int) -> bool:
    """Whether ``g`` has a proper vertex colouring with at most ``c`` colours.

    Exact backtrack over bitmask colour classes. The next vertex is the most
    constrained one: the fewest colours left open to it. A vertex opens a new
    class only as the next unused one, so colourings that differ by a renaming
    of colours are tried once. A branch succeeds as soon as its uncoloured
    vertices are no more than its unused colours, each taking a fresh one.
    """
    return _place(g.adj, [0] * max(c, 0), c, (1 << g.n) - 1, 0)


def _place(adj: tuple[int, ...], classes: list[int], c: int, left: int, used: int) -> bool:
    """The backtrack of ``colourable``: can the vertices of ``left`` join the
    ``used`` classes in ``classes`` or ``c - used`` new ones?"""
    if left.bit_count() <= c - used:
        return True
    best, best_free, best_count = 0, 0, c + 1
    q = left
    while q:
        b = q & -q
        q ^= b
        nbrs = adj[b.bit_length() - 1]
        free = count = 0
        for k in range(used):
            if not classes[k] & nbrs:
                free |= 1 << k
                count += 1
        if used < c:
            count += 1
        if count < best_count:
            if count == 0:
                return False
            best, best_free, best_count = b, free, count
    left ^= best
    while best_free:
        k = (best_free & -best_free).bit_length() - 1
        best_free &= best_free - 1
        classes[k] |= best
        if _place(adj, classes, c, left, used):
            return True
        classes[k] ^= best
    if used < c:
        classes[used] = best
        if _place(adj, classes, c, left, used + 1):
            return True
        classes[used] = 0
    return False


def clique_number(g: Graph) -> int:
    """Largest c such that ``g`` contains the complete graph on c vertices;
    0 for the graph on zero vertices.

    Exact branch and bound with greedy colouring bounds, designed for up to
    64 vertices: ~1 ms on K64, 0.3-0.6 ms on co-C63 and co-C64, 3-42 ms on
    G(64, 0.8/0.9). The colour bound refutes omega + 1 cheaply; counting up
    through ``has_clique`` costs 4 times more per 4 more vertices of a cycle
    complement (2.8 ms at co-C28).
    """
    if g.n == 0:
        return 0
    return _expand(g.adj, 0, (1 << g.n) - 1, 0)


def _expand(adj: tuple[int, ...], size: int, cand: int, best: int) -> int:
    """The branch and bound of ``clique_number``: the largest of ``best`` and
    the cliques that extend a ``size``-clique by vertices of ``cand``."""
    order, bounds = _colour_sort(adj, cand)
    for i in range(len(order) - 1, -1, -1):
        if size + bounds[i] <= best:
            return best
        v = order[i]
        if size + 1 > best:
            best = size + 1
        nc = cand & adj[v]
        if nc:
            best = _expand(adj, size + 1, nc, best)
        cand ^= 1 << v
    return best


def independence_number(g: Graph) -> int:
    """Largest independent set size, computed as the clique number of the complement."""
    return clique_number(g.complement())


def components(g: Graph) -> list[int]:
    """Vertex masks of the connected components, ordered by least vertex."""
    out = []
    left = (1 << g.n) - 1
    while left:
        comp = left & -left
        frontier = comp
        while frontier:
            reach = 0
            for v in bits(frontier):
                reach |= g.adj[v]
            frontier = reach & ~comp
            comp |= frontier
        out.append(comp)
        left &= ~comp
    return out


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph induced on ``vertices``, relabelled 0..k-1 in ascending label order."""
    vs = sorted(set(vertices))
    for v in vs:
        if not (0 <= v < g.n):
            raise InputError(f"vertex {v} out of range for n={g.n}")
    index = {v: i for i, v in enumerate(vs)}
    edges = [
        (index[u], index[v]) for u, v in combinations(vs, 2) if g.has_edge(u, v)
    ]
    return Graph.from_edges(len(vs), edges)


# -- subgraph kernels (bitmask adjacency) ------------------------------------


def has_clique(adj: tuple[int, ...], mask: int, size: int) -> bool:
    """Does ``mask`` hold a clique on ``size`` vertices?"""
    if size <= 1:
        return size <= 0 or mask != 0
    if size == 2:
        m = mask
        while m:
            b = m & -m
            if adj[b.bit_length() - 1] & mask:
                return True
            m ^= b
        return False
    if mask.bit_count() < size:
        return False
    while mask:
        b = mask & -mask
        v = b.bit_length() - 1
        mask ^= b
        if has_clique(adj, mask & adj[v], size - 1):
            return True
        if mask.bit_count() < size:
            return False
    return False


def cliques(adj, mask: int, size: int, prefix: tuple = ()) -> Iterator[tuple[int, ...]]:
    """All cliques of the given size inside ``mask`` as ascending vertex tuples,
    in lexicographic order."""
    if size == 0:
        yield prefix
        return
    while mask:
        if mask.bit_count() < size:
            return
        b = mask & -mask
        v = b.bit_length() - 1
        mask ^= b
        yield from cliques(adj, mask & adj[v], size - 1, prefix + (v,))


def packings(adj, avail: int, k: int, f: int, t: int, prefix: tuple = ()) -> Iterator[tuple[int, ...]]:
    """Every copy of K_k + fK_t inside ``avail``, as ``prefix`` followed by
    the K_k's vertex tuple and the f disjoint K_t's tuples ordered by least
    vertex, in lexicographic order of the K_k, then of the K_t's one by one.
    With k = 0 these are the packings of f t-cliques."""
    if avail.bit_count() < k + f * t:
        return
    if k:
        for head in cliques(adj, avail, k, prefix):
            yield from packings(adj, avail & ~mask_of(head), 0, f, t, head)
    elif f == 0:
        yield prefix
    else:
        for tpl in cliques(adj, avail, t, prefix):
            # the later K_t's start above this one
            above = avail & ~mask_of(tpl) & ~((2 << tpl[-t]) - 1)
            yield from packings(adj, above, 0, f - 1, t, tpl)


def _has_packing(adj, avail: int, k: int, f: int, t: int) -> bool:
    """Does ``avail`` hold a copy of K_k + fK_t? The answer is
    ``next(packings(adj, avail, k, f, t), None) is not None``, found by
    ``packings``'s recursion (the K_k first, then each later K_t above the
    previous one's least vertex) without building the packing."""
    if avail.bit_count() < k + f * t:
        return False
    if f == 0:
        return has_clique(adj, avail, k)
    if k:
        return has_clique_then_packing(adj, avail, k, avail, 0, f, t)
    if f == 1:
        return has_clique(adj, avail, t)
    m = avail
    while m.bit_count() >= f * t:
        b = m & -m
        m ^= b  # the vertices of avail above v, the K_t's least vertex
        if has_clique_then_packing(adj, m & adj[b.bit_length() - 1], t - 1, m, 0, f - 1, t):
            return True
    return False


def has_clique_then_packing(adj, cand: int, size: int, rest: int, k: int, f: int, t: int) -> bool:
    """Is there a clique Q on ``size`` vertices inside ``cand`` such that
    ``rest`` without Q holds a copy of K_k + fK_t?"""
    if size == 0:
        return _has_packing(adj, rest, k, f, t)
    while cand.bit_count() >= size:
        b = cand & -cand
        cand ^= b
        if has_clique_then_packing(adj, cand & adj[b.bit_length() - 1], size - 1, rest & ~b, k, f, t):
            return True
    return False


def embeddings(adj, n: int, pat: Graph, partial: dict[int, int]) -> Iterator[tuple[int, ...]]:
    """Every completion of a partial pattern-vertex to host-vertex
    monomorphism, as the tuple whose entry i is the image of pattern vertex
    i, in backtrack order: the next pattern vertex is the one with the most
    images among its neighbours, the least on ties, and its image ascends."""
    todo = [a for a in range(pat.n) if a not in partial]
    return _embed(adj, n, pat, dict(partial), mask_of(partial.values()), todo)


def _embed(adj, n: int, pat: Graph, assigned: dict, used: int, todo: list):
    """The backtrack of ``embeddings``: ``assigned`` maps the pattern
    vertices placed so far to their images, ``used`` masks those images and
    ``todo`` lists the pattern vertices left."""
    if not todo:
        yield tuple(assigned[a] for a in range(pat.n))
        return
    best_i = 0
    best_cnt = -1
    for i, a in enumerate(todo):
        cnt = sum(1 for b in bits(pat.adj[a]) if b in assigned)
        if cnt > best_cnt:
            best_cnt, best_i = cnt, i
    a = todo[best_i]
    rest = todo[:best_i] + todo[best_i + 1:]
    cand = ~used & ((1 << n) - 1)
    for b in bits(pat.adj[a]):
        if b in assigned:
            cand &= adj[assigned[b]]
    for x in bits(cand):
        assigned[a] = x
        yield from _embed(adj, n, pat, assigned, used | (1 << x), rest)
    assigned.pop(a, None)


# -- hypergraphs -------------------------------------------------------------


@dataclass(frozen=True)
class Hypergraph:
    """u-uniform hypergraph on vertices 0..n-1 with distinct edges."""

    n: int
    u: int
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 0:
            raise InputError("vertex count must be non-negative")
        if self.u < 2:
            raise InputError("uniformity must be at least 2")
        seen = set()
        for e in self.edges:
            if len(e) != self.u or len(set(e)) != self.u:
                raise InputError(f"edge {e} is not a {self.u}-element set")
            if tuple(e) != tuple(sorted(e)):
                raise InputError(f"edge {e} is not sorted")
            if any(not 0 <= v < self.n for v in e):
                raise InputError(f"edge {e} out of range for n={self.n}")
            if e in seen:
                raise InputError(f"duplicate edge {e}")
            seen.add(e)

    @classmethod
    def from_edges(cls, n: int, u: int, edges: Iterable[Iterable[int]]) -> "Hypergraph":
        normalized = sorted({tuple(sorted(e)) for e in edges})
        return cls(n, u, tuple(normalized))

    @property
    def num_edges(self) -> int:
        return len(self.edges)


def shortest_circuit(h: Hypergraph) -> tuple[int, tuple[int, ...]] | None:
    """Shortest circuit as (length, participating edge indices), or None.

    A circuit of length s alternates s distinct edges and s distinct vertices,
    consecutive edges sharing the vertex between them and the last edge
    sharing a vertex with the first; two edges meeting in two or more
    vertices already form a circuit of length 2. Equivalently, circuits of
    length s are the cycles of length 2s in the bipartite incidence graph,
    which is searched here breadth-first once per incidence link.
    """
    n, m = h.n, len(h.edges)
    if m == 0:
        return None
    # incidence graph: nodes 0..n-1 are vertices, n..n+m-1 are edges
    nbr: list[list[int]] = [[] for _ in range(n + m)]
    for i, e in enumerate(h.edges):
        for v in e:
            nbr[v].append(n + i)
            nbr[n + i].append(v)
    best_len: float = math.inf
    best_path: list[int] | None = None
    for i, e in enumerate(h.edges):
        enode = n + i
        for v in e:
            # shortest cycle through the link (v, enode): remove it, BFS v -> enode
            dist = [-1] * (n + m)
            parent = [-1] * (n + m)
            dist[v] = 0
            q = deque([v])
            found = False
            while q and not found:
                x = q.popleft()
                if dist[x] + 1 >= best_len:
                    break
                for y in nbr[x]:
                    if (x == v and y == enode) or (x == enode and y == v):
                        continue
                    if dist[y] < 0:
                        dist[y] = dist[x] + 1
                        parent[y] = x
                        if y == enode:
                            found = True
                            break
                        q.append(y)
            if found and dist[enode] + 1 < best_len:
                best_len = dist[enode] + 1
                path = [enode]
                while path[-1] != v:
                    path.append(parent[path[-1]])
                best_path = path
    if best_path is None:
        return None
    circuit_edges = tuple(sorted(x - n for x in best_path if x >= n))
    return int(best_len) // 2, circuit_edges


def hyper_girth(h: Hypergraph) -> int | float:
    """Length of the shortest circuit of ``h``, or ``math.inf`` when none exists."""
    found = shortest_circuit(h)
    return INFINITE if found is None else found[0]


def hyper_alpha(h: Hypergraph) -> int:
    """Largest size of a vertex set containing no hyperedge entirely.

    Computed exactly as n minus the minimum transversal, by branch and bound
    over which vertex of the first unhit edge joins the transversal.
    """
    masks = [mask_of(e) for e in h.edges]
    # greedy upper bound for pruning: repeatedly hit the most-covering vertex
    left = masks
    greedy = 0
    while left:
        cover = [0] * h.n
        for mask in left:
            for v in bits(mask):
                cover[v] += 1
        v = max(range(h.n), key=cover.__getitem__)
        left = [mask for mask in left if not (mask >> v) & 1]
        greedy += 1
    return h.n - _min_transversal(masks, 0, 0, greedy)


def _min_transversal(masks: list[int], chosen: int, count: int, best: int) -> int:
    """The branch and bound of ``hyper_alpha``: the least of ``best`` and the
    transversals of ``masks`` that extend ``chosen``, of ``count`` vertices."""
    if count >= best:
        return best
    for mask in masks:
        if not mask & chosen:
            for v in bits(mask):
                best = _min_transversal(masks, chosen | (1 << v), count + 1, best)
            return best
    return count
