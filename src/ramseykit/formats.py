"""Text interchange formats: graph6, edge lists, graph files and
hypergraphs. The edge-colouring format (``write_colouring``,
``read_colouring``) lives in ``arrowing``, next to ``EdgeColouring``.

graph6 follows the public byte layout bit-exactly (size field, column-major
upper-triangle bits, 6-bit groups offset by 63, zero padding). The plain
formats are line-oriented with a one-line header.
"""
from __future__ import annotations

from typing import Iterator

from .errors import FormatError, Graph6Error, InputError
from .graphs import Graph, Hypergraph

__all__ = [
    "graph6_encode",
    "graph6_decode",
    "write_edge_list",
    "read_edge_list",
    "read_graphs",
    "read_graph",
    "write_hypergraph",
    "read_hypergraph",
]

_G6_HEADER = ">>graph6<<"


def graph6_encode(g: Graph) -> str:
    """Encode a graph as a graph6 string (no ``>>graph6<<`` prefix)."""
    n = g.n
    if n <= 62:
        size = chr(63 + n)
    elif n <= 258047:
        size = chr(126) + "".join(chr(63 + ((n >> s) & 63)) for s in (12, 6, 0))
    elif n <= 68719476735:
        size = chr(126) + chr(126) + "".join(
            chr(63 + ((n >> s) & 63)) for s in (30, 24, 18, 12, 6, 0)
        )
    else:
        raise InputError("graph too large for graph6")
    out = []
    acc = 0
    nbits = 0
    for j in range(1, n):
        col = g.adj[j]
        for i in range(j):
            acc = (acc << 1) | ((col >> i) & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(63 + acc))
                acc = 0
                nbits = 0
    if nbits:
        acc <<= 6 - nbits
        out.append(chr(63 + acc))
    return size + "".join(out)


def graph6_decode(text: str) -> Graph:
    """Decode a graph6 string; raises ``Graph6Error`` with a byte offset."""
    s = text.rstrip("\n")
    base = 0
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
        base = len(_G6_HEADER)
    if not s:
        raise Graph6Error("empty graph6 string", base)

    def val(i: int) -> int:
        c = ord(s[i])
        if not 63 <= c <= 126:
            raise Graph6Error(f"invalid graph6 byte {c!r}", base + i)
        return c - 63

    pos = 0
    if val(0) == 63:  # chr(126): extended size field
        if len(s) >= 2 and ord(s[1]) == 126:
            if len(s) < 8:
                raise Graph6Error("truncated size field", base + len(s))
            n = 0
            for i in range(2, 8):
                n = (n << 6) | val(i)
            pos = 8
        else:
            if len(s) < 4:
                raise Graph6Error("truncated size field", base + len(s))
            n = 0
            for i in range(1, 4):
                n = (n << 6) | val(i)
            pos = 4
    else:
        n = val(0)
        pos = 1

    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(s) - pos < nbytes:
        raise Graph6Error(
            f"truncated edge data: need {nbytes} bytes, got {len(s) - pos}",
            base + len(s),
        )
    if len(s) - pos > nbytes:
        raise Graph6Error("trailing data after graph6 payload", base + pos + nbytes)

    adj = [0] * n
    bit = 0
    for bi in range(nbytes):
        group = val(pos + bi)
        for k in range(5, -1, -1):
            if bit < nbits:
                if (group >> k) & 1:
                    i, j = _bit_to_pair(bit)
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
                bit += 1
            else:
                if (group >> k) & 1:
                    raise Graph6Error("nonzero padding bits", base + pos + bi)
    return Graph(n, tuple(adj))


def _bit_to_pair(bit: int) -> tuple[int, int]:
    """Position of the given upper-triangle bit in column-major order."""
    j = 1
    while bit >= j:
        bit -= j
        j += 1
    return bit, j


# -- plain edge list ---------------------------------------------------------


def write_edge_list(g: Graph) -> str:
    lines = [f"n {g.n}"]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def read_counted_lines(text: str, kind: str, line_kind: str, width: int):
    """Parse the plain formats' layout: an ``n <count>`` header, then lines
    of ``width`` fields whose first two are integers. Blank lines are
    skipped. Returns the count and one tuple per line, the two integers
    followed by the other fields as text. ``kind`` and ``line_kind`` name
    the format and its lines in the ``FormatError`` messages."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("n "):
        raise FormatError(f"{kind} must start with a 'n <count>' header")
    try:
        n = int(lines[0].split()[1])
    except (IndexError, ValueError):
        raise FormatError(f"bad header line: {lines[0]!r}") from None
    rows = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != width:
            raise FormatError(f"bad {line_kind} line: {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(f"bad {line_kind} line: {ln!r}") from None
        rows.append((u, v, *parts[2:]))
    return n, rows


def read_edge_list(text: str) -> Graph:
    n, edges = read_counted_lines(text, "edge list", "edge", 2)
    return Graph.from_edges(n, edges)


# -- graph files -------------------------------------------------------------


def read_graphs(path: str) -> Iterator[Graph]:
    """The graphs of a graph file, read lazily. The first non-blank line
    decides the format: an ``n <count>`` header starts one edge list,
    anything else is graph6, one graph per non-blank line."""
    with open(path) as fh:
        lines = filter(None, map(str.strip, fh))
        first = next(lines, "")
        if first.startswith("n "):
            yield read_edge_list("\n".join((first, *lines)))
        elif first:
            yield graph6_decode(first)
            yield from map(graph6_decode, lines)


def read_graph(path: str) -> Graph:
    """The first graph of a graph file (see ``read_graphs``)."""
    g = next(read_graphs(path), None)
    if g is None:
        raise InputError(f"no graph found in {path}")
    return g


# -- hypergraph text ---------------------------------------------------------


def write_hypergraph(h: Hypergraph) -> str:
    lines = [f"{h.n} {h.u} {len(h.edges)}"]
    lines += [" ".join(str(v) for v in e) for e in h.edges]
    return "\n".join(lines) + "\n"


def read_hypergraph(text: str) -> Hypergraph:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty hypergraph file")
    head = lines[0].split()
    if len(head) != 3:
        raise FormatError(f"hypergraph header must be 'n u m', got {lines[0]!r}")
    try:
        n, u, m = (int(x) for x in head)
    except ValueError:
        raise FormatError(f"bad header line: {lines[0]!r}") from None
    if len(lines) - 1 != m:
        raise FormatError(f"expected {m} edge lines, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        try:
            e = tuple(int(x) for x in ln.split())
        except ValueError:
            raise FormatError(f"bad edge line: {ln!r}") from None
        edges.append(e)
    return Hypergraph.from_edges(n, u, edges)
