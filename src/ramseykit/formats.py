"""Text interchange formats: graph6, edge lists, graph files and
hypergraphs. The edge-colouring format (``write_colouring``,
``read_colouring``) lives in ``patterns``, next to ``EdgeColouring``.

graph6 follows the public byte layout bit-exactly: the size field, then
the upper-triangle bits of ``Graph.bits`` in 6-bit groups offset by 63,
zero-padded. The packed integer of a canonical key (``symmetry``) is the
same bit string, so a key is the graph6 payload of the canonical graph. The
plain formats are line-oriented with a one-line header.
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


def _six_bit_groups(value: int, nbits: int) -> str:
    """The low ``nbits`` bits of ``value``, ``nbits`` a multiple of 6, as
    graph6 characters: six-bit groups, the most significant first, each
    offset by 63."""
    return "".join([chr(63 + ((value >> k) & 63)) for k in range(nbits - 6, -1, -6)])


def graph6_encode(g: Graph) -> str:
    """Encode a graph as a graph6 string (no ``>>graph6<<`` prefix): the
    size field, then ``g.bits()`` padded with zeros to whole six-bit
    groups."""
    n = g.n
    if n <= 62:
        size = _six_bit_groups(n, 6)
    elif n <= 258047:
        size = "~" + _six_bit_groups(n, 18)
    elif n <= 68719476735:
        size = "~~" + _six_bit_groups(n, 36)
    else:
        raise InputError("graph too large for graph6")
    nbits = n * (n - 1) // 2
    pad = -nbits % 6
    return size + _six_bit_groups(g.bits() << pad, nbits + pad)


def graph6_decode(text: str) -> Graph:
    """Decode a graph6 string; raises ``Graph6Error`` with a byte offset."""
    s = text.rstrip("\n")
    base = 0
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
        base = len(_G6_HEADER)
    if not s:
        raise Graph6Error("empty graph6 string", base)

    def read(start: int, stop: int) -> int:
        """The six-bit groups of bytes start..stop-1 as one integer."""
        value = 0
        for i in range(start, stop):
            c = ord(s[i])
            if not 63 <= c <= 126:
                raise Graph6Error(f"invalid graph6 byte {c!r}", base + i)
            value = (value << 6) | (c - 63)
        return value

    n, pos = read(0, 1), 1
    if n == 63:  # chr(126): extended size field
        start, pos = (2, 8) if len(s) >= 2 and ord(s[1]) == 126 else (1, 4)
        if len(s) < pos:
            raise Graph6Error("truncated size field", base + len(s))
        n = read(start, pos)

    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(s) - pos < nbytes:
        raise Graph6Error(
            f"truncated edge data: need {nbytes} bytes, got {len(s) - pos}",
            base + len(s),
        )
    if len(s) - pos > nbytes:
        raise Graph6Error("trailing data after graph6 payload", base + pos + nbytes)

    payload = read(pos, len(s))
    pad = 6 * nbytes - nbits  # below 6, so the padding lies in the last byte
    if payload & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits", base + len(s) - 1)
    return Graph.from_bits(n, payload >> pad)


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
