"""CNF export of arrowing instances and a small embedded SAT solver.

Variable i corresponds to the i-th edge of the graph in sorted-pair order
(1-based in DIMACS); a true variable means the edge is red. For every copy of
the red target the clause forbids the all-red assignment of its edges, and for
every copy of the blue target the clause demands at least one red edge, so the
formula is satisfiable exactly when some colouring avoids both targets.

Every target type exports: the copies come from ``patterns.copies``, each
as the tuple of host vertices that the vertices of ``pattern_graph(p)`` map
to, and a copy's clause holds the variables of the images of the pattern's
edges. Clause order is canonical: all red-target clauses first, then all
blue-target clauses, each in ``copies`` order (cliques by vertex tuple;
pendant copies by clique tuple, then attach vertex, then pendant vertex;
K_k + fK_t copies by K_k tuple, then K_t tuples; arbitrary targets in
backtrack order). Literals within a clause ascend by variable. Copies with
the same edge set, such as the two labellings of one K_2·K_2 or the images
of one copy under the automorphisms of an arbitrary target, each keep their
own clause; ``solve_cnf`` searches each distinct clause once.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .graphs import Graph
from .patterns import Colour, EdgeColouring, TargetPattern, copies, pattern_graph

__all__ = ["CnfInstance", "to_cnf", "decode_model", "to_dimacs", "solve_cnf"]


@dataclass(frozen=True)
class CnfInstance:
    """The clauses over the edge variables of ``graph``."""

    graph: Graph
    clauses: tuple[tuple[int, ...], ...]

    @property
    def num_vars(self) -> int:
        return self.graph.num_edges


def to_cnf(g: Graph, red: TargetPattern, blue: TargetPattern) -> CnfInstance:
    """CNF instance satisfiable iff some colouring of ``g`` avoids both targets."""
    clauses: list[tuple[int, ...]] = []
    for p, sign in ((red, -1), (blue, 1)):
        pedges = pattern_graph(p).edges()
        for img in copies(g.adj, g.n, p):
            variables = sorted(g.edge_index(img[a], img[b]) + 1 for a, b in pedges)
            clauses.append(tuple(sign * x for x in variables))
    return CnfInstance(g, tuple(clauses))


def decode_model(inst: CnfInstance, assignment) -> EdgeColouring:
    """Turn a total variable assignment into the witness colouring it encodes.

    ``assignment`` maps variable numbers (1-based) to booleans; true is red.
    """
    colours = []
    for i in range(1, inst.num_vars + 1):
        if i not in assignment:
            raise InputError(f"assignment is partial: variable {i} missing")
        colours.append(Colour.RED if assignment[i] else Colour.BLUE)
    return EdgeColouring(inst.graph, tuple(colours))


def to_dimacs(inst: CnfInstance) -> str:
    lines = [f"p cnf {inst.num_vars} {len(inst.clauses)}"]
    for clause in inst.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def solve_cnf(inst: CnfInstance) -> dict[int, bool] | None:
    """DPLL with unit propagation; returns a total assignment or None.

    Deterministic: branches on the lowest-numbered unassigned variable,
    trying true (red) first. Duplicate clauses, such as those of two copies
    with one edge set, are searched once.
    """
    clauses = list(dict.fromkeys(inst.clauses))
    assign: dict[int, bool] = {}
    if not _dpll(clauses, inst.num_vars, assign):
        return None
    for i in range(1, inst.num_vars + 1):
        assign.setdefault(i, True)
    return assign


def _propagate(clauses: list, assign: dict[int, bool], trail: list[int]) -> bool:
    """Unit propagation, extending ``assign`` in place and appending the
    variables it sets to ``trail``; False on a conflict."""
    changed = True
    while changed:
        changed = False
        for clause in clauses:
            unassigned = None
            satisfied = False
            count = 0
            for lit in clause:
                var = abs(lit)
                if var in assign:
                    if assign[var] == (lit > 0):
                        satisfied = True
                        break
                else:
                    unassigned = lit
                    count += 1
            if satisfied:
                continue
            if count == 0:
                return False
            if count == 1:
                var = abs(unassigned)
                assign[var] = unassigned > 0
                trail.append(var)
                changed = True
    return True


def _dpll(clauses: list, nvars: int, assign: dict[int, bool]) -> bool:
    """The search of ``solve_cnf``; on failure ``assign`` is left as given."""
    trail: list[int] = []
    if _propagate(clauses, assign, trail):
        var = next((i for i in range(1, nvars + 1) if i not in assign), None)
        if var is None:
            return True
        for value in (True, False):
            assign[var] = value
            if _dpll(clauses, nvars, assign):
                return True
        del assign[var]
    for var in trail:
        del assign[var]
    return False
