"""ramseykit: exact toolkit for two-colour graph arrowing experiments."""

from .arrowing import (
    ArrowingVerdict,
    Budget,
    Outcome,
    RamseyNumberReport,
    arrows,
    find_mono,
    find_pattern,
    ramsey_number,
)
from .errors import FormatError, Graph6Error, InfeasibleError, InputError, Undecided
from .graphs import (
    Graph,
    Hypergraph,
    clique_number,
    hyper_alpha,
    hyper_girth,
    independence_number,
    induced_subgraph,
)
from .patterns import (
    Arbitrary,
    Clique,
    CliquePendant,
    CliquePlusCliques,
    Colour,
    EdgeColouring,
    parse_pattern,
    pattern_graph,
)

__version__ = "0.1.0"
