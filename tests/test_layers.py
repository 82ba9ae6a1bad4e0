"""The import layers of ``src/ramseykit``, read from the source with ``ast``.

The search (``arrowing``) and what is built on it sit on top: the graph
core, the formats, the patterns, the symmetry layer and the CNF bridge, an
independent check of the search's verdicts, import none of it. No module
imports another module's private name, except the two that tests patch
through ``cli``.
"""
import ast
from pathlib import Path

import ramseykit

SRC = Path(ramseykit.__file__).parent

LOWER = ["graphs", "formats", "patterns", "symmetry", "cnf"]
UPPER = {"arrowing", "minimal", "gadgets", "focusing", "cli"}

# (importing module, imported module, name)
PRIVATE_IMPORTS = {("cli", "minimal", "_minimality"), ("cli", "minimal", "_minimalized")}


def imports(module: str) -> list[tuple[str, str]]:
    """(ramseykit module, name) for every ``from`` import of a ramseykit
    module anywhere in ``module``, function bodies included; a module
    imported whole (``from . import x``, ``import ramseykit.x``) appears
    with the name ``*``."""
    out = []
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                base = node.module
            elif node.module and node.module.split(".")[0] == "ramseykit":
                base = node.module.partition(".")[2] or None
            else:
                continue
            for alias in node.names:
                out.append((base, alias.name) if base else (alias.name, "*"))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("ramseykit."):
                    out.append((alias.name.split(".")[1], "*"))
    return out


def test_lower_layers_import_nothing_of_the_search():
    for module in LOWER:
        above = sorted({base for base, _ in imports(module) if base in UPPER})
        assert above == [], f"{module} imports {above}"


def test_no_private_name_is_imported_across_modules():
    found = {
        (path.stem, base, name)
        for path in SRC.glob("*.py")
        for base, name in imports(path.stem)
        if name.startswith("_") and name != "*"
    }
    assert found <= PRIVATE_IMPORTS, sorted(found - PRIVATE_IMPORTS)


def test_cnf_imports_only_errors_graphs_and_patterns():
    assert {base for base, _ in imports("cnf")} == {"errors", "graphs", "patterns"}
