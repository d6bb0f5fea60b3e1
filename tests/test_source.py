"""Source checks: certificates in the library must survive ``python -O``,
and graph construction and marking transport in the moves stay in their
builders."""

import ast
from pathlib import Path

import orbitrain

SOURCES = sorted(Path(orbitrain.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statements():
    assert SOURCES
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements vanish under -O: {found}"


def moves_call_sites(callee):
    """The top-level definitions of ``moves.py`` that call ``callee``,
    once per call."""
    path = Path(orbitrain.__file__).parent / "moves.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    sites = []
    for top in tree.body:
        name = getattr(top, "name", "<module>")
        sites += [name for node in ast.walk(top)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id == callee]
    return sorted(sites)


def test_moves_construct_graphs_only_in_the_builders():
    """Every quotient move goes through ``moves._quotient``; besides it
    only subdivision and the slide build an Orbigraph in ``moves.py``."""
    assert moves_call_sites("Orbigraph") == [
        "_quotient", "_subdivide_many", "slide"]


def test_subdivision_never_transports_the_marking():
    """Subdivision keeps every loop word, so its marking is the old one;
    only ``_rebuild``, behind the quotient builder and the slide, reads a
    marking back through a move."""
    assert moves_call_sites("_transported_marking") == ["_rebuild"]
