"""Source checks: certificates in the library must survive ``python -O``,
graph construction in the moves stays in its builders, the moves only
carry the marking forward, and every error class is raised."""

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
    """The innermost definitions of ``moves.py`` that call ``callee``,
    once per call, so a call from a nested function names that function."""
    path = Path(orbitrain.__file__).parent / "moves.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    sites = []

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Name)
                    and child.func.id == callee):
                sites.append(name)
            visit(child, name)

    visit(tree, "<module>")
    return sorted(sites)


def test_moves_construct_graphs_only_in_the_builders():
    """Every quotient move goes through ``moves._quotient``; besides it
    only subdivision and the slide build an Orbigraph in ``moves.py``."""
    assert moves_call_sites("Orbigraph") == [
        "_quotient", "_subdivide_many", "slide"]


def test_fold_subdivides_once():
    """A fold cuts both of its directions in one subdivision, so only the
    fold and the two subdivision moves call ``_subdivide_many``."""
    assert moves_call_sites("_subdivide_many") == [
        "_fold_core", "invariant_core_subdivision", "subdivide"]


def test_moves_only_carry_the_marking_forward():
    """A move pushes the marking forward along its transport with
    ``Marking.moved``: ``moves.py`` never builds a ``Marking`` itself and
    never names ``Automorphism``, so no move pulls the marking back."""
    path = Path(orbitrain.__file__).parent / "moves.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    named |= {alias.asname or alias.name for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "Automorphism" not in named
    assert moves_call_sites("Marking") == []


def test_every_error_class_is_raised():
    """Each class in ``errors.py`` is raised somewhere in the library or is
    a base of a class that is: no error class that nothing raises."""
    path = Path(orbitrain.__file__).parent / "errors.py"
    bases = {node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
             for node in ast.parse(path.read_text()).body
             if isinstance(node, ast.ClassDef)}
    raised = set()
    for source in SOURCES:
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id in bases:
                    raised.add(exc.id)
    live, todo = set(raised), list(raised)
    while todo:
        for base in bases[todo.pop()]:
            if base in bases and base not in live:
                live.add(base)
                todo.append(base)
    assert raised and sorted(set(bases) - live) == []
