"""Source checks: certificates in the library must survive ``python -O``,
graph construction in the moves stays in its builders, the moves only
carry the marking forward, the moves and ``pf`` hold no iteration cap,
the moves hold no state and only the descent records events, the moves
cut edges at integer indices without ``Fraction``, only normalisation
collapses forests, turn orbits and the tree are each walked in one
place, derived data is cached only by its own class, circuits are
built and their edges counted only in ``paths``,
representatives are compared by one name-free key, edge lengths come
only from ``pf``, ``pf`` decides without floating point, edge items are
tested inline, every error class is raised, factors have one kind,
inversion has one algorithm that scores moves without rebuilding
words, and every public name has a caller in the library or the
benchmark, bar the input builders that tests need."""

import ast
import re
from pathlib import Path

import orbitrain

SOURCES = sorted(Path(orbitrain.__file__).parent.glob("*.py"))
BENCHMARK = sorted((Path(__file__).parents[1] / "perfbench").glob("*.py"))

# Public names that only tests call: they build test inputs.
TEST_BUILDERS = {"symmetric", "random_word", "record_events", "subdivide",
                 "slide", "identity_rep", "hedgehog_rep",
                 "rep_from_path_texts", "edge_bound"}


def test_library_has_no_assert_statements():
    assert SOURCES
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements vanish under -O: {found}"


def node_sites(path, matches):
    """The innermost definitions of ``path`` holding a node that
    ``matches``, once per node and by qualified name, so a node in a
    method names ``Class.method`` and one in a nested function names
    that function."""
    tree = ast.parse(path.read_text(), filename=str(path))
    sites = []

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, child.name if name is None
                      else f"{name}.{child.name}")
                continue
            if matches(child):
                sites.append(name or "<module>")
            visit(child, name)

    visit(tree, None)
    return sorted(sites)


def call_sites(path, matches):
    """The innermost definitions of ``path`` holding a call that
    ``matches``, as :func:`node_sites` names them."""
    return node_sites(path, lambda node: isinstance(node, ast.Call)
                      and matches(node))


def moves_call_sites(callee):
    """The definitions of ``moves.py`` that call the name ``callee``."""
    return call_sites(Path(orbitrain.__file__).parent / "moves.py",
                      lambda call: isinstance(call.func, ast.Name)
                      and call.func.id == callee)


def function_call_sites(callee):
    """The definitions across the library that call the name ``callee``,
    as ``module.qualified_name``."""
    return sorted(f"{path.stem}.{site}" for path in SOURCES
                  for site in call_sites(
                      path, lambda call: isinstance(call.func, ast.Name)
                      and call.func.id == callee))


def method_call_sites(attr):
    """The definitions across the library that call a method ``attr``,
    as ``module.qualified_name``."""
    return sorted(f"{path.stem}.{site}" for path in SOURCES
                  for site in call_sites(
                      path, lambda call: isinstance(call.func, ast.Attribute)
                      and call.func.attr == attr))


def moves_tree():
    path = Path(orbitrain.__file__).parent / "moves.py"
    return ast.parse(path.read_text(), filename=str(path))


def imported_modules(tree):
    """The modules that ``tree`` imports, by ``import`` or ``from``."""
    return ({alias.name for node in ast.walk(tree)
             if isinstance(node, ast.Import) for alias in node.names}
            | {node.module for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)})


def used_names(tree):
    """The names that ``tree`` reads or imports from a module."""
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for alias in node.names})


def test_moves_construct_graphs_only_in_the_builders():
    """Every move but the slide, subdivision included, goes through
    ``moves._quotient``; besides it only the slide builds an Orbigraph
    in ``moves.py``."""
    assert moves_call_sites("Orbigraph") == ["_quotient", "slide"]


def test_fold_cuts_and_glues_in_one_quotient():
    """A fold reads its cut plan and glue off the input and calls
    ``_quotient`` once, so it builds one graph and one representative:
    the body of ``_fold_core`` names neither ``TopRep`` nor
    ``Orbigraph``, and of the functions of ``moves.py`` that build
    either, it calls ``_quotient`` alone."""
    assert moves_call_sites("_quotient").count("_fold_core") == 1
    core = next(node for node in ast.walk(moves_tree())
                if isinstance(node, ast.FunctionDef)
                and node.name == "_fold_core")
    named = {node.id for stmt in core.body for node in ast.walk(stmt)
             if isinstance(node, ast.Name)}
    assert not {"TopRep", "Orbigraph"} & named
    builders = {site for name in ("TopRep", "Orbigraph", "_rebuild")
                for site in moves_call_sites(name)}
    assert builders & named == {"_quotient"}


def test_moves_only_carry_the_marking_forward():
    """A move pushes the marking forward along its transport with
    ``Marking.moved``: ``moves.py`` never builds a ``Marking`` itself and
    never names ``Automorphism``, so no move pulls the marking back."""
    assert "Automorphism" not in used_names(moves_tree())
    assert moves_call_sites("Marking") == []


def test_moves_hold_no_state():
    """Moves are pure functions: ``moves.py`` imports neither
    ``contextvars`` nor ``contextlib`` and binds nothing at module level
    but the ``Item`` alias, and the descent's event stream is the only
    ``ContextVar``, named only in ``traintrack``."""
    tree = moves_tree()
    assert not imported_modules(tree) & {"contextvars", "contextlib"}
    assert [ast.unparse(node) for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign))] == [
                "Item = object"]
    named = sorted({path.stem for path in SOURCES
                    for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.Name)
                    and node.id in {"ContextVar", "_EVENTS"}})
    assert named == ["traintrack"]


def test_moves_cut_at_integer_indices():
    """Subdivisions and folds cut only over zero cells, named by integer
    crossing counts: ``moves.py`` neither imports ``fractions`` nor names
    ``Fraction``."""
    tree = moves_tree()
    assert "fractions" not in imported_modules(tree)
    assert "Fraction" not in used_names(tree)


def test_only_normalisation_collapses_forests():
    """Moves return the representative they build: forests are collapsed
    only by ``traintrack.normalize``, and only ``collapse_forest`` reaches
    the collapsing quotient."""
    assert function_call_sites("collapse_forest") == ["traintrack.normalize"]
    assert function_call_sites("_collapse") == ["moves.collapse_forest"]


def test_turn_orbits_are_walked_in_one_place():
    """The descent's turn choice, which is also the train track test,
    reads ``TopRep.dying_turn``, and nothing else applies the turn map."""
    assert method_call_sites("turn_map") == ["toprep.TopRep.dying_turn"]


def instance_caches():
    """Every per-instance cache of the library, by its class: a private
    attribute that the class's ``__init__`` starts empty or ``None``."""
    empty = {"{}", "[]", "set()", "dict()", "None"}
    caches = {}
    for path in SOURCES:
        for cls in ast.parse(path.read_text()).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if not (isinstance(fn, ast.FunctionDef)
                        and fn.name == "__init__"):
                    continue
                for node in ast.walk(fn):
                    if isinstance(node, ast.AnnAssign):
                        targets = [node.target]
                    elif isinstance(node, ast.Assign):
                        targets = node.targets
                    else:
                        continue
                    caches.setdefault(f"{path.stem}.{cls.name}", set()).update(
                        t.attr for t in targets
                        if isinstance(t, ast.Attribute)
                        and ast.unparse(t.value) == "self"
                        and t.attr.startswith("_")
                        and node.value is not None
                        and ast.unparse(node.value) in empty)
    return {owner: attrs for owner, attrs in caches.items() if attrs}


def test_derived_data_is_cached_only_by_its_class():
    """Every per-instance cache is named only inside its own class, so no
    move or caller writes into it: among them a representative's derived
    data (reversed images, lead table, turn verdicts, transition matrix),
    a transport's reversed pieces, and any cache a class adds later."""
    caches = instance_caches()
    known = {"toprep.TopRep": {"_images", "_leads", "_verdicts", "_matrix"},
             "moves.Transport": {"_reversed"}}
    assert all(attrs <= caches.get(owner, set())
               for owner, attrs in known.items()), caches
    for owner, attrs in caches.items():
        found = sorted(set(
            f"{path.stem}.{site}" for path in SOURCES + BENCHMARK
            for site in node_sites(
                path, lambda node: isinstance(node, ast.Attribute)
                and node.attr in attrs)))
        assert found and all(site.startswith(owner + ".") for site in found), \
            found


def test_circuits_are_built_and_counted_only_in_paths():
    """Only ``tighten_circuit`` constructs a ``Circuit``, anywhere in the
    library or the benchmark; paths and circuits store their edge count
    in their constructors and never recount it through a property; and
    the tuple rotation key ``_item_key`` is gone."""
    built = sorted(f"{path.stem}.{site}" for path in SOURCES + BENCHMARK
                   for site in call_sites(
                       path, lambda call: ast.unparse(call.func).split(".")[-1]
                       == "Circuit"))
    assert built == ["paths.tighten_circuit"]
    path = Path(orbitrain.__file__).parent / "paths.py"
    stored = node_sites(path, lambda node: isinstance(node, ast.Attribute)
                        and node.attr == "n_edges"
                        and isinstance(node.ctx, ast.Store))
    assert stored == ["Circuit.__init__", "Path.__init__"]
    tree = ast.parse(path.read_text())
    assert not [node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "n_edges"]
    assert not [source.name for source in SOURCES
                if "_item_key" in source.read_text()]


def test_the_tree_is_walked_in_one_place():
    """Connectivity, geodesics, the forest test and the forest collapse all
    read ``Orbigraph.walks``: besides the constructor that builds it, only
    ``walks`` and the two neighbourhood queries touch the incidence
    lists, and ``Orbigraph`` is the only class of ``orbigraph.py``, so
    no subgraph class wraps an edge set."""
    found = sorted(set(
        f"{path.stem}.{site}" for path in SOURCES
        for site in node_sites(
            path, lambda node: isinstance(node, ast.Attribute)
            and node.attr == "_incidence")))
    assert found == ["orbigraph.Orbigraph.__init__",
                     "orbigraph.Orbigraph.edges_at",
                     "orbigraph.Orbigraph.valence",
                     "orbigraph.Orbigraph.walks"]
    path = Path(orbitrain.__file__).parent / "orbigraph.py"
    assert [node.name for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.ClassDef)] == ["Orbigraph"]


def test_representatives_are_compared_by_one_key():
    """``traintrack._rep_key`` is the only notion of the same
    representative: it reads no edge or cell names, and no definition in
    the library searches for graph isomorphisms, tests structural
    equality or builds a reduction."""
    gone = re.compile(r"isomorphism|^structurally_|^build_red")
    found = [f"{path.name}: {node.name}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))
             and gone.search(node.name)]
    assert not found, f"definitions that should be gone: {found}"
    path = Path(orbitrain.__file__).parent / "traintrack.py"
    (key,) = [node for node in ast.parse(path.read_text()).body
              if isinstance(node, ast.FunctionDef) and node.name == "_rep_key"]
    read = {node.attr for node in ast.walk(key)
            if isinstance(node, ast.Attribute)}
    assert not read & {"edge_names", "cell_names"}


def test_edge_lengths_come_only_from_pf():
    """The valence-two choice in ``traintrack.normalize`` reads edge
    lengths from ``pf.compare_lengths`` and from nowhere else, and only
    that function falls back on the adjugate comparison."""
    assert function_call_sites("compare_lengths") == ["traintrack.normalize"]
    assert method_call_sites("compare_lengths") == []
    assert method_call_sites("_compare_by_adjugate") == ["pf.compare_lengths"]


def test_pf_decides_without_floating_point():
    """``pf.py`` converts to ``float`` only to print a bracket in
    ``PFData.__repr__``, so no floating point decides anything."""
    path = Path(orbitrain.__file__).parent / "pf.py"
    sites = call_sites(path, lambda call: isinstance(call.func, ast.Name)
                       and call.func.id == "float")
    assert set(sites) <= {"PFData.__repr__"}


def test_moves_hold_no_iteration_cap():
    """Every move and every exact comparison ends by a bound it proves, not
    by a cap: no function in ``moves.py`` or ``pf.py`` takes a ``cap``
    parameter or raises ``CapExceeded`` or a subclass of it."""
    errors = Path(orbitrain.__file__).parent / "errors.py"
    capped = {"CapExceeded"}
    for node in ast.parse(errors.read_text()).body:
        if isinstance(node, ast.ClassDef) and any(
                isinstance(b, ast.Name) and b.id in capped
                for b in node.bases):
            capped.add(node.name)
    found = []
    for name in ("moves.py", "pf.py"):
        path = Path(orbitrain.__file__).parent / name
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs
                params += [p for p in (a.vararg, a.kwarg) if p is not None]
                found += [f"{name}: {node.name}({p.arg})" for p in params
                          if p.arg == "cap"]
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id in capped:
                    found.append(f"{name}:{node.lineno}: raise {exc.id}")
    assert not found, f"iteration caps: {found}"


def test_edge_items_are_tested_inline():
    """Walk loops test ``type(item) is int`` in place: no module names an
    ``is_edge_item`` helper or calls ``isinstance(item, int)``, which would
    also take ``True`` for edge 1."""
    found = []
    for path in SOURCES:
        text = path.read_text()
        if "is_edge_item" in text:
            found.append(f"{path.name}: is_edge_item")
        found += [f"{path.name}:{node.lineno}"
                  for node in ast.walk(ast.parse(text))
                  if isinstance(node, ast.Call)
                  and ast.unparse(node) == "isinstance(item, int)"]
    assert not found, f"edge-item helpers in the library: {found}"


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


def test_factors_have_one_kind():
    """Every factor is a ``FiniteGroup``: no library module reads an
    attribute named ``kind`` to branch on the factor type."""
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr == "kind"]
    assert not found, f"factor-kind reads: {found}"


def test_inverse_runs_one_algorithm():
    """``Automorphism.inverse`` calls no method but
    ``_peak_reduced_inverse``: inversion has one code path."""
    path = Path(orbitrain.__file__).parent / "groups.py"
    (inverse,) = [node for cls in ast.parse(path.read_text()).body
                  if isinstance(cls, ast.ClassDef) and cls.name == "Automorphism"
                  for node in cls.body
                  if isinstance(node, ast.FunctionDef) and node.name == "inverse"]
    called = {node.func.attr for node in ast.walk(inverse)
              if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)}
    assert called == {"_peak_reduced_inverse"}


def test_inverse_scores_moves_without_rebuilding_words():
    """Peak reduction scores its moves with ``_shortening``, which calls
    neither ``nf``, ``mul`` nor ``conjugated``; ``conjugated`` is called
    twice, to apply the chosen move to the reduced images and to the
    moves, so only the chosen move rebuilds words."""
    inverse = "groups.Automorphism._peak_reduced_inverse"
    assert function_call_sites("_shortening") == [inverse]
    assert function_call_sites("conjugated") == [inverse, inverse]
    assert "groups._shortening" not in (method_call_sites("nf")
                                        + method_call_sites("mul"))


def test_public_names_have_a_library_caller():
    """Every public top-level function or class of the library, and every
    public method, is named somewhere in the library or the benchmark (as
    a name, an attribute or an import), except the test input builders,
    each of which still exists."""
    assert BENCHMARK
    named, defined = set(), set()
    for path in SOURCES + BENCHMARK:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    for path in SOURCES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add((path.stem, node.name))
                if isinstance(node, ast.ClassDef):
                    defined |= {(path.stem, f"{node.name}.{m.name}")
                                for m in node.body
                                if isinstance(m, ast.FunctionDef)}
    last = {name: name.rsplit(".", 1)[-1] for _, name in defined}
    assert TEST_BUILDERS <= set(last.values())
    uncalled = sorted(f"{stem}.{name}" for stem, name in defined
                      if not last[name].startswith("_")
                      and last[name] not in named | TEST_BUILDERS)
    assert not uncalled, f"public names only tests reach: {uncalled}"
