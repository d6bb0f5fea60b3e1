"""Source checks: certificates in the library must survive ``python -O``,
graph construction in the moves stays in one builder, the moves only
carry the marking forward, the moves and ``pf`` hold no iteration cap,
the moves hold no state and only the descent records events, the moves
cut edges at integer indices without ``Fraction``, only normalisation
collapses forests, turn orbits and the tree are each walked in one
place, derived data is cached only by its own class, circuits are
built and their edges counted only in ``paths``, closed by the path
rules and canonicalised only when compared, tight runs are settled at
their seams without recursion, turns and cone maps are named tuples,
leads are read in place, isomorphisms are checked on Cayley tables,
representatives are compared by one name-free key, edge lengths
come only from ``pf``, the transition digraph is closed in one
routine, ``pf`` decides without floating point, computes
characteristic polynomials in one routine, narrows brackets in one
stateless one and decides past them in one exact loop, edge items are
tested inline, cell and edge ids are checked only by ``Orbigraph``, a
path is trusted by its edge count alone, every error class is raised,
factors have one kind, inversion has one algorithm that scores moves
without rebuilding words, through a move index built in one place and
kept by its product, Kurosh data is read off images by slices, the
word kernel reads the factor tables with no method call per letter, the
standard representatives walk the tree once, hand the walks to their
marking and build each edge image with one tightening, and every public
name has a caller in the library or the benchmark, bar the few input
builders that tests need, which have none."""

import ast
import re
from pathlib import Path

import orbitrain

SOURCES = sorted(Path(orbitrain.__file__).parent.glob("*.py"))
BENCHMARK = sorted((Path(__file__).parents[1] / "perfbench").glob("*.py"))

# Public names that only tests call: they build test inputs.
TEST_BUILDERS = {"symmetric", "record_events", "hedgehog_rep",
                 "rep_from_path_texts"}


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
    """Every move goes through ``moves._quotient``, the only definition
    of ``moves.py`` that builds an ``Orbigraph``, a ``Transport`` or a
    ``TopRep``."""
    assert moves_call_sites("Orbigraph") == ["_quotient"]
    assert moves_call_sites("Transport") == ["_quotient"]
    assert moves_call_sites("TopRep") == ["_quotient"]


def test_fold_cuts_and_glues_in_one_quotient():
    """A fold is a plan plus one quotient: ``fold`` is the only caller of
    ``_fold_plan`` and calls ``_quotient`` once, and ``_fold_plan``
    reads the cut plan and the glue off the input as plain data: its
    body names none of ``TopRep``, ``Orbigraph``, ``Transport`` or
    ``_quotient``."""
    assert function_call_sites("_fold_plan") == ["moves.fold"]
    assert moves_call_sites("_quotient").count("fold") == 1
    plan = next(node for node in ast.walk(moves_tree())
                if isinstance(node, ast.FunctionDef)
                and node.name == "_fold_plan")
    named = {node.id for stmt in plan.body for node in ast.walk(stmt)
             if isinstance(node, ast.Name)}
    assert not {"TopRep", "Orbigraph", "Transport", "_quotient"} & named


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
    a transport's reversed pieces, a transition matrix's strongly
    connected split, PF data's characteristic polynomial, adjugate row
    and isolation, a free product's move index, and any cache a class
    adds later."""
    caches = instance_caches()
    known = {"toprep.TopRep": {"_images", "_leads", "_verdicts", "_matrix"},
             "groups.FreeProduct": {"_moves"},
             "moves.Transport": {"_reversed"},
             "pf.TransitionMatrix": {"_components"},
             "pf.PFData": {"_iso", "_poly", "_adjugate"}}
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


def test_circuits_close_by_the_path_rules():
    """``tighten_circuit`` closes the wrap with ``_push``, the path
    rewriting rules, and holds no rule of its own: it names no
    ``deque``, ``group_at`` or ``mul``."""
    path = Path(orbitrain.__file__).parent / "paths.py"
    (close,) = [node for node in ast.parse(path.read_text()).body
                if isinstance(node, ast.FunctionDef)
                and node.name == "tighten_circuit"]
    called = {node.func.id for node in ast.walk(close)
              if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Name)}
    assert "_push" in called
    named = ({node.id for node in ast.walk(close)
              if isinstance(node, ast.Name)}
             | {node.attr for node in ast.walk(close)
                if isinstance(node, ast.Attribute)})
    assert not named & {"deque", "group_at", "mul"}


def test_runs_are_settled_at_their_seams_in_place():
    """``_push`` settles a tight run's seam in its own loop: it takes no
    ``run`` parameter and does not call itself."""
    path = Path(orbitrain.__file__).parent / "paths.py"
    (push,) = [node for node in ast.parse(path.read_text()).body
               if isinstance(node, ast.FunctionDef) and node.name == "_push"]
    params = push.args.posonlyargs + push.args.args + push.args.kwonlyargs
    assert [a.arg for a in params] == ["graph", "out", "cur", "items"]
    assert not [node for node in ast.walk(push)
                if isinstance(node, ast.Name) and node.id == "_push"]


def class_def(module, name):
    """The top-level class definition ``name`` of library ``module``."""
    path = Path(orbitrain.__file__).parent / f"{module}.py"
    (node,) = [node for node in ast.parse(path.read_text()).body
               if isinstance(node, ast.ClassDef) and node.name == name]
    return node


def test_turns_and_cone_maps_are_named_tuples():
    """``Turn`` and ``ConeMap`` subclass ``NamedTuple`` and carry no
    decorator, so no dataclass builds, hashes or compares them."""
    for module, name in (("paths", "Turn"), ("toprep", "ConeMap")):
        node = class_def(module, name)
        assert [ast.unparse(b) for b in node.bases] == ["NamedTuple"], name
        assert not node.decorator_list, name


def test_leads_are_read_in_place():
    """``TopRep._lead`` names neither ``image`` nor ``invert``: it builds
    no reversed image path to read a lead off."""
    (lead,) = [node for node in class_def("toprep", "TopRep").body
               if isinstance(node, ast.FunctionDef) and node.name == "_lead"]
    named = {node.id for node in ast.walk(lead) if isinstance(node, ast.Name)}
    named |= {node.attr for node in ast.walk(lead)
              if isinstance(node, ast.Attribute)}
    assert not named & {"image", "invert", "invert_items"}, named


def test_isomorphisms_are_checked_on_the_tables():
    """``is_iso`` reads the two Cayley tables and calls no ``.mul(``."""
    assert "groups.is_iso" not in method_call_sites("mul")
    assert "groups.is_iso" in {
        f"{path.stem}.{site}" for path in SOURCES
        for site in node_sites(path, lambda node: isinstance(
            node, ast.Attribute) and node.attr == "cayley")}


def test_circuits_are_canonicalised_only_when_compared():
    """Inside ``paths`` only ``Circuit.items`` calls ``least_rotation``,
    so a circuit picks its canonical rotation on first comparison:
    neither ``tighten_circuit`` nor ``TopRep.apply_circuit`` names it."""
    root = Path(orbitrain.__file__).parent
    assert call_sites(root / "paths.py", lambda call: ast.unparse(call.func)
                      == "least_rotation") == ["Circuit.items"]

    def names_it(node):
        return ((isinstance(node, ast.Name) and node.id == "least_rotation")
                or (isinstance(node, ast.Attribute)
                    and node.attr == "least_rotation"))

    assert node_sites(root / "paths.py", names_it) == ["Circuit.items"]
    assert "TopRep.apply_circuit" not in node_sites(root / "toprep.py",
                                                    names_it)


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


def test_the_transition_digraph_is_closed_in_one_place():
    """``pf.reachable`` is the one closure of the transition digraph:
    only ``scc_components`` and the forest search call it, ``successors``
    and Tarjan's stack walk are gone, and neither of them loops over a
    work queue, of which ``moves.py`` holds none."""
    assert function_call_sites("reachable") == [
        "moves.maximal_invariant_forest", "pf.scc_components"]
    path = Path(orbitrain.__file__).parent / "pf.py"
    pf_tree, moves = ast.parse(path.read_text()), moves_tree()
    assert "successors" not in {node.name for node in pf_tree.body
                                if isinstance(node, ast.FunctionDef)}
    (split,) = [node for node in pf_tree.body
                if isinstance(node, ast.FunctionDef)
                and node.name == "scc_components"]
    (forest,) = [node for node in moves.body
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "maximal_invariant_forest"]
    for reader in (split, forest):
        assert not [node for node in ast.walk(reader)
                    if isinstance(node, ast.While)]
    assert not {"stack", "on_stack", "low"} & used_names(split)
    assert "queue" not in used_names(moves)


def test_pf_decides_without_floating_point():
    """``pf.py`` converts to ``float`` only to print a bracket in
    ``PFData.__repr__``, so no floating point decides anything."""
    path = Path(orbitrain.__file__).parent / "pf.py"
    sites = call_sites(path, lambda call: isinstance(call.func, ast.Name)
                       and call.func.id == "float")
    assert set(sites) <= {"PFData.__repr__"}


def test_pf_has_one_characteristic_polynomial():
    """``pf.py`` defines one routine that computes a characteristic
    polynomial, ``_berkowitz``, and only ``PFData.poly`` calls it: the
    polynomial of every comparison, isolation and adjugate row comes from
    that one place, and the Faddeev-LeVerrier loop is gone."""
    path = Path(orbitrain.__file__).parent / "pf.py"
    charpoly = re.compile(
        r"faddeev|leverrier|berkowitz|charpoly|char_poly|hessenberg"
        r"|danilevsky|krylov_poly|samuelson", re.IGNORECASE)
    found = sorted(node.name for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.FunctionDef)
                   and charpoly.search(node.name))
    assert found == ["_berkowitz"]
    assert function_call_sites("_berkowitz") == ["pf.PFData.poly"]
    assert "_faddeev_leverrier" not in path.read_text()


def test_pf_narrows_brackets_in_one_stateless_routine():
    """Only ``PFData.refined`` runs the Collatz-Wielandt walk, which keeps
    no state between calls: ``pf_compare`` is straight-line code that
    never calls itself, and a ``PFData`` holds its bracket and derived
    caches, no walk to resume and no permutation flag."""
    assert function_call_sites("_collatz_wielandt") == ["pf.PFData.refined"]
    assert "pf.pf_compare" not in function_call_sites("pf_compare")
    assert pf_slots("PFData") == [("matrix", "lower", "upper", "_iso",
                                   "_poly", "_adjugate")]


def pf_slots(name):
    """The ``__slots__`` of each class ``name`` in ``pf.py``."""
    path = Path(orbitrain.__file__).parent / "pf.py"
    return [ast.literal_eval(node.value)
            for cls in ast.parse(path.read_text()).body
            if isinstance(cls, ast.ClassDef) and cls.name == name
            for node in cls.body if isinstance(node, ast.Assign)
            and [t.id for t in node.targets] == ["__slots__"]]


def test_pf_decides_past_the_brackets_in_one_loop():
    """``PFData._sign_at`` is the one exact loop past the brackets: only
    ``pf_compare`` and ``PFData._compare_by_adjugate`` call it, and
    ``pf_compare`` holds no loop.  Deflation, the root bound and the
    standalone isolation are gone, ``pf.py`` imports no
    ``LemmaViolated``, and an ``Isolation`` is its chain and interval,
    never an exact root."""
    path = Path(orbitrain.__file__).parent / "pf.py"
    tree = ast.parse(path.read_text())
    assert set(method_call_sites("_sign_at")) == {
        "pf.PFData._compare_by_adjugate", "pf.pf_compare"}
    (compare,) = [node for node in tree.body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "pf_compare"]
    assert not [node for node in ast.walk(compare)
                if isinstance(node, (ast.For, ast.While, ast.comprehension))]
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not defined & {"_deflate", "root_bound", "_isolate"}
    assert "LemmaViolated" not in used_names(tree)
    assert pf_slots("Isolation") == [("chain", "lo", "hi")]


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


def names_a_count(node):
    return ((isinstance(node, ast.Name) and node.id in ("n_cells", "n_edges"))
            or (isinstance(node, ast.Attribute)
                and node.attr in ("n_cells", "n_edges")))


def is_id_bound(node):
    """Whether ``node`` bounds an id by a cell or edge count: a
    ``range(...)`` call naming ``n_cells`` or ``n_edges``, or an order
    comparison of names, attributes and constants naming one of them,
    such as ``0 <= v < graph.n_cells``.  A comparison of two counts, as
    ``len(set(mask.values())) < g.n_cells``, bounds no id."""
    if isinstance(node, ast.Call):
        return (isinstance(node.func, ast.Name) and node.func.id == "range"
                and any(names_a_count(n) for arg in node.args
                        for n in ast.walk(arg)))
    if isinstance(node, ast.Compare):
        operands = [node.left, *node.comparators]
        return (all(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
                    for op in node.ops)
                and all(isinstance(n, (ast.Name, ast.Attribute, ast.Constant,
                                       ast.UnaryOp)) for n in operands)
                and any(names_a_count(n) for n in operands))
    return False


def test_ids_are_checked_only_by_the_graph():
    """``Orbigraph.cell_id`` and ``Orbigraph.edge_id`` are the one check
    of a cell or edge id: outside ``orbigraph.py`` no definition bounds
    an id by ``n_cells`` or ``n_edges``, bar ``TopRep._validate``, whose
    vertex checks keep their own messages.  ``Path`` has one trusted
    form, items given with their edge count, and no ``_tight`` flag."""
    found = {f"{path.stem}.{site}" for path in SOURCES
             if path.name != "orbigraph.py"
             for site in node_sites(path, is_id_bound)}
    assert found == {"toprep.TopRep._validate"}
    args = next(node for node in class_def("paths", "Path").body
                if isinstance(node, ast.FunctionDef)
                and node.name == "__init__").args
    assert "_tight" not in [a.arg for a in args.args + args.kwonlyargs]


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
    """Peak reduction scores every move of a round with one call of
    ``_seam_gains``, a statement of the round loop itself, and the scorer
    calls neither ``nf``, ``mul`` nor ``conjugated``; ``conjugated`` is
    called twice, to apply the chosen move to the reduced images and to
    the moves, so only the chosen move rebuilds words."""
    inverse = "groups.Automorphism._peak_reduced_inverse"
    assert function_call_sites("_seam_gains") == [inverse]
    path = Path(orbitrain.__file__).parent / "groups.py"
    scoring = [stmt for loop in ast.walk(ast.parse(path.read_text()))
               if isinstance(loop, ast.While) for stmt in loop.body
               if isinstance(stmt, ast.Assign)
               and isinstance(stmt.value, ast.Call)
               and isinstance(stmt.value.func, ast.Name)
               and stmt.value.func.id == "_seam_gains"]
    assert len(scoring) == 1
    assert function_call_sites("conjugated") == [inverse, inverse]
    assert "groups._seam_gains" not in (method_call_sites("nf")
                                        + method_call_sites("mul")
                                        + function_call_sites("conjugated"))


def test_moves_are_listed_in_one_place():
    """The peak-reduction moves are built only by ``FreeProduct.move_index``:
    it is the one definition that calls ``combinations`` or constructs a
    ``MoveIndex``.  ``_peak_reduced_inverse`` builds no ``frozenset`` and
    reads the index with one call, a statement of its round loop, so an
    inversion that needs no round builds no index."""
    index = "groups.FreeProduct.move_index"
    inverse = "groups.Automorphism._peak_reduced_inverse"
    assert method_call_sites("combinations") == [index]
    assert function_call_sites("MoveIndex") == [index]
    assert method_call_sites("move_index") == [inverse]
    assert inverse not in function_call_sites("frozenset")
    path = Path(orbitrain.__file__).parent / "groups.py"
    reads = [stmt for loop in ast.walk(ast.parse(path.read_text()))
             if isinstance(loop, ast.While) for stmt in loop.body
             if isinstance(stmt, ast.Assign)
             and isinstance(stmt.value, ast.Call)
             and isinstance(stmt.value.func, ast.Attribute)
             and stmt.value.func.attr == "move_index"]
    assert len(reads) == 1


def test_kurosh_reads_images_by_slices():
    """``Automorphism.kurosh`` names neither ``mul`` nor ``nf``: it reads
    the normal forms it is given by slices and forms no product."""
    (kurosh,) = [node for node in class_def("groups", "Automorphism").body
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "kurosh"]
    named = ({node.id for node in ast.walk(kurosh)
              if isinstance(node, ast.Name)}
             | {node.attr for node in ast.walk(kurosh)
                if isinstance(node, ast.Attribute)})
    assert not named & {"mul", "nf"}, named


def test_standard_representatives_walk_the_tree_once():
    """``thistle_rep`` and ``hedgehog_rep`` are built by
    ``toprep._standard_rep``, which calls ``walks`` once and hands the
    walks to the identity ``Marking``, which walks the tree itself only
    when it is given none; no definition of the library calls
    ``loop_of_word``, so each edge image is one tightening of a raw
    walk, and ``word_walk`` is the one builder of the walk spelling a
    word."""
    assert function_call_sites("_standard_rep") == ["toprep.hedgehog_rep",
                                                    "toprep.thistle_rep"]
    assert [site for site in method_call_sites("walks")
            if site.startswith("toprep.")] == ["toprep.Marking.__init__",
                                               "toprep._standard_rep"]
    (standard,) = [node for node in ast.parse(
        (Path(orbitrain.__file__).parent / "toprep.py").read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name == "_standard_rep"]
    markings = [node for node in ast.walk(standard)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "Marking"]
    assert [[(k.arg, ast.unparse(k.value)) for k in call.keywords]
            for call in markings] == [[("walks", "walks")]]
    assert function_call_sites("loop_of_word") == []
    assert function_call_sites("word_walk") == ["paths.loop_of_word",
                                                "toprep._standard_rep"]


def test_word_kernel_reads_the_tables():
    """``FreeProduct.nf``, ``FreeProduct.inv`` and ``Automorphism.apply``
    call no ``mul``, ``inv`` or ``letter_image``: they read the factors'
    Cayley and inverse tables and the images in place, with no method
    call per letter.  ``letter_inv`` is gone, as ``inv`` was its one
    caller."""
    kernel = [(cls, node) for cls in ("FreeProduct", "Automorphism")
              for node in class_def("groups", cls).body
              if isinstance(node, ast.FunctionDef)
              and (cls, node.name) in (("FreeProduct", "nf"),
                                       ("FreeProduct", "inv"),
                                       ("Automorphism", "apply"))]
    assert len(kernel) == 3
    for cls, node in kernel:
        called = {call.func.attr if isinstance(call.func, ast.Attribute)
                  else getattr(call.func, "id", None)
                  for call in ast.walk(node) if isinstance(call, ast.Call)}
        assert not called & {"mul", "inv", "letter_image"}, (cls, node.name)
    assert not [path.name for path in SOURCES
                if "letter_inv" in path.read_text()]


def test_public_names_have_a_library_caller():
    """Every public top-level function or class of the library, and every
    public method, is named somewhere in the library or the benchmark (as
    a name, an attribute or an import), except the test input builders:
    each of them still exists and is named nowhere there, so a builder
    that gains a caller leaves the list."""
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
    called = sorted(TEST_BUILDERS & named)
    assert not called, f"test builders with a library caller: {called}"
