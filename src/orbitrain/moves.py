"""Homotopy moves on topological representatives.

Every move is a pure function producing a fresh representative of the
same outer automorphism, and returns that representative as built:
collapsing the forests a move leaves behind and removing low-valence
vertices is left to :func:`orbitrain.traintrack.normalize`.  Every move
but the slide is one quotient: a cut plan cuts edges only over zero
cells of their images, named by integer crossing counts, and cell
classes and dead edges glue the cut graph.  One forward path transport
per move rewrites old paths on the new graph; the move is a homotopy
equivalence, so it also carries the marking (:meth:`Marking.moved`).
"""

from typing import (AbstractSet, Dict, FrozenSet, Iterable, List, Optional,
                    Sequence, Set, Tuple)

from .errors import (
    BadOrbigraph,
    BadRepresentative,
    BadSlidePath,
    ConePointForbidden,
    ImageNotAtZeroCell,
    NotInvariantForest,
    NothingToFold,
    NotValenceOne,
    NotValenceTwo,
)
from .orbigraph import Orbigraph, VERTEX
from .paths import Path, Turn, invert_items, tighten
from .pf import is_irreducible
from .toprep import ConeMap, TopRep

Item = object


# ---------------------------------------------------------------------------
# path transport


class Transport:
    """Rewrites paths of one graph as paths of another.

    ``cell_map`` sends each source cell to a target cell; ``edge_items``
    spells out the target itinerary of every positive source edge.
    Letters travel to the mapped cell unchanged.
    """

    __slots__ = ("source", "target", "cell_map", "edge_items", "_reversed")

    def __init__(self, source: Orbigraph, target: Orbigraph,
                 cell_map: Dict[int, int],
                 edge_items: Dict[int, Sequence[Item]]):
        self.source = source
        self.target = target
        self.cell_map = dict(cell_map)
        self.edge_items = {e: tuple(v) for e, v in edge_items.items()}
        self._reversed: Dict[int, Tuple[Item, ...]] = {}

    def items(self, items: Sequence[Item]) -> Tuple[Item, ...]:
        out: List[Item] = []
        for item in items:
            if type(item) is int:
                piece = (self.edge_items[item] if item > 0
                         else self._reversed.get(item))
                if piece is None:
                    piece = invert_items(self.target, self.edge_items[-item])
                    self._reversed[item] = piece
                out.extend(piece)
            else:
                c, x = item
                out.append((self.cell_map[c], x))
        return tuple(out)

    def path(self, p: Path) -> Path:
        return tighten(self.target, self.cell_map[p.start], self.items(p.items))


def _rebuild(f: TopRep, tr: Transport, reps: Sequence[int],
             edge_images: Dict[int, Path],
             vertex_images: Dict[int, int]) -> TopRep:
    """Assemble the moved representative's cells and marking; ``reps``
    names a cell of each new one, and ``vertex_images`` the old cell
    under every plain vertex among them."""
    new_graph = tr.target
    cones = {}
    for c in new_graph.cone_cells():
        cm = f.cone_images[reps[c]]
        cones[c] = ConeMap(c, tr.cell_map[cm.target], cm.table)
    vertices = {c: tr.cell_map[vertex_images[reps[c]]]
                for c in new_graph.cells() if not new_graph.is_cone(c)}
    marking = f.marking.moved(tr) if f.marking is not None else None
    return TopRep(new_graph, edge_images, cones, vertices, marking)


def _quotient(f: TopRep, classes: Sequence[Sequence[int]],
              reach: Dict[int, Tuple[Item, ...]],
              dead: Dict[int, Tuple[Item, ...]],
              redraw: Iterable[int] = (),
              cuts: Optional[Dict[int, int]] = None,
              letter_first: AbstractSet[int] = frozenset()
              ) -> Tuple[TopRep, Transport]:
    """Cut ``f`` by the plan ``cuts`` and ``letter_first`` (see
    :func:`_cut_graph` and :func:`_cut_path`), squash each cell class of
    the cut graph to a cell and drop its dead pieces, in one step; the
    moved representative and the forward transport from ``f.graph``.

    ``classes`` lists the cut cells of each new cell in new-id order,
    representative first, and ``reach`` a cut walk from the
    representative to every other cell of its class.  ``dead`` spells
    each dropped piece in cut items.  A surviving piece takes its slice
    of its edge's image, carried by the one transport, except that edges
    in ``redraw`` (never cut) take the image of their old edge extended
    by ``reach`` at either end.
    """
    graph = f.graph
    cuts = cuts or {}
    kinds, ends, names, pieces = _cut_graph(graph, cuts)
    reps = [cls[0] for cls in classes]
    cell_map = {c: i for i, cls in enumerate(classes) for c in cls}
    survivors = [e for e in range(1, len(ends) + 1) if e not in dead]
    new_id = {old: i for i, old in enumerate(survivors, start=1)}
    new_graph = Orbigraph(
        graph.W, [kinds[c] for c in reps],
        [(cell_map[ends[e - 1][0]], cell_map[ends[e - 1][1]])
         for e in survivors],
        [names[e - 1] for e in survivors])

    fwd: Dict[int, Tuple[Item, ...]] = {e: (new_id[e],) for e in survivors}
    for e, items in dead.items():
        fwd[e] = tuple((new_id[i] if i > 0 else -new_id[-i])
                       if type(i) is int else (cell_map[i[0]], i[1])
                       for i in items)
    tr = Transport(graph, new_graph, {c: cell_map[c] for c in graph.cells()},
                   {e: tuple(i for piece in pieces[e] for i in fwd[piece])
                    for e in graph.edges()})

    vertices = dict(f.vertex_images)
    images: Dict[int, Path] = {}
    for e in graph.edges():
        halves: Tuple[Path, ...] = (f.edge_images[e],)
        if e in cuts:
            halves = _cut_path(halves[0], cuts[e], e in letter_first)
            vertices[ends[pieces[e][0] - 1][1]] = halves[1].start
        for piece, half in zip(pieces[e], halves):
            if piece in new_id:
                images[new_id[piece]] = tr.path(half)
    for e in redraw:
        s, t = graph.src(e), graph.dst(e)
        old = tighten(graph, reps[cell_map[s]],
                      reach.get(s, ()) + (e,)
                      + invert_items(graph, reach.get(t, ())))
        images[new_id[e]] = tr.path(f.apply(old))
    return _rebuild(f, tr, reps, images, vertices), tr


def _absorbing(graph: Orbigraph, into: Dict[int, int]) -> List[Tuple[int, ...]]:
    """Cell classes joining each key of ``into`` to the cell it names,
    numbered in the order of the cells that stay."""
    joined: Dict[int, Tuple[int, ...]] = {}
    for c, rep in into.items():
        joined[rep] = joined.get(rep, ()) + (c,)
    return [(c,) + joined.get(c, ()) for c in graph.cells() if c not in into]


# ---------------------------------------------------------------------------
# forests


def maximal_invariant_forest(f: TopRep) -> FrozenSet[int]:
    """A maximal invariant forest, as a set of edge ids, grown greedily in
    edge order: each edge brings the closure of the edges its iterated
    images cross, read off the nonzero entries of its column of the
    transition matrix, and joins when the union stays a forest.

    When the matrix is irreducible every closure is the whole tree, which
    joins two cone points when the graph has them, so the forest is empty
    without the loop."""
    graph = f.graph
    M = f.transition_matrix().entries
    if len(graph.cone_cells()) > 1 and is_irreducible(M):
        return frozenset()
    crossed = {e: [i for i, k in enumerate(col, start=1) if k]
               for e, col in enumerate(zip(*M), start=1)}
    chosen: Set[int] = set()
    for e in graph.edges():
        if e in chosen:
            continue
        closure = {e}
        queue = [e]
        while queue:
            for c in crossed[queue.pop()]:
                if c not in closure:
                    closure.add(c)
                    queue.append(c)
        candidate = chosen | closure
        if graph.is_forest(candidate):
            chosen = candidate
    return frozenset(chosen)


def _collapse(f: TopRep, edges: FrozenSet[int]) -> Tuple[TopRep, Transport]:
    """Collapse an invariant forest; the result and its transport."""
    graph = f.graph
    for e in edges:
        if not 1 <= e <= graph.n_edges:
            raise BadOrbigraph(f"no edge {e} in this graph")
    if not edges:
        raise NotInvariantForest("the forest has no edge")
    if not graph.is_forest(edges):
        raise NotInvariantForest("a component carries more than one cone point")
    for e in sorted(edges):
        if any(c not in edges for c in f.edge_images[e].crossings()):
            raise NotInvariantForest(
                f"image of edge {graph.edge_label(e)} leaves the forest")

    # a component collapses onto its cone point, or else onto its least cell
    classes: List[Tuple[int, ...]] = []
    reach: Dict[int, Tuple[Item, ...]] = {}
    for root in (*graph.cone_cells(), *graph.cells()):
        if root not in reach and any(abs(d) in edges
                                     for d in graph.edges_at(root)):
            walk = graph.walks(root, edges)
            reach.update(walk)
            classes.append(tuple(walk))
    classes += [(c,) for c in graph.cells() if c not in reach]
    classes.sort(key=min)
    # a forest edge's image may carry a cone letter, which an edge leaving
    # the forest picks up along its walk from the class representative
    redraw = [e for e in graph.edges() if e not in edges
              and (graph.src(e) in reach or graph.dst(e) in reach)]
    return _quotient(f, classes, reach, dict.fromkeys(edges, ()),
                     redraw=redraw)


def collapse_forest(f: TopRep, forest: Iterable[int]) -> TopRep:
    """Collapse each component of an invariant forest, given by its edge
    ids, to a cell.

    Paths crossing the forest keep their net cone letters; a component
    containing a cone point collapses onto that cone.
    """
    edges = frozenset(abs(e) for e in forest)
    return _collapse(f, edges)[0]


# ---------------------------------------------------------------------------
# subdivision


def subdivide(f: TopRep, e: int, split: int) -> TopRep:
    """Split edge ``e`` at the preimage of the zero cell after crossing
    number ``split`` of its image path."""
    graph = f.graph
    if not 1 <= e <= graph.n_edges:
        raise BadOrbigraph(f"no edge {e} in this graph")
    n = f.edge_images[e].n_edges
    if type(split) is not int or not 1 <= split <= n - 1:
        raise ImageNotAtZeroCell(
            f"edge {graph.edge_label(e)} has no interior point over "
            f"zero cell number {split} of its image")
    return _quotient(f, [(c,) for c in range(graph.n_cells + 1)], {}, {},
                     cuts={e: split})[0]


def _cut_graph(graph: Orbigraph, cuts: Dict[int, int]):
    """The cell kinds, edge ends and names of ``graph`` with each edge
    of ``cuts`` cut into pieces ``e`` and ``e'`` through a new vertex, and
    every edge's pieces; pieces are numbered in edge order, and the new
    vertices after the old cells in edge order."""
    kinds = list(graph.kinds)
    ends: List[Tuple[int, int]] = []
    names: List[str] = []
    taken = set(graph.edge_names)
    pieces: Dict[int, Tuple[int, ...]] = {}
    for e in graph.edges():
        s, t = graph.src(e), graph.dst(e)
        names.append(graph.edge_names[e - 1])
        if e not in cuts:
            ends.append((s, t))
            pieces[e] = (len(ends),)
            continue
        ends += [(s, len(kinds)), (len(kinds), t)]
        kinds.append(VERTEX)
        name = names[-1] + "'"
        while name in taken:
            name += "'"
        taken.add(name)
        names.append(name)
        pieces[e] = (len(ends) - 1, len(ends))
    return kinds, ends, names, pieces


def _cut_path(p: Path, k: int, letter_first: bool) -> Tuple[Path, Path]:
    """The images of the two pieces of an edge with image ``p``, cut at
    the zero cell after crossing number ``k``.

    A cut is a substitution and refines tight paths to tight paths, so
    each piece takes a slice of ``p``, tight up to trivial end letters,
    which are dropped.  A letter on the cut's zero cell opens the second
    slice, or closes the first when ``letter_first``.
    """
    items = p.items
    j = [i for i, item in enumerate(items) if type(item) is int][k - 1]
    at = j + 1
    if letter_first and type(items[at]) is not int:
        at += 1
    halves = []
    for start, body in ((p.start, items[:at]),
                        (p.graph.dst(items[j]), items[at:])):
        if type(body[0]) is not int and body[0][1] == 0:
            body = body[1:]
        if type(body[-1]) is not int and body[-1][1] == 0:
            body = body[:-1]
        halves.append(Path(p.graph, start, body, _tight=True))
    return halves[0], halves[1]


# ---------------------------------------------------------------------------
# folding


def _lettered(f: TopRep, t: Turn, p: Path) -> Path:
    """``p``, an image leaving the turn's base, after the turn's letter."""
    if not t.letter:
        return p
    lam = f.cone_images[t.base].table[t.letter]
    return tighten(f.graph, p.start, ((p.start, lam),) + p.items)


def fold(f: TopRep, turn: Turn) -> TopRep:
    """Identify the initial segments of two directions with a common
    image; the glued quotient, forests and all.

    The directions must leave a common cell, be distinct, and their
    images (after the turn's cone letter) must share at least one edge.
    The glue may leave an invariant forest or a low-valence vertex
    behind; :func:`orbitrain.traintrack.normalize` removes them.
    """
    return _fold_core(f, turn)[0]


def _fold_core(f: TopRep, turn: Turn) -> Tuple[TopRep, Transport]:
    """Fold ``turn``; the result and the forward transport from
    ``f.graph``.

    The cut plan and the glue are read off the input's images: both
    directions are cut where their shared image prefix ends, the two
    pieces' images are compared, and one quotient cuts the edges and
    glues the second piece onto the turn's letter followed by the first.
    """
    t = turn
    graph = f.graph
    if t.first == t.second:
        raise NothingToFold("the turn folds a direction onto itself")
    if graph.src(t.first) != t.base or graph.src(t.second) != t.base:
        raise NothingToFold("turn directions do not share the base cell")
    p1, p2 = f.image(t.first), _lettered(f, t, f.image(t.second))
    shared = 0
    for a, b in zip(p1.items, p2.items):
        if a != b:
            break
        shared += 1
    prefix = list(p1.items[:shared])
    k = sum(type(item) is int for item in prefix)
    if not k:
        raise NothingToFold("the images share no initial edge")
    # a fully consumed image whose tail the prefix does not cover cannot
    # be glued along this prefix, so the prefix gives back its last edge
    while any(k == p.n_edges and len(p.items) > len(prefix)
              for p in (p1, p2)):
        while type(prefix[-1]) is not int:
            prefix.pop()
        prefix.pop()
        k -= 1
        if not k:
            raise NothingToFold(
                "the foldable initial segments conflict at a cone point")
    # a prefix ending in a letter folds through that cone rotation, so
    # the cut keeps the junction letter with the folded piece
    keep_letter = type(prefix[-1]) is not int

    # cut each direction after the k edges of the prefix; the first piece
    # holds the junction letter exactly when keeping it with the folded
    # piece agrees with the direction's orientation
    cuts: Dict[int, int] = {}
    sides: Set[int] = set()
    for d in (t.first, t.second):
        n = f.edge_images[abs(d)].n_edges
        if k < n:
            cuts[abs(d)] = k if d > 0 else n - k
            if (d > 0) == keep_letter:
                sides.add(abs(d))
    kinds, ends, _, pieces = _cut_graph(graph, cuts)
    piece1, piece2 = (pieces[d][0] if d > 0 else -pieces[-d][-1]
                      for d in (t.first, t.second))
    # the pieces' images, sliced as the quotient slices them, must agree
    q: List[Path] = []
    for d in (t.first, t.second):
        e = abs(d)
        halves = (_cut_path(f.edge_images[e], cuts[e], e in sides)
                  if e in cuts else (f.image(e), f.image(e)))
        q.append(halves[0] if d > 0 else halves[1].invert())
    if q[0] != _lettered(f, t, q[1]):
        raise BadRepresentative("fold pieces disagree after subdivision")

    # glue piece2 onto the letter followed by piece1
    (b, v1), (b2, v2) = (ends[d - 1] if d > 0 else ends[-d - 1][::-1]
                         for d in (piece1, piece2))
    if b2 != b:
        raise NothingToFold("fold pieces do not share their initial cell")
    if abs(piece1) == abs(piece2):
        raise NothingToFold("cannot glue an edge onto itself")
    if v1 != v2 and kinds[v1] != VERTEX and kinds[v2] != VERTEX:
        raise BadRepresentative("fold would merge two distinct cone points")
    ginv = ((b, graph.group_at(b).inv(t.letter)),) if t.letter else ()
    glued = ginv + (piece1,)
    if piece2 < 0:
        glued = invert_items(graph, glued)
    classes = [(c,) for c in range(len(kinds))]
    reach: Dict[int, Tuple[Item, ...]] = {}
    if v1 != v2:
        # the glue collapses kappa, the path from v2 to v1
        kappa = (-piece2,) + ginv + (piece1,)
        rep, other = (v2, v1) if kinds[v2] != VERTEX else (v1, v2)
        reach[other] = kappa if rep == v2 else invert_items(graph, kappa)
        classes[min(v1, v2)] = (rep, other)
        del classes[max(v1, v2)]
    return _quotient(f, classes, reach, {abs(piece2): glued}, cuts=cuts,
                     letter_first=sides)


# ---------------------------------------------------------------------------
# valence moves


def valence_one_homotopy(f: TopRep, v: int) -> TopRep:
    """Retract a dangling vertex and its edge; the quotient, with any
    forest it leaves uncollapsed."""
    graph = f.graph
    if not 0 <= v < graph.n_cells:
        raise BadOrbigraph(f"no cell {v} in this graph")
    if graph.is_cone(v):
        raise ConePointForbidden(
            "retracting a cone point would change the group")
    dirs = graph.edges_at(v)
    if len(dirs) != 1:
        raise NotValenceOne(f"cell {v} has valence {len(dirs)}")
    d = dirs[0]
    return _quotient(f, _absorbing(graph, {v: graph.dst(d)}), {v: (-d,)},
                     {abs(d): ()})[0]


def valence_two_homotopy(f: TopRep, v: int, collapse: int) -> TopRep:
    """Remove a valence-two vertex, collapsing one incident edge and
    stretching the other across it.

    The move checks no growth-rate bound: the caller chooses which edge
    to collapse.  Like every move it returns its quotient as built and
    collapses no forest.
    """
    graph = f.graph
    if not 0 <= v < graph.n_cells:
        raise BadOrbigraph(f"no cell {v} in this graph")
    if graph.is_cone(v):
        raise ConePointForbidden("cannot remove a cone point")
    dirs = graph.edges_at(v)
    if len(dirs) != 2:
        raise NotValenceTwo(f"cell {v} has valence {len(dirs)}")
    if collapse not in (abs(dirs[0]), abs(dirs[1])):
        raise NotValenceTwo(f"edge {collapse} does not meet cell {v}")
    d_col = dirs[0] if abs(dirs[0]) == collapse else dirs[1]
    keep = abs(dirs[1] if d_col == dirs[0] else dirs[0])

    # the stretched edge spans its old self plus the collapsed corridor
    return _quotient(f, _absorbing(graph, {v: graph.dst(d_col)}),
                     {v: (-d_col,)}, {collapse: ()}, redraw=(keep,))[0]


# ---------------------------------------------------------------------------
# sliding


def slide(f: TopRep, d: int, alpha: Path) -> TopRep:
    """Move the head of the directed edge ``d`` along a path avoiding its
    edge, so ``slide(f, -e, alpha)`` moves the initial end of ``e``."""
    graph = f.graph
    if alpha.graph is not graph or alpha.start != graph.dst(d):
        raise BadSlidePath(
            "the sliding path must leave the slid edge's endpoint")
    edge = abs(d)
    if edge in alpha.crossings():
        raise BadSlidePath("the sliding path crosses the slid edge")

    ends = [(graph.src(e), graph.dst(e)) for e in graph.edges()]
    moved = (graph.src(d), alpha.end)
    ends[edge - 1] = moved if d > 0 else moved[::-1]
    new_graph = Orbigraph(graph.W, list(graph.kinds), ends,
                          list(graph.edge_names))

    # the new d runs along the old d and then alpha; a reversed d
    # stores the itineraries of its positive edge
    fwd = {e: (e,) for e in graph.edges()}
    fwd[edge] = (d,) + invert_items(graph, alpha.items)
    moved_image = f.image(d) * f.apply(alpha)
    if d < 0:
        fwd[edge] = invert_items(graph, fwd[edge])
        moved_image = moved_image.invert()
    tr = Transport(graph, new_graph, {c: c for c in graph.cells()}, fwd)

    images = {e: tr.path(f.edge_images[e]) for e in graph.edges()}
    images[edge] = tr.path(moved_image)
    return _rebuild(f, tr, graph.cells(), images, f.vertex_images)
