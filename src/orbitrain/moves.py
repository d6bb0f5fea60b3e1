"""Homotopy moves on topological representatives.

Every move is a pure function producing a fresh representative of the
same outer automorphism.  The geometry is handled by one forward path
transport per move, rewriting old paths on the new graph; the move is a
homotopy equivalence, so the same transport carries the marking forward
(:meth:`Marking.moved`).  Interior points of edges are symbolic
rationals, so subdivision points coming from invariant cores never touch
floating point.
"""

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from typing import (Dict, FrozenSet, Iterable, List, Optional, Sequence,
                    Set, Tuple)

from .errors import (
    BadRepresentative,
    CapExceeded,
    ConePointForbidden,
    ImageNotAtZeroCell,
    ImageNotTrivial,
    NotInvariantForest,
    NothingToFold,
    NotValenceOne,
    NotValenceTwo,
    NotZeroStratum,
    PathNotInLowerStrata,
    UnsafeMove,
)
from .orbigraph import Orbigraph, Subgraph, VERTEX
from .paths import Path, Turn, invert_items, tighten
from .toprep import (
    EG,
    ConeMap,
    TopRep,
    classify_strata,
    maximal_filtration,
)

Item = object


# ---------------------------------------------------------------------------
# trace records


@dataclass(frozen=True)
class MoveTrace:
    """One applied move: name, parameters, and matrices before/after."""

    move: str
    details: Tuple
    before: Tuple[Tuple[int, ...], ...]
    after: Tuple[Tuple[int, ...], ...]


_RECORDER: ContextVar[Optional[List[MoveTrace]]] = ContextVar(
    "orbitrain_move_log", default=None)


@contextmanager
def record_moves():
    """Collect a MoveTrace for every move applied inside the block."""
    log: List[MoveTrace] = []
    token = _RECORDER.set(log)
    try:
        yield log
    finally:
        _RECORDER.reset(token)


def _emit(move, details, before: TopRep, after: TopRep):
    log = _RECORDER.get()
    if log is not None:
        log.append(MoveTrace(move, tuple(details),
                             before.transition_matrix().entries,
                             after.transition_matrix().entries))


# ---------------------------------------------------------------------------
# path transport


class Transport:
    """Rewrites paths of one graph as paths of another.

    ``cell_map`` sends each source cell to a target cell; ``edge_items``
    spells out the target itinerary of every positive source edge.
    Letters travel to the mapped cell unchanged.
    """

    __slots__ = ("source", "target", "cell_map", "edge_items")

    def __init__(self, source: Orbigraph, target: Orbigraph,
                 cell_map: Dict[int, int],
                 edge_items: Dict[int, Sequence[Item]]):
        self.source = source
        self.target = target
        self.cell_map = dict(cell_map)
        self.edge_items = {e: tuple(v) for e, v in edge_items.items()}

    @classmethod
    def identity(cls, graph: Orbigraph) -> "Transport":
        return cls(graph, graph,
                   {c: c for c in graph.cells()},
                   {e: (e,) for e in graph.edges()})

    def items(self, items: Sequence[Item]) -> Tuple[Item, ...]:
        out: List[Item] = []
        for item in items:
            if type(item) is int:
                piece = self.edge_items[abs(item)]
                out.extend(piece if item > 0
                           else invert_items(self.target, piece))
            else:
                c, x = item
                out.append((self.cell_map[c], x))
        return tuple(out)

    def path(self, p: Path) -> Path:
        return tighten(self.target, self.cell_map[p.start], self.items(p.items))

    def then(self, later: "Transport") -> "Transport":
        """The composite transport ``self.source -> later.target``."""
        cells = {c: later.cell_map[v] for c, v in self.cell_map.items()}
        edges = {e: later.items(v) for e, v in self.edge_items.items()}
        return Transport(self.source, later.target, cells, edges)


def _rebuild(f: TopRep, tr: Transport, reps: Sequence[int],
             edge_images: Dict[int, Path]) -> TopRep:
    """Assemble the moved representative's cells and marking; ``reps``
    names an old cell of each new one."""
    new_graph = tr.target
    cones = {}
    for c in new_graph.cone_cells():
        cm = f.cone_images[reps[c]]
        cones[c] = ConeMap(c, tr.cell_map[cm.target], cm.table)
    vertices = {c: tr.cell_map[f.cell_image(reps[c])]
                for c in new_graph.cells() if not new_graph.is_cone(c)}
    marking = f.marking.moved(tr) if f.marking is not None else None
    return TopRep(new_graph, edge_images, cones, vertices, marking)


def _quotient(f: TopRep, classes: Sequence[Sequence[int]],
              reach: Dict[int, Tuple[Item, ...]],
              dead: Dict[int, Tuple[Item, ...]],
              extra: Sequence[Tuple[str, int, Tuple[Item, ...]]] = (),
              redraw: Iterable[int] = ()) -> Tuple[TopRep, Transport]:
    """Map ``f`` onto the graph that squashes each cell class to a cell,
    drops the dead edges and adds the extra ones; returns the moved
    representative and the forward transport.

    ``classes`` lists the old cells of each new cell in new-id order,
    representative first, and ``reach`` holds an old walk from the
    representative to every other cell of its class.  ``dead`` spells
    each dropped edge in old items, where the ids past the last old edge
    name the ``extra`` edges in order.  An extra edge is a ``(name,
    start, items)`` old walk that it replaces.  Surviving edges keep their
    image, except that those in ``redraw`` take the image of their old
    edge extended by ``reach`` at either end, as extra edges do.
    """
    graph = f.graph
    reps = [cls[0] for cls in classes]
    cell_map = {c: i for i, cls in enumerate(classes) for c in cls}
    survivors = [e for e in graph.edges() if e not in dead]
    first = len(survivors) + 1  # the new id of the first extra edge
    new_id = {old: i for i, old in enumerate(survivors, start=1)}
    new_id.update((graph.n_edges + 1 + j, first + j) for j in range(len(extra)))
    added = [tighten(graph, start, items) for _, start, items in extra]

    ends = [(cell_map[graph.src(e)], cell_map[graph.dst(e)]) for e in survivors]
    ends += [(cell_map[p.start], cell_map[p.end]) for p in added]
    names = [graph.edge_names[e - 1] for e in survivors]
    names += [name for name, _, _ in extra]
    new_graph = Orbigraph(graph.W, [graph.kinds[c] for c in reps], ends, names)

    fwd: Dict[int, Tuple[Item, ...]] = {e: (new_id[e],) for e in survivors}
    for e, items in dead.items():
        fwd[e] = tuple((new_id[i] if i > 0 else -new_id[-i])
                       if type(i) is int else (cell_map[i[0]], i[1])
                       for i in items)
    tr = Transport(graph, new_graph, cell_map, fwd)

    images = {new_id[e]: tr.path(f.edge_images[e]) for e in survivors}
    for e in redraw:
        s, t = graph.src(e), graph.dst(e)
        old = tighten(graph, reps[cell_map[s]],
                      reach.get(s, ()) + (e,)
                      + invert_items(graph, reach.get(t, ())))
        images[new_id[e]] = tr.path(f.apply(old))
    for j, old in enumerate(added, start=first):
        images[j] = tr.path(f.apply(old))
    return _rebuild(f, tr, reps, images), tr


def _walks(graph: Orbigraph, root: int,
           edges: FrozenSet[int]) -> Dict[int, Tuple[Item, ...]]:
    """A walk inside ``edges`` from ``root`` to every cell it reaches."""
    walk: Dict[int, Tuple[Item, ...]] = {root: ()}
    frontier = [root]
    while frontier:
        c = frontier.pop()
        for d in graph.edges_at(c):
            if abs(d) not in edges:
                continue
            nxt = graph.dst(d)
            if nxt not in walk:
                walk[nxt] = walk[c] + (d,)
                frontier.append(nxt)
    return walk


def _absorbing(graph: Orbigraph, into: Dict[int, int]) -> List[Tuple[int, ...]]:
    """Cell classes joining each key of ``into`` to the cell it names,
    numbered in the order of the cells that stay."""
    joined: Dict[int, Tuple[int, ...]] = {}
    for c, rep in into.items():
        joined[rep] = joined.get(rep, ()) + (c,)
    return [(c,) + joined.get(c, ()) for c in graph.cells() if c not in into]


# ---------------------------------------------------------------------------
# tightening and forests


def maximal_pretrivial_forest(f: TopRep) -> Subgraph:
    """Edges whose iterated images die at points.

    An edge joins once every edge its image crosses is already known to
    die and the image carries no nontrivial cone letter.
    """
    graph = f.graph
    dead: Set[int] = set()
    grown = True
    while grown:
        grown = False
        for e in graph.edges():
            if e in dead:
                continue
            p = f.edge_images[e]
            if any(type(item) is not int and item[1] != 0 for item in p.items):
                continue
            if all(c in dead for c in p.crossings()):
                dead.add(e)
                grown = True
    forest = graph.subgraph(dead)
    if dead and not forest.is_forest():
        raise BadRepresentative("pretrivial edges do not form a forest")
    return forest


def maximal_invariant_forest(f: TopRep) -> Subgraph:
    """A maximal invariant forest, grown greedily in edge order.

    The result is cached on the representative, so a search repeated on
    the same representative (the descent's normalisation after a fold's
    cleanup) costs nothing.
    """
    if f._forest is not None:
        return f._forest
    graph = f.graph
    crossed = {e: tuple(f.edge_images[e].crossings()) for e in graph.edges()}
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
        if graph.subgraph(candidate).is_forest():
            chosen = candidate
    f._forest = graph.subgraph(chosen)
    return f._forest


def _edge_set(forest) -> Set[int]:
    if isinstance(forest, Subgraph):
        return set(forest.edges)
    return {int(e) for e in forest}


def _collapse(f: TopRep, forest) -> Tuple[TopRep, Transport]:
    """Collapse an invariant forest; the result and its transport."""
    graph = f.graph
    edges = _edge_set(forest)
    sub = graph.subgraph(edges)
    if not sub.is_forest():
        raise NotInvariantForest("a component carries more than one cone point")
    for e in sorted(edges):
        if any(c not in edges for c in f.edge_images[e].crossings()):
            raise NotInvariantForest(
                f"image of edge {graph.edge_label(e)} leaves the forest")

    classes: List[Tuple[int, ...]] = []
    reach: Dict[int, Tuple[Item, ...]] = {}
    for comp in sub.components():
        cones = comp.cone_cells()
        rep = cones[0] if cones else min(comp.cells)
        reach.update(_walks(graph, rep, comp.edges))
        classes.append((rep,) + tuple(c for c in sorted(comp.cells)
                                      if c != rep))
    classes += [(c,) for c in graph.cells() if c not in reach]
    classes.sort(key=min)
    # a forest edge's image may carry a cone letter, which an edge leaving
    # the forest picks up along its walk from the class representative
    redraw = [e for e in graph.edges() if e not in edges
              and (graph.src(e) in reach or graph.dst(e) in reach)]
    return _quotient(f, classes, reach, dict.fromkeys(edges, ()),
                     redraw=redraw)


def collapse_forest(f: TopRep, forest) -> TopRep:
    """Collapse each component of an invariant forest to a cell.

    Paths crossing the forest keep their net cone letters; a component
    containing a cone point collapses onto that cone.
    """
    out, _ = _collapse(f, forest)
    _emit("collapse_forest", (tuple(sorted(_edge_set(forest))),), f, out)
    return out


def _collapse_cleanup(f: TopRep, collapse_invariant: bool):
    """Collapse pretrivial and (optionally) invariant forests until none
    remain, returning the result and the accumulated transport."""
    acc = Transport.identity(f.graph)
    while True:
        forest = maximal_pretrivial_forest(f)
        if not forest.nontrivial:
            if not collapse_invariant:
                break
            forest = maximal_invariant_forest(f)
            if not forest.nontrivial:
                break
        f, tr = _collapse(f, forest)
        acc = acc.then(tr)
    return f, acc


# ---------------------------------------------------------------------------
# subdivision


def subdivide(f: TopRep, e: int, split: int) -> TopRep:
    """Split edge ``e`` at its interior point over the ``split``-th zero
    cell of its image path."""
    n = f.edge_images[e].n_edges
    if not isinstance(split, int) or not 1 <= split <= n - 1:
        raise ImageNotAtZeroCell(
            f"edge {f.graph.edge_label(e)} has no interior point over "
            f"zero cell number {split} of its image")
    out, _ = _subdivide_many(f, {e: (Fraction(split, n),)})
    _emit("subdivide", (e, split), f, out)
    return out


def _cut_site(f: TopRep, e: int, x: Fraction
              ) -> Tuple[int, int, Optional[Fraction]]:
    """Where the interior point of ``e`` at position ``x`` lands: the
    index ``j`` and direction ``d`` of the crossing of its image that
    holds it, and the point of edge ``abs(d)`` it hits, or ``None`` when
    it lands on the head of ``d``, a zero cell."""
    crossings = f.edge_images[e].edge_items()
    s = x * len(crossings)
    j = s.numerator // s.denominator
    if s.denominator == 1:
        return j - 1, crossings[j - 1], None
    d = crossings[j]
    return j, d, (s - j if d > 0 else j + 1 - s)


def _subdivide_many(f: TopRep, points: Dict[int, Sequence[Fraction]],
                    letter_first: Iterable[Tuple[int, Fraction]] = ()
                    ) -> Tuple[TopRep, Transport]:
    """Subdivide edges at interior rational positions; returns the result
    and the forward transport onto its pieces.

    Subdivision is a substitution: every old edge reads as the run of its
    pieces.  A refinement of a tight path is tight, so the image of an
    uncut edge is its old image refined, never re-tightened, and each
    piece of a cut edge takes a slice of that refined image between
    integer indices.  Subdivision adds only letter-free valence-two
    vertices and keeps every old cell id, so every loop at the base reads
    the same word and the marking is unchanged.

    When a cut lands on a zero cell of an image path that carries a cone
    letter, the letter normally opens the second piece's image; cuts
    listed in ``letter_first`` close the first piece with it instead.
    """
    graph = f.graph
    first_side = {(e, Fraction(x)) for e, x in letter_first}
    cuts: Dict[int, Tuple[Fraction, ...]] = {}
    for e, xs in points.items():
        xs = tuple(sorted({Fraction(x) for x in xs}))
        if not xs:
            continue
        if xs[0] <= 0 or xs[-1] >= 1:
            raise ImageNotAtZeroCell("subdivision points must be interior")
        cuts[e] = xs
    if not cuts:
        return f, Transport.identity(graph)

    n_cells = graph.n_cells
    kinds = list(graph.kinds)
    vert_of: Dict[Tuple[int, Fraction], int] = {}
    rank: Dict[Tuple[int, Fraction], int] = {}  # pieces of the edge before it
    for e in sorted(cuts):
        for k, x in enumerate(cuts[e], start=1):
            vert_of[(e, x)] = n_cells
            rank[(e, x)] = k
            kinds.append(VERTEX)
            n_cells += 1

    ends: List[Tuple[int, int]] = []
    names: List[str] = []
    taken = set(graph.edge_names)
    pieces: Dict[int, Tuple[int, ...]] = {}
    next_id = 1
    for e in graph.edges():
        xs = cuts.get(e, ())
        stops = [graph.src(e)] + [vert_of[(e, x)] for x in xs] + [graph.dst(e)]
        ids = []
        for k in range(len(stops) - 1):
            ends.append((stops[k], stops[k + 1]))
            if k == 0:
                names.append(graph.edge_names[e - 1])
            else:
                name = graph.edge_names[e - 1] + "'" * k
                while name in taken:
                    name += "'"
                taken.add(name)
                names.append(name)
            ids.append(next_id)
            next_id += 1
        pieces[e] = tuple(ids)
    new_graph = Orbigraph(graph.W, kinds, ends, names)
    tr = Transport(graph, new_graph, {c: c for c in graph.cells()}, pieces)

    vertices = dict(f.vertex_images)
    images: Dict[int, Path] = {}
    for e in graph.edges():
        p = f.edge_images[e]
        refined = tr.items(p.items)
        if e not in cuts:
            images[pieces[e][0]] = Path(new_graph, p.start, refined,
                                        _tight=True)
            continue
        runs = []  # where each crossing's run of pieces starts in refined
        at = 0
        for item in p.items:
            if type(item) is int:
                runs.append(at)
                at += len(pieces[abs(item)])
            else:
                at += 1
        bounds = [0]
        starts = [p.start]
        for x in cuts[e]:
            j, d, y = _cut_site(f, e, x)
            at = runs[j]
            if y is None:
                # on the head of crossing j, before its junction letter
                at += len(pieces[abs(d)])
                cell = graph.dst(d)
                if (e, x) in first_side and type(refined[at]) is not int:
                    at += 1
            elif (abs(d), y) in vert_of:
                # inside crossing j, at a cut of the crossed edge
                cell = vert_of[(abs(d), y)]
                k = rank[(abs(d), y)]
                at += k if d > 0 else len(pieces[abs(d)]) - k
            else:
                raise ImageNotAtZeroCell(
                    f"point {x} of edge {graph.edge_label(e)} maps inside "
                    f"an edge away from every subdivision point")
            vertices[vert_of[(e, x)]] = cell
            bounds.append(at)
            starts.append(cell)
        bounds.append(len(refined))
        for k, piece in enumerate(pieces[e]):
            # a slice of a tight walk is tight up to trivial end letters
            body = refined[bounds[k]:bounds[k + 1]]
            if type(body[0]) is not int and body[0][1] == 0:
                body = body[1:]
            if type(body[-1]) is not int and body[-1][1] == 0:
                body = body[:-1]
            images[piece] = Path(new_graph, starts[k], body, _tight=True)

    marking = f.marking.moved(tr) if f.marking is not None else None
    return (TopRep(new_graph, images, dict(f.cone_images), vertices, marking),
            tr)


# ---------------------------------------------------------------------------
# folding


def _adjusted_images(f: TopRep, t: Turn) -> Tuple[Path, Path]:
    """The two image paths a fold compares, cone letter already applied."""
    p1 = f.image(t.first)
    p2 = f.image(t.second)
    if t.letter:
        lam = f.cone_images[t.base].table[t.letter]
        p2 = tighten(f.graph, p2.start, ((p2.start, lam),) + p2.items)
    return p1, p2


def fold(f: TopRep, turn: Turn) -> TopRep:
    """Identify the initial segments of two directions with a common
    image, then collapse whatever forest the identification leaves.

    The directions must leave a common cell, be distinct, and their
    images (after the turn's cone letter) must share at least one edge.
    """
    out, _ = _fold_core(f, turn)
    _emit("fold", (turn.first, turn.letter, turn.second, turn.base), f, out)
    return out


def _fold_core(f: TopRep, turn: Turn, *, collapse_invariant: bool = True):
    """Fold ``turn``; the result and the forward transport.

    Both directions are cut where their shared image prefix ends, on the
    input's images and in one subdivision; one quotient then glues the
    second piece onto the turn's letter followed by the first, and the
    forest cleanup collapses whatever the glue leaves behind.
    """
    t = turn
    graph = f.graph
    if t.first == t.second:
        raise NothingToFold("the turn folds a direction onto itself")
    if graph.src(t.first) != t.base or graph.src(t.second) != t.base:
        raise NothingToFold("turn directions do not share the base cell")
    p1, p2 = _adjusted_images(f, t)
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
    cuts: Dict[int, Tuple[Fraction]] = {}
    sides = []
    for d in (t.first, t.second):
        n = f.edge_images[abs(d)].n_edges
        if k < n:
            cut = Fraction(k if d > 0 else n - k, n)
            cuts[abs(d)] = (cut,)
            if (d > 0) == keep_letter:
                sides.append((abs(d), cut))
    work, sub = _subdivide_many(f, cuts, letter_first=sides)
    piece1, piece2 = (sub.edge_items[d][0] if d > 0
                      else -sub.edge_items[-d][-1]
                      for d in (t.first, t.second))
    q1, q2 = _adjusted_images(work, Turn(piece1, t.letter, piece2, t.base))
    if q1 != q2:
        raise BadRepresentative("fold pieces disagree after subdivision")

    # glue piece2 onto the letter followed by piece1
    g = work.graph
    b = g.src(piece1)
    if g.src(piece2) != b:
        raise NothingToFold("fold pieces do not share their initial cell")
    if abs(piece1) == abs(piece2):
        raise NothingToFold("cannot glue an edge onto itself")
    v1, v2 = g.dst(piece1), g.dst(piece2)
    if v1 != v2 and g.is_cone(v1) and g.is_cone(v2):
        raise BadRepresentative("fold would merge two distinct cone points")
    ginv = ((b, g.group_at(b).inv(t.letter)),) if t.letter else ()
    glued = ginv + (piece1,)
    if piece2 < 0:
        glued = invert_items(g, glued)
    classes = [(c,) for c in g.cells()]
    reach: Dict[int, Tuple[Item, ...]] = {}
    if v1 != v2:
        # the glue collapses kappa, the path from v2 to v1
        kappa = (-piece2,) + ginv + (piece1,)
        rep, other = (v2, v1) if g.is_cone(v2) else (v1, v2)
        reach[other] = kappa if rep == v2 else invert_items(g, kappa)
        classes[min(v1, v2)] = (rep, other)
        del classes[max(v1, v2)]
    folded, tr = _quotient(work, classes, reach, {abs(piece2): glued})

    folded, extra = _collapse_cleanup(folded, collapse_invariant)
    return folded, sub.then(tr).then(extra)


# ---------------------------------------------------------------------------
# valence moves


def valence_one_homotopy(f: TopRep, v: int) -> TopRep:
    """Retract a dangling vertex and its edge."""
    graph = f.graph
    if graph.is_cone(v):
        raise ConePointForbidden(
            "retracting a cone point would change the group")
    dirs = graph.edges_at(v)
    if len(dirs) != 1:
        raise NotValenceOne(f"cell {v} has valence {len(dirs)}")
    d = dirs[0]
    out, _ = _quotient(f, _absorbing(graph, {v: graph.dst(d)}), {v: (-d,)},
                       {abs(d): ()})
    out, _ = _collapse_cleanup(out, collapse_invariant=False)
    _emit("valence_one", (v,), f, out)
    return out


def valence_two_homotopy(f: TopRep, v: int, collapse: int, *,
                         strict: bool = True) -> TopRep:
    """Remove a valence-two vertex, collapsing one incident edge and
    stretching the other across it.

    In strict mode the move is refused unless the growth-rate bound
    holds: the collapsed edge must lie in a non-exponential stratum or
    strictly below the stretched edge's stratum.
    """
    graph = f.graph
    if graph.is_cone(v):
        raise ConePointForbidden("cannot remove a cone point")
    dirs = graph.edges_at(v)
    if len(dirs) != 2:
        raise NotValenceTwo(f"cell {v} has valence {len(dirs)}")
    if collapse not in (abs(dirs[0]), abs(dirs[1])):
        raise NotValenceTwo(f"edge {collapse} does not meet cell {v}")
    d_col = dirs[0] if abs(dirs[0]) == collapse else dirs[1]
    keep = abs(dirs[1] if d_col == dirs[0] else dirs[0])

    if strict:
        filt = classify_strata(f, maximal_filtration(f))
        i = filt.stratum_of(collapse)
        j = filt.stratum_of(keep)
        if filt.strata[i].kind == EG and not i < j:
            raise UnsafeMove(
                "collapsing an exponential edge not strictly below the "
                "stretched one may raise the growth rate")

    # the stretched edge spans its old self plus the collapsed corridor
    out, _ = _quotient(f, _absorbing(graph, {v: graph.dst(d_col)}),
                       {v: (-d_col,)}, {collapse: ()}, redraw=(keep,))
    out, _ = _collapse_cleanup(out, collapse_invariant=False)
    _emit("valence_two", (v, collapse), f, out)
    return out


# ---------------------------------------------------------------------------
# invariant core subdivision


Interval = Tuple[Fraction, Fraction]
_Pick = Tuple[int, int, int]


def _core_step(f: TopRep, hr: FrozenSet[int],
               cores: Dict[int, Interval],
               ) -> Tuple[Dict[int, Interval], Dict[Tuple[int, int], _Pick]]:
    """One refinement round of the hull map, with the winning crossings.

    Each endpoint of the new hull is realized by some in-stratum crossing
    of the edge image; the returned pick table records which one, so a
    non-stabilizing run can be closed off exactly.
    """
    out: Dict[int, Interval] = {}
    picks: Dict[Tuple[int, int], _Pick] = {}
    for e in sorted(hr):
        p = f.edge_images[e]
        n = p.n_edges
        lo = hi = None
        pos = 0
        for item in p.items:
            if type(item) is not int:
                continue
            te = abs(item)
            if te in hr:
                a, b = cores[te]
                if item > 0:
                    piece = (Fraction(pos + a, n), Fraction(pos + b, n))
                else:
                    piece = (Fraction(pos + 1 - b, n),
                             Fraction(pos + 1 - a, n))
                if lo is None or piece[0] < lo:
                    lo = piece[0]
                    picks[(e, 0)] = (pos, te, 1 if item > 0 else -1)
                if hi is None or piece[1] > hi:
                    hi = piece[1]
                    picks[(e, 1)] = (pos, te, 1 if item > 0 else -1)
            pos += 1
        if lo is None:
            raise BadRepresentative(
                f"image of edge {f.graph.edge_label(e)} avoids the stratum")
        out[e] = (lo, hi)
    return out, picks


def _solve_core_selection(f: TopRep, hr: FrozenSet[int],
                          picks: Dict[Tuple[int, int], _Pick],
                          ) -> Dict[int, Interval]:
    """Solve the hull map exactly under a frozen crossing selection.

    With the winning crossings fixed, each endpoint satisfies one affine
    relation in one other endpoint, so the whole system is a functional
    graph of affine maps; cycles are closed by solving a one-variable
    equation and the rest follows by substitution.
    """
    def relation(key: Tuple[int, int]) -> Tuple[Tuple[int, int],
                                                Fraction, Fraction]:
        e, side = key
        pos, te, sign = picks[key]
        n = f.edge_images[e].n_edges
        if sign > 0:
            # endpoint = (pos + same-side endpoint of te) / n
            return (te, side), Fraction(1, n), Fraction(pos, n)
        # reversed crossing swaps the sides
        return (te, 1 - side), Fraction(-1, n), Fraction(pos + 1, n)

    values: Dict[Tuple[int, int], Fraction] = {}

    def solve(key: Tuple[int, int]) -> None:
        if key in values:
            return
        path = [key]
        rels: Dict[Tuple[int, int], Tuple[Tuple[int, int],
                                          Fraction, Fraction]] = {}
        while True:
            cur = path[-1]
            dep, coeff, shift = relation(cur)
            rels[cur] = (dep, coeff, shift)
            if dep in values:
                break
            if dep in rels:
                # compose x_dep = a*x_dep + b around the cycle and solve
                a, b = Fraction(1), Fraction(0)
                node = dep
                while True:
                    d2, c2, s2 = rels[node]
                    a, b = a * c2, a * s2 + b
                    node = d2
                    if node == dep:
                        break
                if a == 1:
                    raise CapExceeded(
                        "invariant cores failed to stabilize")
                values[dep] = b / (1 - a)
                break
            path.append(dep)
        for node in reversed(path):
            d2, c2, s2 = rels[node]
            values[node] = c2 * values[d2] + s2

    for e in sorted(hr):
        solve((e, 0))
        solve((e, 1))
    return {e: (values[(e, 0)], values[(e, 1)]) for e in sorted(hr)}


def _invariant_cores(f: TopRep, hr: FrozenSet[int]) -> Dict[int, Interval]:
    """Exact invariant core interval of every edge in the stratum.

    The hull map is iterated until it either stabilizes or keeps one
    winning crossing per endpoint for two consecutive rounds; in the
    latter case its fixed point is solved exactly and verified against
    one more true refinement round.
    """
    cores: Dict[int, Interval] = {e: (Fraction(0), Fraction(1)) for e in hr}
    burn = 4 * sum(f.edge_images[e].n_edges for e in hr) + 16
    prev_picks: Optional[Dict[Tuple[int, int], _Pick]] = None
    for _ in range(burn):
        nxt, picks = _core_step(f, hr, cores)
        if nxt == cores:
            return cores
        if picks == prev_picks:
            try:
                solved = _solve_core_selection(f, hr, picks)
            except CapExceeded:
                solved = None
            if solved is not None and all(
                    0 <= lo <= hi <= 1 for lo, hi in solved.values()):
                if _core_step(f, hr, solved)[0] == solved:
                    return solved
        prev_picks = picks
        cores = nxt
    raise CapExceeded("invariant cores failed to stabilize")


def invariant_core_subdivision(f: TopRep, stratum: Iterable[int]) -> TopRep:
    """Subdivide an exponential stratum at its invariant core endpoints.

    The core of an edge is the smallest closed interval holding each
    point whose whole forward orbit stays in the stratum.  Cutting at the
    core endpoints (and their images) separates the stratum from the
    transient parts of its edges.  When the cores already fill every
    edge, the representative is returned unchanged.
    """
    hr = frozenset(int(e) for e in stratum)
    graph = f.graph
    cores = _invariant_cores(f, hr)

    cuts: Dict[int, Set[Fraction]] = {}
    for e, (lo, hi) in cores.items():
        for x in (lo, hi):
            if 0 < x < 1:
                cuts.setdefault(e, set()).add(x)
    # close the cut set under the point map so every new vertex has a
    # zero cell to land on
    closure_cap = 4 * sum(
        f.edge_images[e].n_edges for e in graph.edges()) + 16
    for _ in range(closure_cap):
        grown = False
        for e in sorted(cuts):
            for x in sorted(cuts[e]):
                _, d, y = _cut_site(f, e, x)
                if y is not None and y not in cuts.setdefault(abs(d), set()):
                    cuts[abs(d)].add(y)
                    grown = True
        if not grown:
            break
    else:
        raise CapExceeded("core endpoint orbit failed to close")

    if not cuts:
        return f
    out, _ = _subdivide_many(
        f, {e: tuple(sorted(xs)) for e, xs in cuts.items()})
    _emit("invariant_core_subdivision", (tuple(sorted(hr)),), f, out)
    return out


# ---------------------------------------------------------------------------
# connecting paths, sliding, tree replacement


def fold_connecting_path(f: TopRep, alpha: Path, cap: int = 1000) -> TopRep:
    """Collapse a path whose image tightens to a point, by folding.

    Repeatedly folds a junction of the path whose image turn degenerates,
    collapsing dead edges as they appear, until the whole path has been
    squeezed to a cell.
    """
    if alpha.graph is not f.graph:
        raise ImageNotTrivial("the path lives on a different graph")
    if not f.apply(alpha).is_trivial:
        raise ImageNotTrivial("the path's image does not tighten away")
    work = f
    path = alpha
    for _ in range(cap):
        if path.n_edges == 0:
            break
        # a path with trivial image either crosses an edge that dies or
        # has a junction degenerating in one step; fold the latter
        turn = _first_foldable_junction(work, path)
        if turn is not None:
            work, tr = _fold_core(work, turn, collapse_invariant=False)
            path = tr.path(path)
            continue
        forest = maximal_pretrivial_forest(work)
        if not forest.nontrivial:
            raise ImageNotTrivial(
                "no junction folds and no edge dies; the path cannot "
                "be collapsed")
        work, tr = _collapse(work, forest)
        path = tr.path(path)
    else:
        raise CapExceeded("connecting path did not collapse")
    out, _ = _collapse_cleanup(work, collapse_invariant=False)
    _emit("fold_connecting_path", (alpha.items,), f, out)
    return out


def _first_foldable_junction(f: TopRep, path: Path) -> Optional[Turn]:
    for turn in path.turns():
        if turn.degenerate:
            continue
        try:
            image = f.turn_map(turn)
        except BadRepresentative:
            continue
        if image.degenerate:
            return turn
    return None


def slide(f: TopRep, d: int, alpha: Path,
          lower: Optional[Iterable[int]] = None) -> TopRep:
    """Move the head of the directed edge ``d`` along a path avoiding its
    edge, so ``slide(f, -e, alpha)`` moves the initial end of ``e``.

    With ``lower`` given, the path must also stay inside those edges.
    """
    graph = f.graph
    if alpha.graph is not graph or alpha.start != graph.dst(d):
        raise PathNotInLowerStrata(
            "the sliding path must leave the slid edge's endpoint")
    edge = abs(d)
    crossed = set(alpha.crossings())
    if edge in crossed:
        raise PathNotInLowerStrata("the sliding path crosses the slid edge")
    if lower is not None:
        allowed = {int(e) for e in lower}
        if not crossed <= allowed:
            raise PathNotInLowerStrata(
                f"the sliding path crosses edges {sorted(crossed - allowed)} "
                f"outside the allowed set")

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
    out = _rebuild(f, tr, graph.cells(), images)
    _emit("slide", (d, alpha.items), f, out)
    return out


def tree_replace(f: TopRep, stratum: Iterable[int]) -> TopRep:
    """Rebuild the components of a zero stratum as stars on their
    attaching cells."""
    graph = f.graph
    zs = frozenset(int(e) for e in stratum)
    for e in sorted(zs):
        if any(c in zs for c in f.edge_images[e].crossings()):
            raise NotZeroStratum(
                f"edge {graph.edge_label(e)} maps across its own stratum")
    sub = graph.subgraph(zs)
    if sub.cone_cells():
        raise NotZeroStratum("zero strata never carry cone points")

    # each component becomes a star: its least attaching cell is the
    # center, joined by a new edge S to each other attaching cell
    into: Dict[int, int] = {}
    reach: Dict[int, Tuple[Item, ...]] = {}
    dead: Dict[int, Tuple[Item, ...]] = {}
    extra: List[Tuple[str, int, Tuple[Item, ...]]] = []
    taken = {graph.edge_names[e - 1] for e in graph.edges() if e not in zs}
    first = graph.n_edges - len(zs) + 1
    for comp in sub.components():
        bd = [c for c in sorted(comp.cells)
              if any(abs(d) not in zs for d in graph.edges_at(c))]
        if len(bd) < 2:
            raise NotZeroStratum(
                "a component does not join two attaching cells")
        center = bd[0]
        walk = _walks(graph, center, comp.edges)
        # the star's walk from the center to each attaching cell, in the
        # ids past the last old edge that name the extra edges
        spoke = {center: ()}
        for b in bd[1:]:
            spoke[b] = (graph.n_edges + 1 + len(extra),)
            name = f"S{first + len(extra)}"
            while name in taken:
                name += "'"
            taken.add(name)
            extra.append((name, center, walk[b]))
        for c in comp.cells:
            if c not in spoke:
                into[c] = center
                reach[c] = walk[c]
        for e in comp.edges:
            s, t = graph.src(e), graph.dst(e)
            dead[e] = (tuple(-i for i in spoke.get(s, ()))
                       + spoke.get(t, ()))
    out, _ = _quotient(f, _absorbing(graph, into), reach, dead, extra)
    out, _ = _collapse_cleanup(out, collapse_invariant=False)
    _emit("tree_replace", (tuple(sorted(zs)),), f, out)
    return out
