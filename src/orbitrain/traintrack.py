"""Train track production by growth-rate descent.

``train_track_algorithm`` normalizes a representative, then repeatedly
folds an offending illegal turn until the map is a train track, has
growth rate one, or falls apart into strata.  Folding never raises the
growth rate; the loop checks that on every pass by comparing the rates
exactly with ``pf_compare``.  On the rank-three hedgehog the first
standard map is accepted unchanged while its companion folds once into
an upper triangular shape and comes back as ``Reducible``.

The moves are pure functions; only ``normalize`` and the descent loop
sequence them, so only they report what they do.  Inside
``record_events()`` each pass and each move they apply is recorded as a
plain tuple; outside it the report costs one ``ContextVar`` lookup per
call and builds nothing.
"""

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Union

from .errors import BadRepresentative, IterationCapExceeded, LemmaViolated
from .moves import (
    collapse_forest,
    fold,
    maximal_invariant_forest,
    valence_one_homotopy,
    valence_two_homotopy,
)
from .orbigraph import VERTEX
from .paths import format_path
from .pf import (DEFAULT_TOL, compare_lengths, is_irreducible, pf_compare,
                 pf_data)
from .toprep import TopRep, Turn, maximal_filtration

__all__ = [
    "FiniteOrder",
    "Reducible",
    "TrainTrack",
    "normalize",
    "record_events",
    "train_track_algorithm",
]


# ---------------------------------------------------------------------------
# results


@dataclass(frozen=True)
class TrainTrack:
    """An accepted representative: every edge image is a legal path."""

    rep: TopRep


@dataclass(frozen=True)
class FiniteOrder:
    """A simplicial representative of growth rate one.

    ``period`` is the least k with the k-th iterate equal to the identity
    map of the graph, or None when the iterates cycle without ever
    reaching it.
    """

    rep: TopRep
    period: Optional[int]


@dataclass(frozen=True)
class Reducible:
    """A representative with an invariant proper subgraph, the witness."""

    rep: TopRep
    witness: FrozenSet[int]


Outcome = Union[TrainTrack, FiniteOrder, Reducible]


# ---------------------------------------------------------------------------
# the pass bracket


# The width of each pass's first bracket.  Most passes compare with the
# previous one on disjoint brackets this wide or on equal polynomials;
# ``pf_compare`` narrows the rest to ``DEFAULT_TOL``.
PASS_TOL = Fraction(1, 64)


# ---------------------------------------------------------------------------
# the event stream


_EVENTS: ContextVar[Optional[List[tuple]]] = ContextVar(
    "orbitrain_descent_events", default=None)


@contextmanager
def record_events():
    """Collect the descent's events inside the block, in order, as plain
    tuples naming the event first:

    - ``("pass", step, cells, edges, lower, upper)`` once a pass has
      certified that its rate did not rise; ``lower`` and ``upper`` are
      the exact bracket as certified then: of width at most ``PASS_TOL``,
      or at most ``pf.DEFAULT_TOL`` when neither disjoint brackets nor
      equal polynomials decided the comparison with the previous pass;
    - ``("fold", turn)`` before the pass folds ``turn``, so a fold that
      fails leaves its turn as the last event;
    - ``("collapse_forest", edges)``, ``("valence_one", v)`` and
      ``("valence_two", v, edge)`` before ``normalize`` applies the move.
    """
    events: List[tuple] = []
    token = _EVENTS.set(events)
    try:
        yield events
    finally:
        _EVENTS.reset(token)


# ---------------------------------------------------------------------------
# normalization


def normalize(f: TopRep) -> TopRep:
    """Collapse invariant forests and remove valence-one and valence-two
    vertices: the only normalisation a representative gets after a move.

    One rule: collapse ``maximal_invariant_forest`` until it is empty,
    then remove one low-valence vertex and start over.  The rule also
    clears every edge whose image crosses no edge: its ends map to one
    cell and the cone points permute, so the edge alone is an invariant
    forest.  A valence-two removal collapses the shorter edge, which
    keeps the growth rate from climbing (Bestvina-Handel's valence-two
    homotopy).  Of the edges e1 < e2 it collapses e2 only when the
    transition matrix is irreducible and ``pf.compare_lengths`` finds e1
    strictly longer: an exact tie, or a reducible matrix, collapses e1.
    """
    events = _EVENTS.get()
    while True:
        forest = maximal_invariant_forest(f)
        if forest:
            if events is not None:
                events.append(("collapse_forest", tuple(sorted(forest))))
            f = collapse_forest(f, forest)
            continue
        graph = f.graph
        moved = False
        for c in graph.cells():
            if graph.kinds[c] != VERTEX:
                continue
            val = graph.valence(c)
            if val == 1:
                if events is not None:
                    events.append(("valence_one", c))
                f = valence_one_homotopy(f, c)
                moved = True
                break
            if val == 2:
                e1, e2 = sorted(abs(d) for d in graph.edges_at(c))
                M = f.transition_matrix()
                if (is_irreducible(M)
                        and compare_lengths(M.entries, e1 - 1, e2 - 1) > 0):
                    e1 = e2
                if events is not None:
                    events.append(("valence_two", c, e1))
                f = valence_two_homotopy(f, c, e1)
                moved = True
                break
        if not moved:
            return f


# ---------------------------------------------------------------------------
# the descent loop


def _is_identity_rep(f: TopRep) -> bool:
    graph = f.graph
    for e in graph.edges():
        if f.edge_images[e].items != (e,):
            return False
    for c, cm in f.cone_images.items():
        order = graph.group_at(c).order
        if cm.target != c or tuple(cm.table) != tuple(range(order)):
            return False
    return all(img == v for v, img in f.vertex_images.items())


def _rep_key(f: TopRep):
    """The representative as data up to renaming its cells and edges; the
    marking is left out.

    Seen from the cone point of factor 0, a cell is named by the mask of
    the factors whose cone points lie at or beyond it, an edge by the mask
    of its far end (negated when it points back at the root), and a letter
    ``(cell, x)`` by ``(factor, x)``.  In a normalised tree every leaf is a
    cone point and every plain vertex has valence at least three, so the
    masks are distinct and nonzero, and two representatives have equal
    keys exactly when a graph isomorphism carries one onto the other
    (Buneman: a tree with labelled cells is fixed by its splits).  A tree
    whose masks collide raises ``BadRepresentative``.
    """
    g = f.graph
    walks = g.walks(g.cone_cell(0))
    mask = dict.fromkeys(g.cells(), 0)
    for i, c in enumerate(g.cone_cells()):
        mask[c] |= 1 << i
        for d in walks[c]:
            mask[g.src_of[d]] |= 1 << i
    if 0 in mask.values() or len(set(mask.values())) < g.n_cells:
        raise BadRepresentative(
            "cells share a set of factors beyond them: the tree is not "
            "normalised")
    name = {}
    for e, (a, b) in enumerate(g.ends, start=1):
        name[e] = mask[b] if len(walks[b]) > len(walks[a]) else -mask[a]
        name[-e] = -name[e]

    def word(p):
        return tuple(name[item] if type(item) is int
                     else (g.kinds[item[0]], item[1]) for item in p.items)

    return (tuple(sorted((mask[c], g.kinds[c]) for c in g.cells())),
            tuple(sorted((name[e], word(p))
                         for e, p in f.edge_images.items())),
            tuple(sorted((g.kinds[c], g.kinds[cm.target], tuple(cm.table))
                         for c, cm in f.cone_images.items())),
            tuple(sorted((mask[v], mask[c])
                         for v, c in f.vertex_images.items())))


def _finite_order_period(f: TopRep) -> Optional[int]:
    """The least k with the k-th iterate the identity, by walking the
    iterates; None when the walk cycles first.

    The descent asks only when the transition matrix is empty or a
    permutation.  Then every edge image is one edge with at most a letter
    at either end, and so is every image of every iterate.  The iterates
    therefore lie in the finite set of such maps (signed edge
    permutations, end letters, cone tables and vertex images), and the
    walk revisits one of them after at most that many steps.
    """
    g, k = f, 1
    seen = set()
    while not _is_identity_rep(g):
        key = _rep_key(g)
        if key in seen:
            return None
        seen.add(key)
        g, k = f.compose(g), k + 1
    return k


def _descent_turn(f: TopRep) -> Optional[Turn]:
    """The turn to fold: where the orbit of the first illegal turn crossed
    by an edge image, in edge order, dies, or ``None`` when every edge
    image is legal and ``f`` is a train track."""
    for e in sorted(f.edge_images):
        for t in f.edge_images[e].turns():
            dying = f.dying_turn(t)
            if dying is not None:
                return dying
    return None


def train_track_algorithm(f: TopRep, cap: int = 10_000) -> Outcome:
    """Fold a representative down to a train track, or discover on the
    way that it is reducible or simplicial.

    Each pass folds where the first illegal crossed turn's orbit dies,
    then renormalizes.  The growth rate never increases along the way;
    a certified increase means the input was malformed.  A pass that
    revisits an earlier representative, by ``_rep_key``, would cycle
    forever, so it raises ``IterationCapExceeded`` with both pass indices
    and the representative's images as its witness.

    The revisit check alone ends the loop.  Each pass that folds holds a
    normalised tree on n factors, whose leaves are cone points and whose
    plain vertices have valence at least three, so it has m <= 2n - 3
    edges; and it holds an irreducible integer matrix whose rate is at
    most the first pass's rate L.  With v the positive eigenvector,
    every entry M[i][j] is at most L * v[i] / v[j], and irreducibility
    bounds v[i] / v[j] by L^(m-1), so every entry is at most L^m.  An
    image therefore crosses boundedly many edges, with a letter of a
    finite group between two crossings, and the cone tables and vertex
    images range over finite sets too.  Only finitely many keys can
    occur, so some pass repeats one.

    Keys are needed only within a run of passes of one rate.  Rates
    never rise, and a repeated representative has the rate it had, so
    every pass between the two has that rate too.  A pass whose rate
    drops strictly therefore forgets every key, and only a pass whose
    rate equals the previous one computes its key, and the previous
    pass's when the run begins.  A pass whose rate drops can repeat no
    earlier pass, and of a run's passes every one is keyed, so the
    first repeat is found at the same pass.  The keys live only in this
    call.  ``cap`` stops the loop earlier on request.
    """
    events = _EVENTS.get()
    f = normalize(f)
    prev = prev_f = None
    seen: Dict[tuple, int] = {}
    for step in range(cap):
        if not f.graph.n_edges:
            return FiniteOrder(f, _finite_order_period(f))
        filt = maximal_filtration(f)
        if len(filt) > 1:
            return Reducible(f, frozenset(filt[0]))
        data = pf_data(f.transition_matrix(), PASS_TOL)
        if data.is_one:
            return FiniteOrder(f, _finite_order_period(f))
        order = 0 if prev is None else pf_compare(data, prev)
        if order > 0:
            # the witness quotes both rates at the default width
            prev.refined(DEFAULT_TOL)
            data.refined(DEFAULT_TOL)
            raise LemmaViolated(
                (step, (prev.lower, prev.upper), (data.lower, data.upper)),
                f"pass {step}: the growth rate rose from about "
                f"{float(prev.upper):.6f} to about {float(data.lower):.6f}")
        if order < 0:
            seen.clear()
        elif prev is not None:
            if not seen:
                seen[_rep_key(prev_f)] = step - 1
            first = seen.setdefault(_rep_key(f), step)
            if first != step:
                images = {f.graph.edge_label(e): format_path(p)
                          for e, p in sorted(f.edge_images.items())}
                raise IterationCapExceeded(
                    f"pass {step} repeats pass {first}", (first, step, images))
        prev, prev_f = data, f
        if events is not None:
            events.append(("pass", step, f.graph.n_cells, f.graph.n_edges,
                           data.lower, data.upper))
        turn = _descent_turn(f)
        if turn is None:
            return TrainTrack(f)
        if events is not None:
            events.append(("fold", turn))
        f = normalize(fold(f, turn))
    raise IterationCapExceeded(
        f"no train track after {cap} folding passes")
