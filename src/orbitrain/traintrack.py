"""Train track production by growth-rate descent, and reducible assembly.

``train_track_algorithm`` normalizes a representative, then repeatedly
folds an offending illegal turn until the map is a train track, has
growth rate one, or falls apart into strata.  Folding never raises the
growth rate; the loop certifies that with exact interval arithmetic on
every pass.  On the rank-three hedgehog the first standard map is
accepted unchanged while its companion folds once into an upper
triangular shape and comes back as ``Reducible``.

``build_reduction`` goes the other way: given an automorphism carrying
each listed class of factors onto the next, it assembles a marked
representative out of one thistle per class joined to a hub, on which
the class subgraphs are visibly invariant.
"""

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, Union

from .errors import (
    BadRepresentative,
    IterationCapExceeded,
    LemmaViolated,
    NotPermuted,
)
from .groups import Automorphism, FreeProduct, KuroshData
from .moves import (
    _emit,
    collapse_forest,
    fold,
    maximal_invariant_forest,
    maximal_pretrivial_forest,
    slide,
    valence_one_homotopy,
    valence_two_homotopy,
)
from .orbigraph import VERTEX, Orbigraph
from .paths import Path, loop_of_word
from .pf import is_irreducible, is_transitive_permutation, pf_compare, pf_data
from .toprep import ConeMap, Marking, TopRep, Turn, maximal_filtration

__all__ = [
    "FiniteOrder",
    "Reducible",
    "TrainTrack",
    "build_reduction",
    "edge_bound",
    "is_irreducible_rep",
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
# bounds and simple predicates


def is_irreducible_rep(f: TopRep) -> bool:
    """Whether the whole transition matrix is irreducible."""
    entries = f.transition_matrix().entries
    if not entries:
        return False
    return is_irreducible(entries)


def edge_bound(n: int) -> int:
    """The largest number of edges a normalized representative on n
    factors can have: one tree with a cone per factor and no valence-one
    or valence-two vertices."""
    if n < 2:
        raise ValueError("the edge bound needs at least two factors")
    return 2 * n - 3


# ---------------------------------------------------------------------------
# normalization


def _length_order(f: TopRep, e1: int, e2: int) -> Tuple[int, int]:
    """The two edges ordered by eigenvector length, shortest first.

    Sixty exact power-iteration rounds of the transposed transition
    matrix separate the growth-metric lengths of any two edges long
    before the integers get large; ties break toward the smaller id.
    """
    M = f.transition_matrix()
    entries, edges = M.entries, M.edges
    n = len(edges)
    vec = [1] * n
    for _ in range(60):
        nxt = [sum(entries[i][j] * vec[i] for i in range(n)) for j in range(n)]
        if not any(nxt):
            break
        vec = nxt
    a = (vec[M.index[e1]], e1)
    b = (vec[M.index[e2]], e2)
    lo, hi = min(a, b), max(a, b)
    return lo[1], hi[1]


def _normalize(f: TopRep) -> TopRep:
    """Collapse forests and remove valence-one and valence-two vertices.

    Valence-two removals collapse the edge with the smaller eigenvector
    length, which keeps the growth rate from climbing.
    """
    while True:
        forest = maximal_pretrivial_forest(f)
        if not forest.edges:
            forest = maximal_invariant_forest(f)
        if forest.edges:
            f = collapse_forest(f, forest)
            continue
        graph = f.graph
        moved = False
        for c in graph.cells():
            if graph.is_cone(c):
                continue
            val = graph.valence(c)
            if val == 1:
                f = valence_one_homotopy(f, c)
                moved = True
                break
            if val == 2:
                d1, d2 = graph.edges_at(c)
                short, _ = _length_order(f, abs(d1), abs(d2))
                f = valence_two_homotopy(f, c, short, strict=False)
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
    """The representative as data, graph included and marking left out."""
    g = f.graph
    images = tuple((e, f.edge_images[e].items) for e in sorted(f.edge_images))
    cones = tuple((c, cm.target, tuple(cm.table))
                  for c, cm in sorted(f.cone_images.items()))
    return (g.kinds, g.ends, g.edge_names, g.cell_names, images, cones,
            tuple(sorted(f.vertex_images.items())))


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
    """The turn to fold: the last nondegenerate turn on the orbit of the
    first illegal turn crossed by an edge image, or ``None`` when every
    edge image is legal and ``f`` is a train track."""
    illegal = f.legality()
    cap = len(f.all_turns()) + 4
    for _, t in f.crossed_turns():
        if t not in illegal:
            continue
        cur = t
        for _ in range(cap):
            nxt = f.turn_map(cur)
            if nxt.degenerate:
                return cur
            cur = nxt
        raise BadRepresentative("an illegal turn never degenerated")
    return None


def train_track_algorithm(f: TopRep, cap: int = 10_000) -> Outcome:
    """Fold a representative down to a train track, or discover on the
    way that it is reducible or simplicial.

    Each pass folds where the first illegal crossed turn's orbit dies,
    then renormalizes.  The growth rate never increases along the way;
    a certified increase means the input was malformed.  A pass that
    revisits an earlier representative would cycle forever, so it raises
    ``IterationCapExceeded``.
    """
    f = _normalize(f)
    prev = None
    seen: Dict[tuple, int] = {}
    for step in range(cap):
        first = seen.setdefault(_rep_key(f), step)
        if first != step:
            raise IterationCapExceeded(f"pass {step} repeats pass {first}")
        if not f.graph.n_edges:
            return FiniteOrder(f, _finite_order_period(f))
        filt = maximal_filtration(f)
        if len(filt) > 1:
            return Reducible(f, frozenset(filt.strata[0].edges))
        M = f.transition_matrix()
        if is_transitive_permutation(M.entries):
            return FiniteOrder(f, _finite_order_period(f))
        data = pf_data(M.entries)
        if prev is not None and pf_compare(data, prev) > 0:
            raise LemmaViolated(
                "the growth rate increased during train track descent")
        prev = data
        _emit("descent", (step, str(data.lower), str(data.upper)), f, f)
        turn = _descent_turn(f)
        if turn is None:
            return TrainTrack(f)
        f = _normalize(fold(f, turn))
    raise IterationCapExceeded(
        f"no train track after {cap} folding passes")


# ---------------------------------------------------------------------------
# building a reduced representative from permuted factor classes


def _class_label(W: FreeProduct, cls: Sequence[int]) -> str:
    return "{" + ", ".join(W.names[j] for j in cls) + "}"


def _check_classes(phi: Automorphism,
                   components) -> Tuple[List[Tuple[int, ...]], Tuple[int, ...]]:
    W = phi.W
    data = phi.kurosh()
    comps: List[Tuple[int, ...]] = []
    seen: Set[int] = set()
    for part in components:
        cls = tuple(sorted({int(j) for j in part}))
        if not cls:
            raise NotPermuted("factor classes must be nonempty")
        for j in cls:
            if not 0 <= j < W.n:
                raise NotPermuted(f"factor index {j} out of range")
            if j in seen:
                raise NotPermuted("factor classes overlap")
            seen.add(j)
        comps.append(cls)
    if not comps:
        raise NotPermuted("at least one factor class is required")
    k = len(comps)
    complement = tuple(j for j in range(W.n) if j not in seen)
    if not complement and k == 1:
        raise NotPermuted("a single class covering every factor is not proper")
    for i, cls in enumerate(comps):
        nxt = comps[(i + 1) % k]
        if tuple(sorted(data.pi[j] for j in cls)) != nxt:
            raise NotPermuted(
                f"class {_class_label(W, cls)} does not advance "
                f"to {_class_label(W, nxt)}")
        u0 = data.conjugators[cls[0]]
        for j in cls:
            drift = W.mul(u0, W.inv(data.conjugators[j]))
            if not W.in_subfactors(drift, nxt):
                raise NotPermuted(
                    f"no common conjugator carries {_class_label(W, cls)} "
                    f"onto {_class_label(W, nxt)}")
    return comps, complement


def _edge_names(W: FreeProduct, k: int) -> List[str]:
    names = []
    used = set()
    for j in range(W.n):
        name = W.names[j].upper()
        while name in used:
            name += "'"
        used.add(name)
        names.append(name)
    for i in range(k):
        name = f"E{i + 1}"
        while name in used:
            name += "'"
        used.add(name)
        names.append(name)
    return names


def _assemble(phi: Automorphism, comps: List[Tuple[int, ...]],
              complement: Tuple[int, ...], data: KuroshData) -> TopRep:
    W = phi.W
    k, n = len(comps), W.n
    hub = k
    kinds = [VERTEX] * (k + 1) + list(range(n))
    cone_cell = {j: k + 1 + j for j in range(n)}
    station = {j: i for i, cls in enumerate(comps) for j in cls}
    station.update({j: hub for j in complement})
    ends = [(cone_cell[j], station[j]) for j in range(n)]
    ends.extend((i, hub) for i in range(k))
    graph = Orbigraph(W, kinds, ends, _edge_names(W, k))

    def lam(word) -> Path:
        return loop_of_word(graph, hub, word)

    def down(cone: int) -> Path:
        return Path(graph, hub, graph.geodesic(hub, cone))

    connector = {i: n + 1 + i for i in range(k)}
    edge_images: Dict[int, Path] = {}
    for i in range(k):
        succ = (i + 1) % k
        hop = Path(graph, succ, (connector[succ],))
        edge_images[connector[i]] = hop * lam(data.conjugators[comps[i][0]])
    for j in range(n):
        image = down(cone_cell[data.pi[j]]).invert() * lam(data.conjugators[j])
        if station[j] != hub:
            image = image * edge_images[connector[station[j]]].invert()
        edge_images[j + 1] = image

    cone_images = {cone_cell[j]: ConeMap(cone_cell[j],
                                         cone_cell[data.pi[j]],
                                         data.isos[j])
                   for j in range(n)}
    vertex_images = {i: (i + 1) % k for i in range(k)}
    vertex_images[hub] = hub
    marking = Marking(graph, hub)
    return TopRep(graph, edge_images, cone_images, vertex_images, marking)


def _degenerate_slide(f: TopRep, forest) -> TopRep:
    """Break a forest collapse that would destroy reducibility.

    Sliding a neighboring edge's endpoint along a forest edge rewrites
    that edge's image to pass through the forest's image first, so the
    connecting edges stop being a permuted family on their own.
    """
    graph = f.graph
    for a in sorted(forest.edges):
        for v in (graph.src(a), graph.dst(a)):
            if graph.is_cone(v):
                continue
            d = a if graph.src(a) == v else -a
            alpha = Path(graph, v, (d,))
            for e in sorted(graph.edges()):
                if e in forest.edges:
                    continue
                for d in (-e, e):
                    if graph.dst(d) == v:
                        return slide(f, d, alpha)
    return f


def _reduce_forests(f: TopRep) -> TopRep:
    """Collapse invariant forests while that keeps the shape reducible."""
    tricked = False
    while True:
        forest = maximal_pretrivial_forest(f)
        if not forest.edges:
            forest = maximal_invariant_forest(f)
        if not forest.edges:
            return f
        candidate = collapse_forest(f, forest)
        if len(maximal_filtration(candidate)) > 1:
            f = candidate
            continue
        if not tricked:
            f = _degenerate_slide(f, forest)
            tricked = True
        return f


def build_reduction(phi: Automorphism, components) -> TopRep:
    """A marked representative of ``phi`` reduced along factor classes.

    Each entry of ``components`` lists factor indices; ``phi`` must carry
    every class onto the next one (cyclically) by a single conjugation,
    or NotPermuted is raised.  The result glues one thistle per class to
    a hub vertex carrying the leftover factors, realizes ``phi`` through
    an identity marking at the hub, and collapses whatever invariant
    forests can go without making the outcome irreducible.
    """
    comps, complement = _check_classes(phi, components)
    f = _assemble(phi, comps, complement, phi.kurosh())
    return _reduce_forests(f)
