"""Self-maps of orbigraphs and their spectral bookkeeping.

A topological representative carries one tight image path per edge, one
group isomorphism per cone point, and a zero-cell image per plain vertex.
This module builds the two standard representatives (on the thistle and on
the hedgehog), applies maps to paths and circuits, composes and iterates
them, and extracts everything the train track algorithms consume: the
transition matrix, the derivative and turn maps, legality, invariant
filtrations with stratum labels, certified eigenvalue sequences, and the
outer automorphism read back through a marking.
"""

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cmp_to_key
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

from .errors import BadRepresentative, NoMarking
from .groups import Automorphism, is_iso, iso_chain, iso_identity
from .orbigraph import Orbigraph, Subgraph, find_isomorphisms, hedgehog, thistle
from .paths import (Circuit, Path, Turn, invert_items, loop_of_word,
                    parse_path, tighten, tighten_circuit)
from .pf import (DEFAULT_TOL, PFData, is_transitive_permutation,
                 is_zero_matrix, pf_compare, pf_data, scc_components,
                 submatrix)


@dataclass(frozen=True)
class ConeMap:
    """Where a cone point goes and how its group is carried along."""

    source: int
    target: int
    table: Tuple[int, ...]


class Marking:
    """A basepoint plus one tight path per factor, from the base to the
    cone point of that factor.

    The loop ``paths[i] . a . paths[i]^-1`` is marked with the letter a of
    factor i.  ``realize`` splices those loops; ``read`` translates a loop
    at the base into the element of W it is marked with by ``nu``, the
    inverse of the automorphism the paths spell.  A move carries the
    marking forward along its transport with :meth:`moved`.  Without
    paths the marking is the identity one, along geodesics.
    """

    __slots__ = ("graph", "base", "paths", "_spelled")

    def __init__(self, graph: Orbigraph, base: int,
                 paths: Optional[Sequence[Path]] = None):
        self.graph = graph
        self.base = int(base)
        if paths is None:
            paths = [tighten(graph, self.base, graph.geodesic(self.base, c))
                     for c in graph.cone_cells()]
        self.paths = tuple(paths)
        if len(self.paths) != graph.W.n or any(
                p.graph is not graph or p.start != self.base or p.end != c
                for p, c in zip(self.paths, graph.cone_cells())):
            raise NoMarking("a marking needs one path per factor, from the "
                            "base to the cone point of that factor")
        self._spelled = None

    def moved(self, tr) -> "Marking":
        """The marking pushed forward along a move's transport."""
        return Marking(tr.target, tr.cell_map[self.base],
                       [tr.path(p) for p in self.paths])

    def spelled(self) -> Automorphism:
        """The automorphism sending each letter to the word of its loop."""
        if self._spelled is None:
            W = self.graph.W
            maps = []
            for i, p in enumerate(self.paths):
                u = p.word()
                maps.append({a: W.mul(u, ((i, a),), W.inv(u))
                             for a in W.factors[i].nontrivial()})
            self._spelled = Automorphism.from_element_images(W, maps)
        return self._spelled

    @property
    def nu(self) -> Automorphism:
        """The automorphism reading loop words as marked elements; the
        inverse is cached on the spelled automorphism."""
        return self.spelled().inverse()

    def read(self, loop: Path):
        if not (loop.start == self.base and loop.is_loop):
            raise NoMarking(f"can only read loops at cell {self.base}")
        return self.nu(loop.word())

    def realize(self, word) -> Path:
        items = []
        for i, a in word:
            p = self.paths[i]
            items += p.items + ((p.end, a),) + invert_items(self.graph, p.items)
        return tighten(self.graph, self.base, items)

    def __eq__(self, other):
        return (isinstance(other, Marking) and self.graph is other.graph
                and self.base == other.base
                and (self.paths == other.paths
                     or self.spelled() == other.spelled()))

    def __hash__(self):
        return hash((id(self.graph), self.base, self.spelled()))

    def __repr__(self):
        return f"Marking(base={self.base}, nu={self.nu!r})"


class TopRep:
    """A homotopy self-equivalence of an orbigraph, edge by edge.

    ``edge_images`` maps each positive edge id to a tight path,
    ``cone_images`` each cone cell to a :class:`ConeMap`, and
    ``vertex_images`` each plain vertex to a zero cell.  Vertices may land
    on cone points; cone points must permute among themselves.  A trivial
    edge image is allowed (it arises mid-move) but the turn calculus
    refuses to differentiate such an edge.
    """

    __slots__ = ("graph", "edge_images", "cone_images", "vertex_images",
                 "marking", "_images", "_illegal", "_forest")

    def __init__(self, graph: Orbigraph, edge_images, cone_images,
                 vertex_images, marking: Optional[Marking] = None):
        self.graph = graph
        self.edge_images = dict(edge_images)
        self.cone_images = dict(cone_images)
        self.vertex_images = {c: int(v) for c, v in dict(vertex_images).items()}
        self.marking = marking
        self._images: Dict[int, Path] = {}
        self._illegal = None
        self._forest = None  # moves.maximal_invariant_forest
        self._validate()

    def _validate(self):
        graph = self.graph
        cones = set(graph.cone_cells())
        verts = {c for c in graph.cells() if not graph.is_cone(c)}
        if set(self.cone_images) != cones:
            raise BadRepresentative("every cone point needs exactly one image")
        if set(self.vertex_images) != verts:
            raise BadRepresentative("every vertex needs exactly one image")
        targets = []
        for c, cm in self.cone_images.items():
            if cm.source != c or cm.target not in cones:
                raise BadRepresentative("cone points must map to cone points")
            if not is_iso(graph.group_at(c), graph.group_at(cm.target),
                          cm.table):
                raise BadRepresentative(
                    f"cone map at cell {c} is not a group isomorphism")
            targets.append(cm.target)
        if sorted(targets) != sorted(cones):
            raise BadRepresentative("cone points must permute")
        for v, c in self.vertex_images.items():
            if not 0 <= c < graph.n_cells:
                raise BadRepresentative(f"vertex {v} maps outside the graph")
        if set(self.edge_images) != set(graph.edges()):
            raise BadRepresentative("every edge needs exactly one image path")
        for e, p in self.edge_images.items():
            if not isinstance(p, Path) or p.graph is not graph:
                raise BadRepresentative("edge images must be paths here")
            if p.start != self.cell_image(graph.src(e)) \
                    or p.end != self.cell_image(graph.dst(e)):
                raise BadRepresentative(
                    f"image of edge {graph.edge_label(e)} joins the wrong cells")
        if self.marking is not None and self.marking.graph is not graph:
            raise NoMarking("marking lives on a different graph")

    # -- cells and edges ------------------------------------------------------

    def cell_image(self, c: int) -> int:
        if self.graph.is_cone(c):
            return self.cone_images[c].target
        return self.vertex_images[c]

    def image(self, d: int) -> Path:
        """The image path of a directed edge."""
        p = self._images.get(d)
        if p is None:
            p = self.edge_images[abs(d)] if d > 0 \
                else self.edge_images[-d].invert()
            self._images[d] = p
        return p

    # -- application ----------------------------------------------------------

    def _splice(self, items):
        out = []
        for item in items:
            if type(item) is int:
                out.extend(self.image(item).items)
            else:
                cm = self.cone_images[item[0]]
                out.append((cm.target, cm.table[item[1]]))
        return out

    def apply(self, p: Path) -> Path:
        if p.graph is not self.graph:
            raise BadRepresentative("path lives on a different graph")
        return tighten(self.graph, self.cell_image(p.start), self._splice(p.items))

    def apply_circuit(self, c: Circuit) -> Circuit:
        if c.graph is not self.graph:
            raise BadRepresentative("circuit lives on a different graph")
        return tighten_circuit(self.graph, self._splice(c.items))

    def compose(self, other: "TopRep") -> "TopRep":
        """self after other, both on the same graph."""
        if other.graph is not self.graph:
            raise BadRepresentative("composition needs a common graph")
        edge_images = {e: self.apply(p) for e, p in other.edge_images.items()}
        cone_images = {}
        for c, cm in other.cone_images.items():
            nxt = self.cone_images[cm.target]
            cone_images[c] = ConeMap(c, nxt.target,
                                     iso_chain(cm.table, nxt.table))
        vertex_images = {v: self.cell_image(c)
                         for v, c in other.vertex_images.items()}
        marking = None
        if self.marking is not None and self.marking == other.marking:
            marking = self.marking
        return TopRep(self.graph, edge_images, cone_images, vertex_images,
                      marking)

    def iterate(self, k: int) -> "TopRep":
        if k < 1:
            raise ValueError("iterate wants a positive exponent")
        out = self
        for _ in range(k - 1):
            out = self.compose(out)
        return out

    # -- the transition matrix --------------------------------------------------

    def transition_matrix(self) -> "TransitionMatrix":
        edges = tuple(self.graph.edges())
        cols = {e: self.edge_images[e].crossings() for e in edges}
        entries = tuple(tuple(cols[ej].get(ei, 0) for ej in edges)
                        for ei in edges)
        return TransitionMatrix(entries, edges)

    # -- derivative and turns ----------------------------------------------------

    def _lead(self, d: int):
        """The junction letter and first edge of the image of ``d``."""
        p = self.image(d)
        letter = 0 if self.graph.is_cone(p.start) else None
        for item in p.items:
            if type(item) is int:
                return letter, item
            letter = item[1]
        return letter, None

    def derivative(self, d: int) -> int:
        letter, first = self._lead(d)
        if first is None:
            raise BadRepresentative(
                f"edge {self.graph.edge_label(d)} has an edge-free image")
        return first

    def turn_map(self, t: Turn) -> Turn:
        """The induced map on turns, twisting junction letters along."""
        l1, e1 = self._lead(t.first)
        l2, e2 = self._lead(t.second)
        if e1 is None or e2 is None:
            raise BadRepresentative("turn map needs edge-bearing images")
        base = self.cell_image(t.base)
        letter = None
        if self.graph.is_cone(base):
            g = t.letter or 0
            if self.graph.is_cone(t.base):
                g = self.cone_images[t.base].table[g]
            group = self.graph.group_at(base)
            letter = group.mul(group.mul(group.inv(l1), g), l2)
        return Turn(e1, letter, e2, base)

    def canonical_turn(self, t: Turn) -> Turn:
        """The smaller of a turn and its reversal, for orbit bookkeeping."""
        if t.letter is None:
            flipped = Turn(t.second, None, t.first, t.base)
        else:
            inv = self.graph.group_at(t.base).inv(t.letter)
            flipped = Turn(t.second, inv, t.first, t.base)
        return min(t, flipped, key=_turn_key)

    def all_turns(self):
        """Every nondegenerate turn of the graph, in a fixed order."""
        out = []
        for c in self.graph.cells():
            dirs = self.graph.edges_at(c)
            letters = (self.graph.group_at(c).elements()
                       if self.graph.is_cone(c) else (None,))
            for d1 in dirs:
                for d2 in dirs:
                    for g in letters:
                        t = Turn(d1, g, d2, c)
                        if not t.degenerate:
                            out.append(t)
        return tuple(out)

    def legality(self) -> FrozenSet[Turn]:
        """The set of illegal turns: those mapped by some iterate of the
        turn map onto a degenerate turn.  Both orientations are included."""
        if self._illegal is not None:
            return self._illegal
        status: Dict[Turn, bool] = {}
        turns = self.all_turns()
        for t in turns:
            self._resolve(self.canonical_turn(t), status)
        self._illegal = frozenset(
            t for t in turns if not status[self.canonical_turn(t)])
        return self._illegal

    def _resolve(self, t: Turn, status):
        chain = []
        seen = set()
        while True:
            if t.degenerate:
                verdict = False
                break
            if t in status:
                verdict = status[t]
                break
            if t in seen:
                verdict = True
                break
            seen.add(t)
            chain.append(t)
            t = self.canonical_turn(self.turn_map(t))
        for s in chain:
            status[s] = verdict

    def crossed_turns(self):
        """Turns crossed by edge images, with the crossing edges."""
        out = []
        for e in sorted(self.edge_images):
            for t in self.edge_images[e].turns():
                out.append((e, t))
        return tuple(out)

    def is_train_track(self) -> bool:
        """Whether every edge image is a legal path."""
        illegal = self.legality()
        return not any(t in illegal for _, t in self.crossed_turns())

    # -- the marked outer automorphism ---------------------------------------------

    def induced_automorphism(self) -> Automorphism:
        """The automorphism induced on W, read through the marking.

        The basepoint is corrected along the geodesic to its image, so the
        result is well defined exactly up to inner automorphisms.
        """
        if self.marking is None:
            raise NoMarking("this representative carries no marking")
        graph, W = self.graph, self.graph.W
        base = self.marking.base
        delta = tighten(graph, base, self.graph.geodesic(base,
                                                         self.cell_image(base)))
        maps = []
        for i in range(W.n):
            fam = {}
            for g in W.factors[i].nontrivial():
                loop = self.marking.realize(((i, g),))
                corrected = delta * self.apply(loop) * delta.invert()
                fam[g] = self.marking.read(corrected)
            maps.append(fam)
        return Automorphism.from_element_images(W, maps)

    def induced_outer(self) -> str:
        """Deterministic identifier of the induced outer class."""
        return self.induced_automorphism().fingerprint()

    def __repr__(self):
        parts = [
            f"{self.graph.edge_label(e)} -> {self.edge_images[e]!r}"
            for e in sorted(self.edge_images)
        ]
        return "TopRep(" + ", ".join(parts) + ")"


def _turn_key(t: Turn):
    return (t.first, -1 if t.letter is None else t.letter, t.second)


def structurally_equal(f: TopRep, g: TopRep) -> bool:
    """Whether some graph isomorphism carries f to g on the nose.

    Compares edge images item by item, cone maps, and vertex images;
    markings are not compared.
    """
    for cellmap, edgemap in find_isomorphisms(f.graph, g.graph):
        if _transported_matches(f, g, cellmap, edgemap):
            return True
    return False


def _transported_matches(f, g, cellmap, edgemap):
    for c, cm in f.cone_images.items():
        other = g.cone_images[cellmap[c]]
        if other.target != cellmap[cm.target] or other.table != cm.table:
            return False
    for v, c in f.vertex_images.items():
        if g.vertex_images[cellmap[v]] != cellmap[c]:
            return False
    for e, p in f.edge_images.items():
        q = g.edge_images[edgemap[e]]
        if q.start != cellmap[p.start]:
            return False
        moved = tuple(
            (1 if item > 0 else -1) * edgemap[abs(item)]
            if type(item) is int else (cellmap[item[0]], item[1])
            for item in p.items)
        if moved != q.items:
            return False
    return True


# -- standard representatives -------------------------------------------------


def identity_rep(graph: Orbigraph, base: int = 0) -> TopRep:
    edge_images = {e: tighten(graph, graph.src(e), (e,))
                   for e in graph.edges()}
    cone_images = {c: ConeMap(c, c, iso_identity(graph.group_at(c)))
                   for c in graph.cone_cells()}
    vertex_images = {c: c for c in graph.cells() if not graph.is_cone(c)}
    marking = Marking(graph, base)
    return TopRep(graph, edge_images, cone_images, vertex_images, marking)


def thistle_rep(phi: Automorphism) -> TopRep:
    """The representative of ``phi`` on the thistle of its group.

    Each cone point travels to the cone point of its target factor, and
    the edge below it picks up the conjugator of that factor as a loop at
    the central vertex.  The identity marking at the center then induces
    exactly ``phi``.
    """
    W = phi.W
    data = phi.kurosh()
    graph = thistle(W)
    cone_images = {}
    edge_images = {}
    for i in range(W.n):
        c = graph.cone_cell(i)
        tgt = graph.cone_cell(data.pi[i])
        cone_images[c] = ConeMap(c, tgt, data.isos[i])
        (d,) = graph.edges_at(c)
        (dt,) = graph.edges_at(tgt)
        u_loop = loop_of_word(graph, 0, data.conjugators[i])
        edge_images[d] = tighten(graph, tgt, (dt,) + u_loop.items)
    marking = Marking(graph, 0)
    return TopRep(graph, edge_images, cone_images, {0: 0}, marking)


def hedgehog_rep(phi: Automorphism, apex: int = 0) -> TopRep:
    """The representative of the outer class of ``phi`` on a hedgehog.

    The apex factor must be preserved by ``phi``.  The automorphism is
    first twisted by an inner one so that the apex conjugator is trivial;
    the result induces that twisted automorphism, which lies in the same
    outer class as ``phi``.
    """
    W = phi.W
    data = phi.kurosh()
    if data.pi[apex] != apex:
        raise BadRepresentative(
            f"factor {W.names[apex]} is moved, so it cannot sit at the apex")
    psi = phi
    u_apex = data.conjugators[apex]
    if u_apex:
        psi = Automorphism.inner(W, W.inv(u_apex)).compose(phi)
    data = psi.kurosh()
    graph = hedgehog(W, apex)
    cone_images = {i: ConeMap(i, data.pi[i], data.isos[i])
                   for i in range(W.n)}
    edge_images = {}
    for i in range(W.n):
        if i == apex:
            continue
        (d,) = graph.edges_at(i)
        (dt,) = graph.edges_at(data.pi[i])
        u_loop = loop_of_word(graph, apex, data.conjugators[i])
        edge_images[d] = tighten(graph, data.pi[i], (dt,) + u_loop.items)
    marking = Marking(graph, apex)
    return TopRep(graph, edge_images, cone_images, {}, marking)


def rep_from_path_texts(graph: Orbigraph, texts, tables=None,
                        base: int = 0) -> TopRep:
    """Build a representative from printed edge-image paths.

    ``texts`` maps edge names to path texts.  Cone targets and vertex
    images are inferred from the image endpoints; cone tables default to
    the identity mapping (override per cone cell via ``tables`` when the
    factors differ).  The marking is the identity marking at ``base``.
    """
    tables = dict(tables or {})
    parsed = {}
    for name, text in texts.items():
        e = graph.edge_by_name(name)
        parsed[e] = parse_path(graph, text)
    if set(parsed) != set(graph.edges()):
        raise BadRepresentative("every edge needs exactly one image text")
    cell_targets = {}
    for e, p in parsed.items():
        for cell, icell in ((graph.src(e), p.start), (graph.dst(e), p.end)):
            if cell_targets.setdefault(cell, icell) != icell:
                raise BadRepresentative(
                    f"conflicting images inferred for cell {cell}")
    cone_images = {}
    for c in graph.cone_cells():
        tgt = cell_targets.get(c, c)
        table = tables.get(c, iso_identity(graph.group_at(c)))
        cone_images[c] = ConeMap(c, tgt, tuple(table))
    vertex_images = {c: cell_targets.get(c, c)
                     for c in graph.cells() if not graph.is_cone(c)}
    marking = Marking(graph, base)
    return TopRep(graph, parsed, cone_images, vertex_images, marking)


# -- transition matrices and filtrations ---------------------------------------


@dataclass(frozen=True)
class TransitionMatrix:
    """Edge-crossing counts: entry (i, j) counts how often the image of
    edge j crosses edge i, in either direction."""

    entries: Tuple[Tuple[int, ...], ...]
    edges: Tuple[int, ...]
    index: Dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "index",
                           {e: i for i, e in enumerate(self.edges)})

    def block(self, edges) -> Tuple[Tuple[int, ...], ...]:
        return submatrix(self.entries, [self.index[e] for e in edges])

    def __getitem__(self, pair):
        i, j = pair
        return self.entries[self.index[i]][self.index[j]]


@dataclass(frozen=True)
class Stratum:
    """One diagonal block of a filtration: its edges and classification.

    For a non-exponential stratum, ``cycle`` walks the edge permutation
    from the lowest edge: each entry is (directed edge, items before the
    next stratum edge in its image, items after).  ``closure`` is +1 when
    the walk returns to the starting orientation, -1 otherwise.
    """

    edges: Tuple[int, ...]
    kind: Optional[str] = None
    periodic: bool = False
    cycle: Optional[Tuple] = None
    closure: int = 0


ZERO = "zero"
NEG = "neg"
EG = "eg"


@dataclass(frozen=True)
class Filtration:
    """An increasing chain of invariant subgraphs, stored as its strata."""

    strata: Tuple[Stratum, ...]

    def __iter__(self):
        return iter(self.strata)

    def __len__(self):
        return len(self.strata)

    def cumulative(self, r: int) -> FrozenSet[int]:
        """All edges in strata up to and including the r-th (0-based)."""
        out = set()
        for st in self.strata[:r + 1]:
            out.update(st.edges)
        return frozenset(out)

    def stratum_of(self, e: int) -> int:
        for r, st in enumerate(self.strata):
            if e in st.edges:
                return r
        raise KeyError(e)

    def subgraph(self, graph: Orbigraph, r: int) -> Subgraph:
        return graph.subgraph(self.cumulative(r))


def maximal_filtration(f: TopRep, seed=None) -> Filtration:
    """Refine an invariant chain of edge sets until every diagonal block
    of the transition matrix is irreducible or zero.

    ``seed`` is an ascending sequence of invariant edge sets, defaulting
    to the whole graph.  Inside each successive difference the strongly
    connected components are emitted sinks first; an isolated zero edge
    joins the previous stratum when that stratum is zero and nothing maps
    from the edge into it.
    """
    M = f.transition_matrix()
    sets = [frozenset(s) for s in seed] if seed is not None else []
    if not sets or sets[-1] != frozenset(M.edges):
        sets.append(frozenset(M.edges))
    lower: FrozenSet[int] = frozenset()
    for s in sets:
        if not lower <= s:
            raise BadRepresentative("seed edge sets must increase")
        for e in sorted(s):
            if any(x not in s for x in f.edge_images[e].crossings()):
                raise BadRepresentative(
                    f"seed edge set {sorted(s)} is not invariant")
        lower = s

    strata = []
    lower = frozenset()
    for s in sets:
        diff = sorted(s - lower)
        lower = s
        if not diff:
            continue
        block = M.block(diff)
        groups = []
        for comp in scc_components(block):
            zero = len(comp) == 1 and block[comp[0]][comp[0]] == 0
            if (zero and groups and groups[-1][1]
                    and all(block[j][comp[0]] == 0 for j in groups[-1][0])):
                groups[-1][0].append(comp[0])
            else:
                groups.append((list(comp), zero))
        for members, _ in groups:
            strata.append(Stratum(tuple(diff[i] for i in sorted(members))))
    return Filtration(tuple(strata))


def classify_strata(f: TopRep, filt: Filtration) -> Filtration:
    """Label each stratum zero, non-exponential, or exponential.

    Non-exponential strata also record their edge cycle: the walk data
    needed to bring them to the convention where each edge maps onto the
    next one followed by lower-strata terms.
    """
    M = f.transition_matrix()
    out = []
    for st in filt.strata:
        block = M.block(st.edges)
        if is_zero_matrix(block):
            out.append(replace(st, kind=ZERO))
        elif is_transitive_permutation(block):
            cycle, closure = _neg_cycle(f, st.edges)
            periodic = all(not pre and not tail for _, pre, tail in cycle)
            out.append(replace(st, kind=NEG, periodic=periodic,
                               cycle=cycle, closure=closure))
        else:
            out.append(replace(st, kind=EG))
    return Filtration(tuple(out))


def _neg_cycle(f: TopRep, edges):
    eset = set(edges)
    d = min(edges)
    entries = []
    for _ in range(len(edges)):
        items = f.image(d).items
        hits = [i for i, item in enumerate(items)
                if type(item) is int and abs(item) in eset]
        if len(hits) != 1:
            raise BadRepresentative(
                "stratum is not a permutation block after all")
        (i,) = hits
        entries.append((d, items[:i], items[i + 1:]))
        d = items[i]
    if abs(d) != min(edges):
        raise BadRepresentative("stratum permutation is not a single cycle")
    return tuple(entries), (1 if d > 0 else -1)


def pf_sequence(f: TopRep, filt: Filtration,
                tol: Fraction = DEFAULT_TOL):
    """Certified eigenvalue intervals of the exponential strata, sorted
    nonincreasing with exact tie handling."""
    M = f.transition_matrix()
    datas = []
    for st in filt.strata:
        block = M.block(st.edges)
        if is_zero_matrix(block) or is_transitive_permutation(block):
            continue
        datas.append(pf_data(block, tol))
    datas.sort(key=cmp_to_key(pf_compare), reverse=True)
    return tuple(datas)


# -- free factor systems ---------------------------------------------------------


@dataclass(frozen=True)
class FreeFactorSystem:
    """Conjugacy classes of sub-free-products, as sets of factor indices.

    ``witnesses`` optionally records one subgraph realizing each component;
    it does not participate in equality.
    """

    components: Tuple[FrozenSet[int], ...]
    witnesses: Tuple[Optional[Subgraph], ...] = field(default=(),
                                                      compare=False)

    @property
    def kurosh_rank(self) -> int:
        return sum(len(c) for c in self.components)

    def within(self, other: "FreeFactorSystem") -> bool:
        """Whether every component is carried by a component of ``other``."""
        return all(any(c <= d for d in other.components)
                   for c in self.components)


def free_factor_system(sub: Subgraph) -> FreeFactorSystem:
    """The free factor system realized by a subgraph: one component per
    core piece, as the set of factor indices of its cone points."""
    comps = []
    for piece in sub.core().components():
        factors = frozenset(sub.parent.factor_at(c)
                            for c in piece.cone_cells())
        if factors:
            comps.append((factors, piece))
    comps.sort(key=lambda t: min(t[0]))
    return FreeFactorSystem(tuple(c for c, _ in comps),
                            tuple(w for _, w in comps))
