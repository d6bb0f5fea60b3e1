"""Self-maps of orbigraphs and their spectral bookkeeping.

A topological representative carries one tight image path per edge, one
group isomorphism per cone point, and a zero-cell image per plain vertex.
This module builds the two standard representatives (on the thistle and on
the hedgehog), applies maps to paths and circuits, composes them, and
extracts everything the train track algorithms consume: the transition
matrix, the turn map, the maximal invariant filtration, and the
automorphism read back through a marking.

A turn is illegal when some iterate of the turn map makes it degenerate,
which is one orbit walk, :meth:`TopRep.dying_turn`, asked of each turn in
its own orientation.  A turn and its reversal need no shared bookkeeping:
the turn map commutes with reversal and reversal preserves degeneracy, so
both orientations get the same verdict.  Verdicts are shared along orbits
instead, within one representative: every turn an orbit walk passes
through keeps the verdict of the walk.  The turn map reads each direction's
lead, the junction letter and first edge of its image, in place: a
reversed edge's lead is read backwards along the image of the edge, so no
reversed image is built for it.
"""

from typing import Dict, NamedTuple, Optional, Sequence, Tuple

from .errors import BadRepresentative, NoMarking
from .groups import Automorphism, is_iso, iso_chain, iso_identity
from .orbigraph import VERTEX, Orbigraph, hedgehog, thistle
from .paths import (Circuit, Path, Turn, invert_items, parse_path, tighten,
                    tighten_circuit, word_walk)
from .pf import TransitionMatrix


class ConeMap(NamedTuple):
    """Where a cone point goes and how its group is carried along."""

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
    paths the marking is the identity one, along the tree ``walks`` from
    the base, which a caller that holds them hands over.
    """

    __slots__ = ("graph", "base", "paths", "_spelled")

    def __init__(self, graph: Orbigraph, base: int,
                 paths: Optional[Sequence[Path]] = None, *, walks=None):
        self.graph = graph
        self.base = graph.cell_id(base, NoMarking)
        if paths is None:
            walks = graph.walks(self.base) if walks is None else walks
            paths = [tighten(graph, self.base, walks[c])
                     for c in graph.cone_cells()]
        self.paths = tuple(paths)
        if len(self.paths) != graph.W.n or any(
                not isinstance(p, Path) or p.graph is not graph
                or p.start != self.base or p.end != c
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
        if not (isinstance(loop, Path) and loop.graph is self.graph
                and loop.start == self.base and loop.is_loop):
            raise NoMarking(f"can only read loops at cell {self.base}")
        return self.nu(loop.word())

    def realize(self, word) -> Path:
        items = []
        for i, a in word:
            c = self.graph.cone_cell(i)
            p = self.paths[i]
            items += p.items + ((c, a),) + invert_items(self.graph, p.items)
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
    edge image is allowed (a fold or valence move may leave one, until
    ``traintrack.normalize`` collapses its edge) but the turn calculus
    refuses to differentiate such an edge.

    An instance is not mutated after construction; every move builds a new
    one.  So its derived data is cached on the instance as it is first
    asked for: the image paths of reversed edges, the lead table of
    directions, the turn verdicts and the transition matrix.
    """

    __slots__ = ("graph", "edge_images", "cone_images", "vertex_images",
                 "marking", "_cells", "_images", "_leads", "_verdicts",
                 "_matrix")

    def __init__(self, graph: Orbigraph, edge_images, cone_images,
                 vertex_images, marking: Optional[Marking] = None):
        self.graph = graph
        self.edge_images = dict(edge_images)
        self.cone_images = dict(cone_images)
        self.vertex_images = dict(vertex_images)
        self.marking = marking
        self._images: Dict[int, Path] = {}
        self._leads: Dict[int, Tuple[Optional[int], Optional[int]]] = {}
        self._verdicts: Dict[Turn, Optional[Turn]] = {}
        self._matrix: Optional[TransitionMatrix] = None
        self._validate()

    def _validate(self):
        """The checks of a representative, in one pass over the graph's
        tables, and its cell-image table ``_cells``, which they build."""
        graph = self.graph
        kinds, factors = graph.kinds, graph.W.factors
        src_of, dst_of = graph.src_of, graph.dst_of
        n_cells = len(kinds)
        cones = set(graph.cone_cells())
        if self.cone_images.keys() != cones:
            raise BadRepresentative("every cone point needs exactly one image")
        if self.vertex_images.keys() != set(range(n_cells)) - cones:
            raise BadRepresentative("every vertex needs exactly one image")
        cell_image = dict(self.vertex_images)
        for c, cm in self.cone_images.items():
            target = cm.target
            if type(target) is not int or target not in cones:
                raise BadRepresentative("cone points must map to cone points")
            if not is_iso(factors[kinds[c]], factors[kinds[target]],
                          cm.table):
                raise BadRepresentative(
                    f"cone map at cell {c} is not a group isomorphism")
            cell_image[c] = target
        if len({cell_image[c] for c in cones}) != len(cones):
            raise BadRepresentative("cone points must permute")
        for v, c in self.vertex_images.items():
            if type(c) is not int:
                raise BadRepresentative(f"vertex {v} maps to {c!r}, not a cell")
            if not 0 <= c < n_cells:
                raise BadRepresentative(f"vertex {v} maps outside the graph")
        if self.edge_images.keys() != set(graph.edges()):
            raise BadRepresentative("every edge needs exactly one image path")
        for e, p in self.edge_images.items():
            if not isinstance(p, Path) or p.graph is not graph:
                raise BadRepresentative("edge images must be paths here")
            if p.start != cell_image[src_of[e]] \
                    or p.end != cell_image[dst_of[e]]:
                raise BadRepresentative(
                    f"image of edge {graph.edge_label(e)} joins the wrong cells")
        if self.marking is not None and self.marking.graph is not graph:
            raise NoMarking("marking lives on a different graph")
        self._cells = cell_image

    # -- cells and edges ------------------------------------------------------

    def cell_image(self, c: int) -> int:
        """The image cell of a cell; a non-cell id is refused."""
        return self._cells[self.graph.cell_id(c, BadRepresentative)]

    def image(self, d: int) -> Path:
        """The image path of a directed edge; a non-edge id is refused."""
        p = self._images.get(self.graph.edge_id(d, BadRepresentative))
        if p is None:
            p = self.edge_images[abs(d)] if d > 0 \
                else self.edge_images[-d].invert()
            self._images[d] = p
        return p

    # -- application ----------------------------------------------------------

    def _splice(self, items):
        """The image walk of ``items``: each edge's tight image path as a
        run, which tightening cancels only at its seams, and each letter
        carried across its cone map.  Edge images are read off the cache."""
        out, images = [], self._images
        for item in items:
            if type(item) is int:
                p = images.get(item)
                out.append(self.image(item) if p is None else p)
            else:
                cm = self.cone_images[item[0]]
                out.append((cm.target, cm.table[item[1]]))
        return out

    def apply(self, p: Path) -> Path:
        if not isinstance(p, Path) or p.graph is not self.graph:
            raise BadRepresentative("not a path on this graph")
        return tighten(self.graph, self._cells[p.start], self._splice(p.items))

    def apply_circuit(self, c: Circuit) -> Circuit:
        if not isinstance(c, Circuit) or c.graph is not self.graph:
            raise BadRepresentative("not a circuit on this graph")
        return tighten_circuit(self.graph, self._splice(c.loop))

    def compose(self, other: "TopRep") -> "TopRep":
        """self after other, both on the same graph."""
        if not isinstance(other, TopRep) or other.graph is not self.graph:
            raise BadRepresentative("composition needs a common graph")
        edge_images = {e: self.apply(p) for e, p in other.edge_images.items()}
        cone_images = {}
        for c, cm in other.cone_images.items():
            nxt = self.cone_images[cm.target]
            cone_images[c] = ConeMap(nxt.target, iso_chain(cm.table, nxt.table))
        vertex_images = {v: self._cells[c]
                         for v, c in other.vertex_images.items()}
        marking = None
        if self.marking is not None and self.marking == other.marking:
            marking = self.marking
        return TopRep(self.graph, edge_images, cone_images, vertex_images,
                      marking)

    # -- the transition matrix --------------------------------------------------

    def transition_matrix(self) -> TransitionMatrix:
        if self._matrix is None:
            edges = self.graph.edges()
            cols = {e: self.edge_images[e].crossings() for e in edges}
            self._matrix = TransitionMatrix(tuple([
                tuple([cols[ej].get(ei, 0) for ej in edges]) for ei in edges]))
        return self._matrix

    # -- turns ----------------------------------------------------------------

    def _lead(self, d: int):
        """The junction letter and first edge of the image of ``d``, read
        in place: for a reversed edge, backwards along the image of the
        edge, its last edge negated and the letter after it inverted."""
        lead = self._leads.get(d)
        if lead is None:
            p = self.edge_images[abs(d)]
            cell, items = (p.start, p.items) if d > 0 \
                else (p.end, reversed(p.items))
            kind = self.graph.kinds[cell]
            letter = None if kind == VERTEX else 0
            lead = letter, None
            for item in items:
                if type(item) is int:
                    lead = letter, item if d > 0 else -item
                    break
                letter = item[1] if d > 0 \
                    else self.graph.W.factors[kind].inverses[item[1]]
            self._leads[d] = lead
        return lead

    def turn_map(self, t: Turn) -> Turn:
        """The induced map on turns, twisting junction letters along."""
        l1, e1 = self._lead(t.first)
        l2, e2 = self._lead(t.second)
        if e1 is None or e2 is None:
            raise BadRepresentative("turn map needs edge-bearing images")
        base = self._cells[t.base]
        kinds = self.graph.kinds
        letter = None
        if kinds[base] != VERTEX:
            g = t.letter or 0
            if kinds[t.base] != VERTEX:
                g = self.cone_images[t.base].table[g]
            group = self.graph.W.factors[kinds[base]]
            letter = group.cayley[group.cayley[group.inverses[l1]][g]][l2]
        return Turn(e1, letter, e2, base)

    def dying_turn(self, t: Turn) -> Optional[Turn]:
        """The last turn on the orbit of ``t`` before the turn map makes it
        degenerate, or ``None`` when the orbit cycles first and ``t`` is
        legal.

        Every turn the walk passes through keeps the verdict, and a walk
        that reaches a turn with a verdict takes it.  That is exact: the
        orbit from a turn is the same whoever reaches it, so it dies at
        the same turn, or it cycles and the turn is legal.
        """
        verdicts = self._verdicts
        walked = {}
        while t not in verdicts and t not in walked:
            walked[t] = None
            image = self.turn_map(t)
            if image.degenerate:
                verdict = t
                break
            t = image
        else:
            verdict = verdicts.get(t)
        for s in walked:
            verdicts[s] = verdict
        return verdict

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

    def __repr__(self):
        parts = [
            f"{self.graph.edge_label(e)} -> {self.edge_images[e]!r}"
            for e in sorted(self.edge_images)
        ]
        return "TopRep(" + ", ".join(parts) + ")"


# -- standard representatives -------------------------------------------------


def thistle_rep(phi: Automorphism) -> TopRep:
    """The representative of ``phi`` on the thistle of its group.

    Each cone point travels to the cone point of its target factor, and
    the edge below it picks up the conjugator of that factor as a loop at
    the central vertex.  The identity marking at the center then induces
    exactly ``phi``.
    """
    return _standard_rep(phi, thistle(phi.W), 0)


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
    return _standard_rep(psi, hedgehog(W, apex), apex)


def _standard_rep(phi: Automorphism, graph: Orbigraph, base: int) -> TopRep:
    """The representative of ``phi`` on a thistle or a hedgehog, with the
    identity marking at ``base``, the center or the apex.  Each edge from
    a cone towards ``base`` maps to the edge at the target cone, then the
    conjugator of the factor spelled out and back from ``base``.  The tree
    is walked once, and each edge image is tightened once, from raw items.
    """
    data = phi.kurosh()
    walks = graph.walks(base)
    cone_images, edge_images = {}, {}
    for i, u in enumerate(data.conjugators):
        c, tgt = graph.cone_cell(i), graph.cone_cell(data.pi[i])
        cone_images[c] = ConeMap(tgt, data.isos[i])
        if c != base:
            (d,), (dt,) = graph.edges_at(c), graph.edges_at(tgt)
            edge_images[d] = tighten(graph, tgt,
                                     [dt, *word_walk(graph, walks, u)])
    vertex_images = {v: v for v in graph.cells() if graph.kinds[v] == VERTEX}
    return TopRep(graph, edge_images, cone_images, vertex_images,
                  Marking(graph, base, walks=walks))


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
        cone_images[c] = ConeMap(tgt, tuple(table))
    vertex_images = {c: cell_targets.get(c, c)
                     for c in graph.cells() if not graph.is_cone(c)}
    marking = Marking(graph, base)
    return TopRep(graph, parsed, cone_images, vertex_images, marking)


# -- filtrations --------------------------------------------------------------


def maximal_filtration(f: TopRep) -> Tuple[Tuple[int, ...], ...]:
    """The strata of a maximal filtration by invariant subgraphs, as edge
    tuples, sinks first.

    The strata are the strongly connected components of the transition
    matrix, read from the split it keeps, so the descent's later readers
    of the same matrix do not split it again.  Every diagonal block is
    irreducible or zero; an isolated zero edge joins the previous stratum
    when that stratum is zero and nothing maps from the edge into it.
    """
    M = f.transition_matrix()
    entries = M.entries
    groups = []
    for comp in M.components():
        zero = len(comp) == 1 and entries[comp[0]][comp[0]] == 0
        if (zero and groups and groups[-1][1]
                and all(entries[j][comp[0]] == 0 for j in groups[-1][0])):
            groups[-1][0].append(comp[0])
        else:
            groups.append((list(comp), zero))
    return tuple(tuple(i + 1 for i in sorted(members))
                 for members, _ in groups)
