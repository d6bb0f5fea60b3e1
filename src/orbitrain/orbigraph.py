"""Finite trees of finite groups with trivial edge stabilizers.

An orbigraph is a finite tree whose zero cells are either plain vertices or
cone points, one cone point per free factor of an ambient free product.  The
module also provides subgraphs (edge sets plus isolated zero cells), their
component and core calculus, and the two standard models: the thistle, with a
central vertex, and the hedgehog, with a cone apex and no vertices at all.

Zero cells are numbered 0..k-1 and edges 1..m; a directed edge is +e or -e,
so reversal is negation.  Iteration order is always ascending by id, which
keeps every downstream algorithm deterministic.
"""

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Tuple

from .errors import BadOrbigraph
from .groups import FiniteGroup, FreeProduct

VERTEX = -1


class Orbigraph:
    """A finite tree with cone points labelled bijectively by free factors.

    ``kinds[c]`` is ``VERTEX`` for a plain vertex and a factor index for a
    cone point.  ``ends[e-1]`` is the ``(init, term)`` pair of edge ``e``.
    ``src_of`` and ``dst_of`` map every signed edge ``d`` (``+e`` or
    ``-e``) to its initial and terminal cell; they are dicts, so a
    non-edge raises ``KeyError`` instead of wrapping around.
    Instances are immutable; moves build new graphs instead of mutating.
    """

    __slots__ = ("W", "kinds", "ends", "edge_names", "cell_names",
                 "src_of", "dst_of", "_cone_cells", "_incidence")

    def __init__(self, W: FreeProduct, kinds: Sequence[int],
                 ends: Sequence[Tuple[int, int]],
                 edge_names: Optional[Sequence[str]] = None,
                 cell_names: Optional[Sequence[str]] = None):
        self.W = W
        self.kinds = tuple(kinds)
        self.ends = tuple((int(a), int(b)) for a, b in ends)
        k, m = len(self.kinds), len(self.ends)
        if k == 0:
            raise BadOrbigraph("an orbigraph needs at least one zero cell")
        for factor in W.factors:
            if not isinstance(factor, FiniteGroup):
                raise BadOrbigraph("cone stabilizers must be finite groups")
            if factor.order < 2:
                raise BadOrbigraph("cone stabilizers must be nontrivial")
        seen: Dict[int, int] = {}
        for c, kind in enumerate(self.kinds):
            if kind == VERTEX:
                continue
            if not 0 <= kind < W.n:
                raise BadOrbigraph(f"cell {c} names factor {kind} of {W.n}")
            if kind in seen:
                raise BadOrbigraph(f"factor {kind} labels two cone points")
            seen[kind] = c
        if len(seen) != W.n:
            missing = sorted(set(range(W.n)) - set(seen))
            raise BadOrbigraph(f"factors {missing} have no cone point")
        for e, (a, b) in enumerate(self.ends, start=1):
            if not (0 <= a < k and 0 <= b < k):
                raise BadOrbigraph(f"edge {e} has endpoint outside the graph")
            if a == b:
                raise BadOrbigraph(f"edge {e} is a loop; trees have none")
        if m != k - 1:
            raise BadOrbigraph(f"{m} edges on {k} zero cells is not a tree")
        self._cone_cells = tuple(seen[i] for i in range(W.n))
        incidence = [[] for _ in range(k)]
        self.src_of, self.dst_of = {}, {}
        for e, (a, b) in enumerate(self.ends, start=1):
            incidence[a].append(e)
            incidence[b].append(-e)
            self.src_of[e] = self.dst_of[-e] = a
            self.dst_of[e] = self.src_of[-e] = b
        self._incidence = tuple(tuple(out) for out in incidence)
        if k > 1 and len(self._component_cells(0, frozenset(range(1, m + 1)))) != k:
            raise BadOrbigraph("the one-complex is not connected")
        if edge_names is None:
            edge_names = [f"E{e}" for e in range(1, m + 1)]
        if cell_names is None:
            cell_names = [self._default_cell_name(c) for c in range(k)]
        self.edge_names = tuple(edge_names)
        self.cell_names = tuple(cell_names)
        if len(self.edge_names) != m or len(set(self.edge_names)) != m:
            raise BadOrbigraph("edge names must be distinct, one per edge")
        if len(self.cell_names) != k:
            raise BadOrbigraph("cell names must cover every zero cell")

    def _default_cell_name(self, c):
        kind = self.kinds[c]
        if kind == VERTEX:
            return f"v{c}"
        return f"c({self.W.names[kind]})"

    # -- basic queries ----------------------------------------------------

    @property
    def n_cells(self):
        return len(self.kinds)

    @property
    def n_edges(self):
        return len(self.ends)

    def cells(self):
        return range(self.n_cells)

    def edges(self):
        return range(1, self.n_edges + 1)

    def directed_edges(self):
        return iter(self.src_of)

    def is_cone(self, c) -> bool:
        return self.kinds[c] != VERTEX

    def factor_at(self, c) -> Optional[int]:
        kind = self.kinds[c]
        return None if kind == VERTEX else kind

    def cone_cell(self, factor) -> int:
        return self._cone_cells[factor]

    def cone_cells(self):
        return self._cone_cells

    def group_at(self, c) -> FiniteGroup:
        kind = self.kinds[c]
        if kind == VERTEX:
            raise BadOrbigraph(f"cell {c} is a vertex and carries no group")
        return self.W.factors[kind]

    def src(self, d) -> int:
        if d not in self.src_of:
            raise BadOrbigraph(f"no edge {d} in this graph")
        return self.src_of[d]

    def dst(self, d) -> int:
        if d not in self.dst_of:
            raise BadOrbigraph(f"no edge {d} in this graph")
        return self.dst_of[d]

    def edges_at(self, c) -> Tuple[int, ...]:
        """Directed edges originating at ``c``, ascending by edge id."""
        return self._incidence[c]

    def valence(self, c) -> int:
        return len(self._incidence[c])

    def edge_label(self, d) -> str:
        name = self.edge_names[abs(d) - 1]
        return name if d > 0 else "~" + name

    def edge_by_name(self, token) -> int:
        rev = token.startswith("~")
        name = token[1:] if rev else token
        try:
            e = self.edge_names.index(name) + 1
        except ValueError:
            raise BadOrbigraph(f"no edge named {name!r}") from None
        return -e if rev else e

    def __repr__(self):
        cones = ", ".join(self.cell_names[c] for c in self._cone_cells)
        return f"Orbigraph({self.n_cells} cells, {self.n_edges} edges; {cones})"

    # -- tree walking ------------------------------------------------------

    def _component_cells(self, start, edge_set):
        seen = {start}
        queue = [start]
        while queue:
            c = queue.pop()
            for d in self._incidence[c]:
                if abs(d) not in edge_set:
                    continue
                nxt = self.dst_of[d]
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return seen

    def geodesic(self, a, b) -> Tuple[int, ...]:
        """The unique reduced edge walk from cell ``a`` to cell ``b``."""
        if a == b:
            return ()
        parent: Dict[int, int] = {a: 0}
        queue = [a]
        while queue:
            nxt_queue = []
            for c in queue:
                for d in self._incidence[c]:
                    t = self.dst_of[d]
                    if t not in parent:
                        parent[t] = d
                        if t == b:
                            walk = []
                            while t != a:
                                walk.append(parent[t])
                                t = self.src_of[parent[t]]
                            return tuple(reversed(walk))
                        nxt_queue.append(t)
            queue = nxt_queue
        raise BadOrbigraph(f"cells {a} and {b} are not connected")

    # -- subgraphs ---------------------------------------------------------

    def subgraph(self, edges: Iterable[int] = (), extra_cells: Iterable[int] = ()) -> "Subgraph":
        edge_set = frozenset(abs(e) for e in edges)
        for e in edge_set:
            if not 1 <= e <= self.n_edges:
                raise BadOrbigraph(f"no edge {e} in this graph")
        cells = set(int(c) for c in extra_cells)
        for c in cells:
            if not 0 <= c < self.n_cells:
                raise BadOrbigraph(f"no cell {c} in this graph")
        for e in edge_set:
            a, b = self.ends[e - 1]
            cells.add(a)
            cells.add(b)
        return Subgraph(self, edge_set, frozenset(cells))

    def full_subgraph(self) -> "Subgraph":
        return self.subgraph(self.edges(), self.cells())


@dataclass(frozen=True)
class Subgraph:
    """An edge set of a parent orbigraph together with its zero cells.

    ``cells`` always contains the endpoints of ``edges``; it may also hold
    isolated zero cells, which matters for cores of one-cone components.
    A subgraph is nontrivial when it has at least one edge.
    """

    parent: Orbigraph
    edges: FrozenSet[int]
    cells: FrozenSet[int]

    @property
    def nontrivial(self) -> bool:
        return bool(self.edges)

    def cone_cells(self) -> Tuple[int, ...]:
        return tuple(c for c in sorted(self.cells) if self.parent.is_cone(c))

    def components(self) -> Tuple["Subgraph", ...]:
        remaining = set(self.cells)
        out = []
        while remaining:
            start = min(remaining)
            comp_cells = self.parent._component_cells(start, self.edges)
            comp_edges = frozenset(
                e for e in self.edges
                if self.parent.ends[e - 1][0] in comp_cells)
            out.append(Subgraph(self.parent, comp_edges,
                                frozenset(comp_cells)))
            remaining -= comp_cells
        return tuple(out)

    def is_connected(self) -> bool:
        return len(self.components()) == 1

    def is_contractible(self) -> bool:
        """A connected subgraph is contractible iff it has at most one cone."""
        if not self.cells:
            raise BadOrbigraph("the empty subgraph has no components")
        if not self.is_connected():
            raise BadOrbigraph("contractibility is asked of components only")
        return len(self.cone_cells()) <= 1

    def is_forest(self) -> bool:
        """Nontrivial and every component squashes to at most one cone."""
        if not self.nontrivial:
            return False
        return all(sum(map(self.parent.is_cone, comp.cells)) <= 1
                   for comp in self.components())

    def core(self) -> "Subgraph":
        """Per component, the convex hull of the cone points.

        Components with two or more cones keep the tree they span; a
        single-cone component contributes just its cone point; cone-free
        components vanish.
        """
        core_edges = set()
        core_cells = set()
        for comp in self.components():
            cones = comp.cone_cells()
            if not cones:
                continue
            if len(cones) == 1:
                core_cells.add(cones[0])
                continue
            edges = set(comp.edges)
            cells = set(comp.cells)
            degree = {c: 0 for c in cells}
            for e in edges:
                a, b = self.parent.ends[e - 1]
                degree[a] += 1
                degree[b] += 1
            pruned = True
            while pruned:
                pruned = False
                for c in sorted(cells):
                    if self.parent.is_cone(c) or degree[c] > 1:
                        continue
                    cells.discard(c)
                    pruned = True
                    for e in sorted(edges):
                        a, b = self.parent.ends[e - 1]
                        if c in (a, b):
                            edges.discard(e)
                            degree[a] -= 1
                            degree[b] -= 1
                    degree.pop(c)
            core_edges |= edges
            core_cells |= cells
        return Subgraph(self.parent, frozenset(core_edges),
                        frozenset(core_cells))

    def __contains__(self, item):
        return abs(item) in self.edges

    def __repr__(self):
        names = [self.parent.edge_names[e - 1] for e in sorted(self.edges)]
        lone = [self.parent.cell_names[c] for c in sorted(self.cells)
                if all(c not in self.parent.ends[e - 1] for e in self.edges)]
        inner = "{" + ", ".join(names + lone) + "}"
        return f"Subgraph({inner})"


# -- standard models -------------------------------------------------------


def thistle(W: FreeProduct) -> Orbigraph:
    """Central vertex, one cone point per factor, edges oriented inward.

    Cell 0 is the central vertex; cell ``i+1`` is the cone point of factor
    ``i``; edge ``i+1`` runs from that cone point to the center.  Edge names
    are the factor names uppercased.
    """
    n = W.n
    if n < 1:
        raise BadOrbigraph("a thistle needs at least one factor")
    kinds = [VERTEX] + list(range(n))
    ends = [(i + 1, 0) for i in range(n)]
    edge_names = _unique_names([W.names[i].upper() for i in range(n)])
    cell_names = ["*"] + [W.names[i] + "^" for i in range(n)]
    return Orbigraph(W, kinds, ends, edge_names, cell_names)


def hedgehog(W: FreeProduct, apex: int = 0) -> Orbigraph:
    """No vertices: every non-apex cone is joined to the apex cone directly.

    Cell ``i`` is the cone point of factor ``i``; the edges run from each
    non-apex cone to the apex, ordered by factor index.
    """
    n = W.n
    if n < 2:
        raise BadOrbigraph("a hedgehog needs at least two factors")
    if not 0 <= apex < n:
        raise BadOrbigraph(f"no factor {apex} to put at the apex")
    kinds = list(range(n))
    others = [i for i in range(n) if i != apex]
    ends = [(i, apex) for i in others]
    base = ["X", "Y", "Z"]
    if len(others) <= len(base):
        edge_names = base[: len(others)]
    else:
        edge_names = [f"X{j + 1}" for j in range(len(others))]
    cell_names = [W.names[i] + "^" for i in range(n)]
    return Orbigraph(W, kinds, ends, edge_names, cell_names)


def _unique_names(names):
    out = []
    used = set()
    for name in names:
        candidate = name
        tick = 1
        while candidate in used:
            tick += 1
            candidate = f"{name}{tick}"
        used.add(candidate)
        out.append(candidate)
    return out


# -- isomorphism -----------------------------------------------------------


def find_isomorphisms(g1: Orbigraph, g2: Orbigraph):
    """All factor-respecting cell/edge bijections, lazily.

    Cone points must match by factor label, so only the plain vertices are
    permuted.  Edge orientations must agree on the nose.  Yields pairs of
    dicts ``(cellmap, edgemap)``; ``edgemap`` is on positive ids.  Vertices
    are tried in ascending id order, so the stream is deterministic.
    """
    if g1.W is not g2.W and g1.W != g2.W:
        return
    if g1.n_cells != g2.n_cells or g1.n_edges != g2.n_edges:
        return
    cellmap = {g1.cone_cell(i): g2.cone_cell(i) for i in range(g1.W.n)}
    verts1 = [c for c in g1.cells() if not g1.is_cone(c)]
    verts2 = [c for c in g2.cells() if not g2.is_cone(c)]
    if len(verts1) != len(verts2):
        return

    pair_to_edge = {}
    for e in g2.edges():
        pair_to_edge[g2.ends[e - 1]] = e

    def edge_check(cmap):
        emap = {}
        for e in g1.edges():
            a, b = g1.ends[e - 1]
            target = pair_to_edge.get((cmap[a], cmap[b]))
            if target is None:
                return None
            emap[e] = target
        return emap

    def assign(i, cmap):
        if i == len(verts1):
            emap = edge_check(cmap)
            if emap is not None:
                yield dict(cmap), emap
            return
        v = verts1[i]
        for w in verts2:
            if w in cmap.values():
                continue
            if g1.valence(v) != g2.valence(w):
                continue
            cmap[v] = w
            yield from assign(i + 1, cmap)
            del cmap[v]

    yield from assign(0, cellmap)


def find_isomorphism(g1: Orbigraph, g2: Orbigraph):
    """The first factor-respecting cell/edge bijection, or ``None``."""
    return next(find_isomorphisms(g1, g2), None)
