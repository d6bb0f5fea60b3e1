"""Finite trees of finite groups with trivial edge stabilizers.

An orbigraph is a finite tree whose zero cells are either plain vertices or
cone points, one cone point per free factor of an ambient free product.  The
module also provides the one tree walk, which serves connectivity,
geodesics and the forest test on plain sets of edge ids, and the two
standard models: the thistle, with a central vertex, and the hedgehog, with
a cone apex and no vertices at all.

Zero cells are numbered 0..k-1 and edges 1..m; a directed edge is +e or -e,
so reversal is negation.  Iteration order is always ascending by id, which
keeps every downstream algorithm deterministic.  Cell and edge ids are
checked in one place, ``Orbigraph.cell_id`` and ``edge_id``, which take
the caller's error class; an id is exactly an ``int``, never a ``bool``.
"""

from typing import Dict, Optional, Sequence, Tuple

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

    __slots__ = ("W", "kinds", "ends", "edge_names", "src_of", "dst_of",
                 "_cone_cells", "_incidence")

    def __init__(self, W: FreeProduct, kinds: Sequence[int],
                 ends: Sequence[Tuple[int, int]],
                 edge_names: Optional[Sequence[str]] = None):
        self.W = W
        self.kinds = tuple(kinds)
        self.ends = tuple([(a, b) for a, b in ends])
        k, m = len(self.kinds), len(self.ends)
        if k == 0:
            raise BadOrbigraph("an orbigraph needs at least one zero cell")
        seen: Dict[int, int] = {}
        for c, kind in enumerate(self.kinds):
            if type(kind) is not int:
                raise BadOrbigraph(f"cell {c} has kind {kind!r}, not an int")
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
            if type(a) is not int or type(b) is not int:
                raise BadOrbigraph(f"edge {e} has ends {(a, b)!r}, not cell "
                                   f"ids")
            if not (0 <= a < k and 0 <= b < k):
                raise BadOrbigraph(f"edge {e} has endpoint outside the graph")
            if a == b:
                raise BadOrbigraph(f"edge {e} is a loop; trees have none")
        if m != k - 1:
            raise BadOrbigraph(f"{m} edges on {k} zero cells is not a tree")
        self._cone_cells = tuple([seen[i] for i in range(W.n)])
        incidence = [[] for _ in range(k)]
        self.src_of, self.dst_of = {}, {}
        for e, (a, b) in enumerate(self.ends, start=1):
            incidence[a].append(e)
            incidence[b].append(-e)
            self.src_of[e] = self.dst_of[-e] = a
            self.dst_of[e] = self.src_of[-e] = b
        self._incidence = tuple([tuple(out) for out in incidence])
        if len(self.walks(0)) != k:
            raise BadOrbigraph("the one-complex is not connected")
        if edge_names is None:
            edge_names = [f"E{e}" for e in range(1, m + 1)]
        self.edge_names = tuple(edge_names)
        if len(self.edge_names) != m or len(set(self.edge_names)) != m:
            raise BadOrbigraph("edge names must be distinct, one per edge")

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

    def is_cone(self, c) -> bool:
        return self.kinds[self.cell_id(c)] != VERTEX

    def factor_at(self, c) -> Optional[int]:
        kind = self.kinds[self.cell_id(c)]
        return None if kind == VERTEX else kind

    def cell_id(self, c, error=BadOrbigraph) -> int:
        """``c`` if it is a cell id of this graph, else ``error``."""
        if type(c) is not int or not 0 <= c < len(self.kinds):
            raise error(f"no cell {c!r} in this graph")
        return c

    def edge_id(self, d, error=BadOrbigraph) -> int:
        """``d`` if it is a signed edge id of this graph, else ``error``."""
        if type(d) is not int or d not in self.src_of:
            raise error(f"no edge {d!r} in this graph")
        return d

    def cone_cell(self, factor) -> int:
        if type(factor) is not int or not 0 <= factor < len(self._cone_cells):
            raise BadOrbigraph(f"no factor {factor!r} in this graph")
        return self._cone_cells[factor]

    def cone_cells(self):
        return self._cone_cells

    def group_at(self, c) -> FiniteGroup:
        kind = self.kinds[self.cell_id(c)]
        if kind == VERTEX:
            raise BadOrbigraph(f"cell {c} is a vertex and carries no group")
        return self.W.factors[kind]

    def src(self, d) -> int:
        return self.src_of[self.edge_id(d)]

    def dst(self, d) -> int:
        return self.dst_of[self.edge_id(d)]

    def edges_at(self, c) -> Tuple[int, ...]:
        """Directed edges originating at ``c``, ascending by edge id."""
        return self._incidence[self.cell_id(c)]

    def valence(self, c) -> int:
        return len(self._incidence[self.cell_id(c)])

    def edge_label(self, d) -> str:
        name = self.edge_names[abs(self.edge_id(d)) - 1]
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
        cones = ", ".join(self.W.names)
        return f"Orbigraph({self.n_cells} cells, {self.n_edges} edges; {cones})"

    # -- tree walking ------------------------------------------------------

    def walks(self, root, edges=None) -> Dict[int, Tuple[int, ...]]:
        """The walk from ``root`` to every cell it reaches crossing only
        ``edges``, or any edge when ``edges`` is None.  In a tree each
        walk is the unique reduced edge walk to its cell.  A ``root``
        that is not a cell id raises ``BadOrbigraph``."""
        walk: Dict[int, Tuple[int, ...]] = {self.cell_id(root): ()}
        frontier = [root]
        while frontier:
            c = frontier.pop()
            for d in self._incidence[c]:
                if edges is not None and abs(d) not in edges:
                    continue
                nxt = self.dst_of[d]
                if nxt not in walk:
                    walk[nxt] = walk[c] + (d,)
                    frontier.append(nxt)
        return walk

    def geodesic(self, a, b) -> Tuple[int, ...]:
        """The unique reduced edge walk from cell ``a`` to cell ``b``."""
        return self.walks(a)[self.cell_id(b)]

    def is_forest(self, edges) -> bool:
        """Whether the edge set ``edges`` is nonempty and each of its
        components holds at most one cone point."""
        return bool(edges) and not any(
            self.kinds[c] != VERTEX
            for cone in self._cone_cells
            for c in self.walks(cone, edges) if c != cone)


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
    return Orbigraph(W, kinds, ends, edge_names)


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
    return Orbigraph(W, kinds, ends, edge_names)


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
