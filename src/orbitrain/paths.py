"""Tight paths and circuits in orbigraphs.

A path is an anchored walk: directed edges interleaved with stabilizer
letters.  Letters live only at cone points, and the normal form keeps an
explicit letter item, trivial or not, at every junction of two edges that
meet at a cone point; display suppresses the trivial ones.  Junctions at
plain vertices never carry a letter.  Leading and trailing letters are
allowed only when nontrivial and only at cone endpoints.

Items are signed edge ids (negation reverses) or ``(cell, element)``
letters.  An edge item is exactly an ``int`` (a ``bool`` is not one) and a
letter is a ``(cell, element)`` tuple of two ``int``; tightening refuses
anything else with ``NotAWalk``.
Tightening is the confluent rewriting system: adjacent letters multiply,
``d, trivial, -d`` deletes with flanking letters merging, and ``d, -d`` at a
vertex deletes.  The hat display ``T^`` abbreviates ``T g T~`` with the
letter across the cone at the head of ``T``.

A walk handed to the tightener may also hold tight :class:`Path` runs,
such as the edge images a map splices together.  Inside a tight run
nothing cancels, so the rules meet only its leading items, at the seam
with the walk so far: a short seam step settles them in place, and the
rest of the run, from its first item that neither cancels nor merges, is
copied whole.  Run items are tight and valid by construction, so only
raw items are validated one by one.  A circuit
is closed by the same rules: its head items move across the wrap onto its
tail, and a walk that does not end where it starts is refused.  Paths and
circuits store their edge count when they are built; the tightener keeps
it as it goes.  A circuit keeps the rotation that closing the wrap left,
and picks its canonical rotation by integer keys on first comparison.
"""

from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import BadPath, EndpointMismatch, NotAWalk
from .groups import least_rotation
from .orbigraph import VERTEX, Orbigraph

Item = Union[int, Tuple[int, int]]


def _push(graph: Orbigraph, out: List[Item], cur: int, items):
    """Push ``items`` onto the walk ``out``, tight and at cell ``cur``, by
    the rewriting rules; the cell reached, the number of edge items
    pushed, and the number of cancellations, each of which deletes two
    edges.

    A raw item is validated and meets the rules.  A tight run meets them
    only at its seam: the seam step takes its leading items in place, an
    edge cancelling against the tail edge or across a trivial tail
    letter, a letter merging with the tail letter, and a junction letter
    entering at a cone, and stops at the first item that is appended
    without cancelling or merging.  Nothing after that item can cancel,
    so one ``extend`` copies the rest of the run.  The seam step is its
    own short loop because running a run's items through the raw-item
    loop would make that loop branch on whether it must validate."""
    src_of, dst_of, kinds = graph.src_of, graph.dst_of, graph.kinds
    pushed = cut = 0
    for item in items:
        if type(item) is int:
            if src_of.get(item) != cur:
                raise NotAWalk(f"no edge {item} in this graph"
                               if item not in src_of else
                               f"edge {graph.edge_label(item)} does not "
                               f"start at cell {cur}")
            pushed += 1
            if out:
                last = out[-1]
                if type(last) is int:
                    # at a cone the trivial letter between would cancel too
                    if last == -item:
                        out.pop()
                        cut += 1
                        cur = dst_of[item]
                        continue
                    if kinds[cur] != VERTEX:
                        out.append((cur, 0))
                elif last[1] == 0 and len(out) >= 2 and out[-2] == -item:
                    del out[-2:]
                    cut += 1
                    cur = dst_of[item]
                    continue
            out.append(item)
            cur = dst_of[item]
        elif (type(item) is tuple and len(item) == 2
              and type(item[0]) is int and type(item[1]) is int):
            c, g = item
            if c != cur:
                raise NotAWalk(f"letter at cell {c} but the walk is at {cur}")
            if kinds[c] == VERTEX:
                raise NotAWalk(f"cell {c} is a vertex; letters need a cone")
            group = graph.W.factors[kinds[c]]
            if not 0 <= g < group.order:
                raise NotAWalk(f"no element {g} at cone {c}")
            if out and type(out[-1]) is not int:
                out[-1] = (c, group.mul(out[-1][1], g))
            else:
                out.append(item)
        elif isinstance(item, Path) and item.graph is graph:
            if item.start != cur:
                raise NotAWalk(f"run from cell {item.start} but the walk "
                               f"is at {cur}")
            rest = iter(item.items)
            for d in rest:
                if out:
                    last = out[-1]
                    if type(d) is int:
                        if type(last) is int:
                            if last == -d:
                                out.pop()
                                cut += 1
                                cur = dst_of[d]
                                continue
                            if kinds[cur] != VERTEX:
                                out.append((cur, 0))
                        elif (last[1] == 0 and len(out) >= 2
                              and out[-2] == -d):
                            del out[-2:]
                            cut += 1
                            cur = dst_of[d]
                            continue
                    elif type(last) is not int:
                        out[-1] = (cur, graph.W.factors[kinds[cur]].mul(
                            last[1], d[1]))
                        continue
                out.append(d)
                break
            out.extend(rest)
            pushed += item.n_edges
            cur = item.end
        else:
            raise NotAWalk(f"item {item!r} is neither an edge, a letter "
                           f"nor a run on this graph")
    return cur, pushed, cut


def _tighten_items(graph: Orbigraph, start: int, items: Iterable):
    """Normalize a walk of raw items and tight runs: the tight items and
    their edge count.  Raises NotAWalk when junctions fail to chain."""
    out: List[Item] = []
    _, pushed, cut = _push(graph, out, graph.cell_id(start, NotAWalk), items)
    while out and type(out[0]) is not int and out[0][1] == 0:
        out.pop(0)
    while out and type(out[-1]) is not int and out[-1][1] == 0:
        out.pop()
    return tuple(out), pushed - 2 * cut


def tighten(graph: Orbigraph, start: int, items: Iterable) -> "Path":
    items, n_edges = _tighten_items(graph, start, items)
    return Path(graph, start, items, _n_edges=n_edges)


def invert_items(graph: Orbigraph, items: Sequence[Item]) -> Tuple[Item, ...]:
    """The reverse walk: edges negated, letters inverted, order reversed."""
    factors, kinds = graph.W.factors, graph.kinds
    return tuple(-item if type(item) is int
                 else (item[0], factors[kinds[item[0]]].inverses[item[1]])
                 for item in reversed(items))


def _letters_word(graph: Orbigraph, items: Sequence[Item]):
    """The word spelled by the nontrivial letters of the tight walk
    ``items``, which is already in normal form, so no ``nf`` pass runs.

    Orbigraphs are trees, with one cone per factor.  Between two
    consecutive nontrivial letters a tight walk crosses only edges,
    vertices and trivial junction letters, and it is reduced there, so
    it is a geodesic of the tree.  That geodesic is empty only when both
    letters sit at the same cone, where they would already have merged.
    So the two letters sit on distinct cones and belong to distinct
    factors.
    """
    kinds = graph.kinds
    return tuple([(kinds[it[0]], it[1]) for it in items
                  if type(it) is not int and it[1]])


class _Walk:
    """Edge crossings and the letter word read off ``items``, shared by
    paths and circuits."""

    __slots__ = ()

    def crossings(self):
        """Unsigned edge-crossing counts, the raw material of transitions."""
        counts = {}
        for item in self.items:
            if type(item) is int:
                e = abs(item)
                counts[e] = counts.get(e, 0) + 1
        return counts

    def word(self):
        """The free-product word spelled by the letters, in normal form."""
        return _letters_word(self.graph, self.items)


class Path(_Walk):
    """A tight anchored walk.  Construct via :func:`tighten` or operators;
    items given with their edge count ``_n_edges`` are trusted as tight."""

    __slots__ = ("graph", "start", "items", "end", "n_edges")

    def __init__(self, graph: Orbigraph, start: int, items: Iterable[Item] = (),
                 *, _n_edges: Optional[int] = None):
        items = tuple(items)
        if _n_edges is None:
            normal, _n_edges = _tighten_items(graph, start, items)
            if normal != items:
                raise BadPath("items are not in tight normal form")
        self.n_edges = _n_edges
        self.graph = graph
        self.start = start
        self.items = items
        last = items[-1] if items else (self.start,)
        self.end = graph.dst_of[last] if type(last) is int else last[0]

    # -- queries -------------------------------------------------------------

    @property
    def is_loop(self) -> bool:
        return self.start == self.end

    def __len__(self):
        return len(self.items)

    def turns(self) -> Tuple["Turn", ...]:
        out = []
        prev = pending = None
        for item in self.items:
            if type(item) is int:
                if prev is not None:
                    out.append(Turn(-prev, pending, item,
                                    self.graph.src_of[item]))
                prev, pending = item, None
            elif prev is not None:
                pending = item[1]
        return tuple(out)

    # -- algebra -------------------------------------------------------------

    def concat(self, other: "Path") -> "Path":
        if self.graph is not other.graph:
            raise BadPath("paths live on different graphs")
        if self.end != other.start:
            raise EndpointMismatch(
                f"cannot join a path ending at cell {self.end} "
                f"to one starting at cell {other.start}")
        return tighten(self.graph, self.start, (self, other))

    __mul__ = concat

    def invert(self) -> "Path":
        return Path(self.graph, self.end, invert_items(self.graph, self.items),
                    _n_edges=self.n_edges)

    __invert__ = invert

    def __eq__(self, other):
        return (isinstance(other, Path) and self.graph is other.graph
                and self.start == other.start and self.items == other.items)

    def __hash__(self):
        return hash((id(self.graph), self.start, self.items))

    def __repr__(self):
        return f"Path({format_path(self)!r} at {self.start})"


class Turn(NamedTuple):
    """An ordered pair of directed edges leaving ``base``, with the letter
    read between them when ``base`` is a cone point (``None`` at vertices).

    A named tuple, so the turn map builds it and the verdict table hashes
    and compares it in C.  It equals the bare tuple of its fields, but it
    is no walk item: tightening takes only an exact ``tuple`` as a letter."""

    first: int
    letter: Optional[int]
    second: int
    base: int

    @property
    def degenerate(self) -> bool:
        return self.first == self.second and not self.letter


# -- circuits ---------------------------------------------------------------


class Circuit(_Walk):
    """A cyclically tight loop.

    Items follow the same conventions as paths, read cyclically.  ``loop``
    holds them in the rotation that :func:`tighten_circuit` closed them
    in, which is all that mapping a circuit or reading its edge count and
    word class needs.  ``items`` is the canonical rotation, computed
    on first read: the least one under integer keys, where an edge d keys
    as d and a letter (c, g) as m + 1 + c K + g, with m the graph's edge
    count and K its largest factor order.  So letters sort above edges, by
    cell and then element, and the canonical rotation starts at an edge
    whenever there is one.  Equality, hashing and display read ``items``.
    The empty circuit is the homotopically trivial loop.  Build circuits
    with :func:`tighten_circuit`, which passes the tight loop and its edge
    count here.
    """

    __slots__ = ("graph", "loop", "n_edges", "_items")

    def __init__(self, graph: Orbigraph, loop: Tuple[Item, ...], n_edges: int):
        self.graph = graph
        self.loop = loop
        self.n_edges = n_edges
        self._items = None

    @property
    def items(self) -> Tuple[Item, ...]:
        if self._items is None:
            loop, base = self.loop, self.graph.n_edges + 1
            K = max(group.order for group in self.graph.W.factors)
            r = least_rotation([it if type(it) is int
                                else base + it[0] * K + it[1] for it in loop])
            self._items = loop[r:] + loop[:r]
        return self._items

    def word_class(self):
        """Conjugacy normal form of the letters read around the loop."""
        return self.graph.W.conjugacy_normal_form(
            _letters_word(self.graph, self.loop))

    def __eq__(self, other):
        return (isinstance(other, Circuit) and self.graph is other.graph
                and self.items == other.items)

    def __hash__(self):
        return hash((id(self.graph), self.items))

    def __repr__(self):
        if not self.items:
            return "Circuit(trivial)"
        return f"Circuit({' '.join(_format_items(self.graph, self.items))})"


def tighten_circuit(graph: Orbigraph, items: Iterable) -> Circuit:
    """The circuit of a closed walk of raw items and tight runs.

    The walk is tightened as a path from its first cell, so runs cancel
    only at their seams, and refused with ``NotAWalk`` unless it ends at
    that cell.  Then :func:`_push` closes the wrap by the path rules: the
    head item moves onto the tail, a letter merging with a tail letter
    and an edge cancelling against the tail or gaining its junction
    letter, until the first edge that crosses without cancelling.  A
    slice of a tight walk is tight, so the body is never re-tightened,
    and the edge count drops by two per cancellation.  A letter-only
    walk lives at one cone and reduces to its product.  The circuit keeps
    the rotation the wrap left; its canonical rotation is computed on
    first comparison (:attr:`Circuit.items`).

    Cost: O(n) in the number of items.
    """
    items = list(items)
    head = items[0] if items else None
    start = (head.start if isinstance(head, Path)
             else head[0] if type(head) is tuple and head
             else graph.src_of.get(head, 0) if type(head) is int else 0)
    out: List[Item] = []
    cur, pushed, cut = _push(graph, out, graph.cell_id(start, NotAWalk),
                             items)
    if cur != start:
        raise NotAWalk(f"the walk ends at cell {cur}, not at its start "
                       f"{start}")
    n_edges = pushed - 2 * cut
    k = 0
    while len(out) - k > 1:
        head = out[k]
        k += 1
        cur, _, cut = _push(graph, out, cur, (head,))
        n_edges -= 2 * cut
        if type(head) is int and not cut:
            break
    del out[:k]
    if len(out) == 1 and type(out[0]) is not int and out[0][1] == 0:
        out.clear()
    return Circuit(graph, tuple(out), n_edges)


# -- words and realizations --------------------------------------------------


def word_walk(graph: Orbigraph, walks, word) -> List[Item]:
    """The raw walk spelling ``word`` from the root of the tree ``walks``:
    out along the walk to each syllable's cone point, read the letter,
    and come back."""
    items: List[Item] = []
    for i, e in word:
        cone = graph.cone_cell(i)
        go = walks[cone]
        items.extend(go)
        items.append((cone, e))
        items.extend(-d for d in reversed(go))
    return items


def loop_of_word(graph: Orbigraph, base: int, word) -> Path:
    """The tight loop at ``base`` spelling ``word``."""
    return tighten(graph, base, word_walk(graph, graph.walks(base), word))


# -- text form ----------------------------------------------------------------


def _format_items(graph, items):
    tokens = []
    for item in items:
        if type(item) is int:
            tokens.append(graph.edge_label(item))
        else:
            c, g = item
            if g == 0:
                continue
            tokens.append("." + graph.W.format_letter((graph.factor_at(c), g)))
    return tokens or ["1"]


def format_path(p: Path) -> str:
    return " ".join(_format_items(p.graph, p.items))


def parse_path(graph: Orbigraph, text: str, start: Optional[int] = None) -> Path:
    """Parse path tokens: edge names, ``~`` reversal, ``.letter`` items,
    and the hat sugar ``T^``/``T^[e]`` for ``T letter ~T`` across the cone
    at the head of ``T``.  The result is tightened."""
    items: List[Item] = []
    for token in text.split():
        if token == "1":
            continue
        if token.startswith("."):
            word = graph.W.parse_word(token[1:])
            if len(word) > 1 or token == ".":
                raise BadPath(f"letter token {token!r} is not a single letter")
            for i, e in word:
                items.append((graph.cone_cell(i), e))
            continue
        # a bare hat leaves hat None, which is no element: T^[0] is the
        # identity, as a[0] is in a word
        name, caret, rest = token.partition("^")
        hat = None
        if rest.startswith("[") and rest.endswith("]"):
            try:
                hat = int(rest[1:-1])
            except ValueError:
                raise BadPath(f"bad hat element in {token!r}") from None
        elif rest:
            raise BadPath(f"bad hat suffix in {token!r}")
        d = graph.edge_by_name(name)
        if not caret:
            items.append(d)
            continue
        head = graph.dst(d)
        if not graph.is_cone(head):
            raise BadPath(f"hat on {name!r} needs a cone at its head")
        if hat is None:
            group = graph.group_at(head)
            hat = group.generator() if group.is_cyclic() else 1
        items.extend((d, (head, hat), -d))
    if start is None:
        if not items or type(items[0]) is not int:
            raise BadPath("cannot infer the start cell; pass it explicitly")
        start = graph.src(items[0])
    return tighten(graph, start, items)
