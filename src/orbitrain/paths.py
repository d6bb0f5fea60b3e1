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
"""

from collections import deque
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from .errors import BadPath, EndpointMismatch, NotAWalk
from .groups import least_rotation
from .orbigraph import VERTEX, Orbigraph

Item = Union[int, Tuple[int, int]]


def _tighten_items(graph: Orbigraph, start: int, items: Iterable[Item]):
    """Normalize a raw walk; raises NotAWalk when junctions fail to chain."""
    out: List[Item] = []
    cur = start
    if cur not in range(graph.n_cells):
        raise NotAWalk(f"no cell {cur!r} to start from")
    src_of, dst_of, kinds = graph.src_of, graph.dst_of, graph.kinds
    for item in items:
        if type(item) is int:
            if src_of.get(item) != cur:
                raise NotAWalk(f"no edge {item} in this graph"
                               if item not in src_of else
                               f"edge {graph.edge_label(item)} does not "
                               f"start at cell {cur}")
            if out:
                last = out[-1]
                if type(last) is int:
                    # at a cone the trivial letter between would cancel too
                    if last == -item:
                        out.pop()
                        cur = dst_of[item]
                        continue
                    if kinds[cur] != VERTEX:
                        out.append((cur, 0))
                elif last[1] == 0 and len(out) >= 2 and out[-2] == -item:
                    del out[-2:]
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
        else:
            raise NotAWalk(f"item {item!r} is neither an edge nor a letter")
    while out and type(out[0]) is not int and out[0][1] == 0:
        out.pop(0)
    while out and type(out[-1]) is not int and out[-1][1] == 0:
        out.pop()
    return tuple(out)


def tighten(graph: Orbigraph, start: int, items: Iterable[Item]) -> "Path":
    return Path(graph, start, _tighten_items(graph, start, items),
                _tight=True)


def invert_items(graph: Orbigraph, items: Sequence[Item]) -> Tuple[Item, ...]:
    """The reverse walk: edges negated, letters inverted, order reversed."""
    return tuple(-item if type(item) is int
                 else (item[0], graph.group_at(item[0]).inv(item[1]))
                 for item in reversed(items))


class _Walk:
    """Edge counts and the letter word read off ``items``, shared by paths
    and circuits."""

    __slots__ = ()

    @property
    def n_edges(self) -> int:
        return sum(type(item) is int for item in self.items)

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
        letters = [(self.graph.kinds[it[0]], it[1]) for it in self.items
                   if type(it) is not int and it[1]]
        return self.graph.W.nf(letters)


class Path(_Walk):
    """A tight anchored walk.  Construct via :func:`tighten` or operators."""

    __slots__ = ("graph", "start", "items", "end")

    def __init__(self, graph: Orbigraph, start: int, items: Iterable[Item] = (),
                 *, _tight: bool = False):
        items = tuple(items)
        if not _tight:
            normal = _tighten_items(graph, start, items)
            if normal != items:
                raise BadPath("items are not in tight normal form")
        self.graph = graph
        self.start = int(start)
        self.items = items
        last = items[-1] if items else (self.start,)
        self.end = graph.dst_of[last] if type(last) is int else last[0]

    # -- queries -------------------------------------------------------------

    @property
    def is_loop(self) -> bool:
        return self.start == self.end

    def __len__(self):
        return len(self.items)

    def edge_items(self) -> Tuple[int, ...]:
        return tuple(item for item in self.items if type(item) is int)

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
        return tighten(self.graph, self.start, self.items + other.items)

    __mul__ = concat

    def invert(self) -> "Path":
        return Path(self.graph, self.end, invert_items(self.graph, self.items),
                    _tight=True)

    __invert__ = invert

    def __eq__(self, other):
        return (isinstance(other, Path) and self.graph is other.graph
                and self.start == other.start and self.items == other.items)

    def __hash__(self):
        return hash((id(self.graph), self.start, self.items))

    def __repr__(self):
        return f"Path({format_path(self)!r} at {self.start})"


@dataclass(frozen=True)
class Turn:
    """An ordered pair of directed edges leaving ``base``, with the letter
    read between them when ``base`` is a cone point (``None`` at vertices)."""

    first: int
    letter: Optional[int]
    second: int
    base: int

    @property
    def degenerate(self) -> bool:
        return self.first == self.second and not self.letter


# -- circuits ---------------------------------------------------------------


def _item_key(item):
    return (0, item, 0) if type(item) is int else (1,) + item


class Circuit(_Walk):
    """A cyclically tight loop, stored in its canonical rotation.

    Items follow the same conventions as paths; the junction letter at the
    wrap, when the wrap sits at a cone point, is the final item.  The
    canonical rotation is the lexicographically least one under
    ``_item_key``, which starts at an edge (see :func:`tighten_circuit`).
    The empty circuit is the homotopically trivial loop.  Build circuits
    with :func:`tighten_circuit`, which passes the canonical items here.
    """

    __slots__ = ("graph", "items")

    def __init__(self, graph: Orbigraph, items: Iterable[Item]):
        self.graph = graph
        self.items = tuple(items)

    def word_class(self):
        """Conjugacy normal form of the letters read around the loop."""
        return self.graph.W.conjugacy_normal_form(self.word())

    def __eq__(self, other):
        return (isinstance(other, Circuit) and self.graph is other.graph
                and self.items == other.items)

    def __hash__(self):
        return hash((id(self.graph), self.items))

    def __repr__(self):
        if not self.items:
            return "Circuit(trivial)"
        return f"Circuit({' '.join(_format_items(self.graph, self.items))})"


def tighten_circuit(graph: Orbigraph, items: Iterable[Item]) -> Circuit:
    """The circuit of a closed walk, in canonical form.

    The walk is tightened as a path from its first edge, then cancelled
    across the wrap: leading letters move to the end, and an edge that
    meets its reverse at the wrap (directly at a vertex, through a trivial
    letter at a cone) is peeled off both ends.  A slice of a tight walk is
    tight up to trivial end letters, which the leading-letter rotation
    absorbs, so the body is never re-tightened.
    The canonical form is the least rotation of the items under
    ``_item_key``.  Edge keys ``(0, d, 0)`` sort below letter keys
    ``(1, c, g)``, so it starts at an edge whenever the circuit has one.
    A letter-only walk lives at one cone and reduces to its product.

    Cost: O(n) in the number of items, with :func:`least_rotation`.
    """
    items = list(items)
    first = next((k for k, it in enumerate(items) if type(it) is int), None)
    if first is None:
        # tightening from the first letter's cone multiplies the letters
        start = (items[0][0] if items and type(items[0]) is tuple
                 and items[0] else 0)
        return Circuit(graph, _tighten_items(graph, start, items))

    items = deque(_tighten_items(graph, graph.src_of.get(items[first], 0),
                                 items[first:] + items[:first]))

    changed = True
    while changed:
        changed = False
        while len(items) > 1 and type(items[0]) is not int:
            items.append(items.popleft())
            changed = True
            while (len(items) >= 2 and type(items[-1]) is not int
                   and type(items[-2]) is not int):
                c, g = items.pop()
                c0, g0 = items[-1]
                if c0 != c:
                    raise NotAWalk("circuit letters disagree at the wrap")
                items[-1] = (c, graph.group_at(c).mul(g0, g))
        if not items:
            break
        if len(items) == 1:
            if type(items[0]) is not int and items[0][1] == 0:
                items.clear()
            break
        last = items[-1]
        d0 = items[0]
        if type(last) is int:
            j = graph.dst_of[last]
            if graph.src_of[d0] != j:
                raise NotAWalk("circuit does not close up")
            if graph.kinds[j] != VERTEX:
                items.append((j, 0))
                changed = True
            elif d0 == -last:
                items.popleft()
                items.pop()
                changed = True
        elif last[1] == 0 and items[-2] == -d0:
            items.popleft()
            items.pop()
            items.pop()
            changed = True

    items = tuple(items)
    r = least_rotation([_item_key(it) for it in items])
    return Circuit(graph, items[r:] + items[:r])


# -- words and realizations --------------------------------------------------


def loop_of_word(graph: Orbigraph, base: int, word) -> Path:
    """The tight loop at ``base`` spelling ``word``: out along the geodesic
    to each syllable's cone point, read the letter, and come back."""
    items: List[Item] = []
    for i, e in word:
        cone = graph.cone_cell(i)
        go = graph.geodesic(base, cone)
        items.extend(go)
        items.append((cone, e))
        items.extend(-d for d in reversed(go))
    return tighten(graph, base, items)


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
            body = token[1:]
            word = graph.W.parse_word(body)
            if len(word) > 1:
                raise BadPath(f"letter token {token!r} is not a single letter")
            for i, e in word:
                items.append((graph.cone_cell(i), e))
            continue
        hat = None
        name = token
        if "^" in token:
            name, _, rest = token.partition("^")
            if rest == "":
                hat = 0
            elif rest.startswith("[") and rest.endswith("]"):
                try:
                    hat = int(rest[1:-1])
                except ValueError:
                    raise BadPath(f"bad hat element in {token!r}") from None
            else:
                raise BadPath(f"bad hat suffix in {token!r}")
        d = graph.edge_by_name(name)
        if hat is None:
            items.append(d)
            continue
        head = graph.dst(d)
        if not graph.is_cone(head):
            raise BadPath(f"hat on {name!r} needs a cone at its head")
        group = graph.group_at(head)
        if hat == 0:
            hat = group.generator() if group.is_cyclic() else 1
        items.extend((d, (head, hat), -d))
    if start is None:
        if not items or type(items[0]) is not int:
            raise BadPath("cannot infer the start cell; pass it explicitly")
        start = graph.src(items[0])
    return tighten(graph, start, items)
