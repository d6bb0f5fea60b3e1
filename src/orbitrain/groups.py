"""Exact arithmetic in free products.

Representation choices, used by every other module:

* Every factor is a finite group, given as a Cayley table over element
  indices ``0..order-1`` with index 0 the identity.
* A letter is a pair ``(factor, element)`` of plain ints.  A word is a tuple
  of letters in normal form: no trivial letters, no two adjacent letters in
  the same factor.  Words are values; they hash and compare lexicographically
  by ``(factor, element)``, which is also the rotation order used by
  conjugacy normal forms.
* An automorphism stores the image word of every element of every factor.
  Composition and application are exact, and inversion is exact peak
  reduction by multiple partial conjugations.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import (
    BadGroupTable,
    FactorMismatch,
    NotAutomorphism,
    NotInvertible,
    UnknownGenerator,
)

Letter = tuple  # (factor: int, element: int)
Word = tuple  # tuple of Letter, in normal form


# ---------------------------------------------------------------------------
# factors
# ---------------------------------------------------------------------------


class FiniteGroup:
    """A finite group given by an explicit Cayley table.

    ``cayley[g][h]`` is the element index of the product g.h.  Element 0 is
    required to be the identity.  Construction verifies the group axioms
    exhaustively, associativity on every triple, once per group.
    """

    def __init__(self, cayley, label="G", names=None):
        cayley = tuple(tuple(row) for row in cayley)
        order = len(cayley)
        if order < 2:
            raise BadGroupTable("factor groups must have order >= 2")
        for row in cayley:
            if len(row) != order or any(not (0 <= x < order) for x in row):
                raise BadGroupTable("cayley table is not square over 0..order-1")
        for g in range(order):
            if cayley[0][g] != g or cayley[g][0] != g:
                raise BadGroupTable("element 0 is not a two-sided identity")
        inverses = [None] * order
        for g in range(order):
            for h in range(order):
                if cayley[g][h] == 0 and cayley[h][g] == 0:
                    inverses[g] = h
                    break
            if inverses[g] is None:
                raise BadGroupTable(f"element {g} has no inverse")
        for a, b, c in itertools.product(range(order), repeat=3):
            if cayley[cayley[a][b]][c] != cayley[a][cayley[b][c]]:
                raise BadGroupTable(f"associativity fails on ({a},{b},{c})")
        self.cayley = cayley
        self.order = order
        self.inverses = tuple(inverses)
        self.label = label
        self.names = tuple(names) if names else tuple(
            "1" if g == 0 else f"g{g}" for g in range(order)
        )
        if len(self.names) != order:
            raise BadGroupTable("element name list has wrong length")

    # -- constructors ------------------------------------------------------

    @classmethod
    def cyclic(cls, m, label=None):
        """Z/m with element k the k-th power of the generator."""
        label = label or f"Z/{m}"
        table = [[(i + j) % m for j in range(m)] for i in range(m)]
        names = ["1"] + ["g" if k == 1 else f"g^{k}" for k in range(1, m)]
        return cls(table, label=label, names=names)

    @classmethod
    def symmetric(cls, m, label=None):
        """S_m on 0..m-1; element order is lexicographic on one-line tuples."""
        perms = sorted(itertools.permutations(range(m)))
        index = {p: i for i, p in enumerate(perms)}
        # table[g][h] = g after h: apply h first, then g.
        table = [
            [index[tuple(g[h[i]] for i in range(m))] for h in perms] for g in perms
        ]
        names = [_cycle_name(p) for p in perms]
        return cls(table, label=label or f"S{m}", names=names)

    # -- arithmetic ---------------------------------------------------------

    def mul(self, g, h):
        return self.cayley[g][h]

    def inv(self, g):
        return self.inverses[g]

    def elements(self):
        return range(self.order)

    def nontrivial(self):
        return range(1, self.order)

    def power(self, g, k):
        if k < 0:
            g, k = self.inverses[g], -k
        out = 0
        while k:
            if k & 1:
                out = self.cayley[out][g]
            g = self.cayley[g][g]
            k >>= 1
        return out

    def element_order(self, g):
        k, x = 1, g
        while x != 0:
            x = self.cayley[x][g]
            k += 1
        return k

    def is_cyclic(self):
        return any(self.element_order(g) == self.order for g in self.elements())

    def generator(self):
        """An element of maximal order; for cyclic groups, a generator."""
        return max(self.elements(), key=self.element_order)

    # -- identity and hashing ----------------------------------------------

    def __eq__(self, other):
        return isinstance(other, FiniteGroup) and self.cayley == other.cayley

    def __hash__(self):
        return hash(self.cayley)

    def __repr__(self):
        return f"FiniteGroup({self.label}, order={self.order})"


def _cycle_name(perm):
    """Cycle notation for a permutation tuple, points printed 1-based."""
    seen = [False] * len(perm)
    parts = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cycle = []
        x = start
        while not seen[x]:
            seen[x] = True
            cycle.append(str(x + 1))
            x = perm[x]
        parts.append("(" + " ".join(cycle) + ")")
    return "".join(parts) if parts else "e"


# ---------------------------------------------------------------------------
# factor isomorphisms (element-index mapping tuples)
# ---------------------------------------------------------------------------


def iso_identity(group):
    return tuple(range(group.order))


def is_iso(source, target, mapping):
    """True if ``mapping`` is a group isomorphism source -> target: a
    bijection of exact ``int`` element indices, fixing the identity, that
    carries the Cayley table of ``source`` onto that of ``target``.  The
    identity mapping between equal tables is one at once."""
    n = source.order
    if target.order != n or len(mapping) != n:
        return False
    mapping = tuple(mapping)
    if any(type(x) is not int for x in mapping):
        return False
    identity = tuple(range(n))
    sc, tc = source.cayley, target.cayley
    if mapping == identity:
        if sc == tc:
            return True
    elif sorted(mapping) != list(identity) or mapping[0] != 0:
        return False
    return all(mapping[s] == tc[mapping[a]][mapping[b]]
               for a, row in enumerate(sc) for b, s in enumerate(row))


def iso_chain(first, then):
    """The composite mapping: apply ``first``, then ``then``."""
    return tuple(then[x] for x in first)


def least_rotation(keys: Sequence) -> int:
    """Start of the lexicographically least rotation of ``keys``.

    The two-pointer minimum-expression search (in the line of Booth, Inf.
    Process. Lett. 10 (1980), and Shiloach, J. Algorithms 2 (1981)):
    candidates ``i < j`` race along the doubled sequence, and a mismatch
    after ``k`` equal keys rules out the ``k + 1`` starts behind the loser.
    O(n) comparisons; on a periodic sequence the first least start wins.
    """
    n = len(keys)
    s = tuple(keys) * 2
    i, j, k = 0, 1, 0
    while j < n and k < n:
        a, b = s[i + k], s[j + k]
        if a == b:
            k += 1
            continue
        if a > b:
            i = max(i + k + 1, j)
            j = i + 1
        else:
            j += k + 1
        k = 0
    return i


# ---------------------------------------------------------------------------
# the free product
# ---------------------------------------------------------------------------


class FreeProduct:
    """A free product of finite groups with display names, the group W.

    Factors are indexed 0..n-1; the name list gives the display token of
    each factor's generator.  All word operations are purely syntactic on
    normal forms and never mutate their inputs.
    """

    def __init__(self, factors: Sequence[FiniteGroup],
                 names: Optional[Sequence[str]] = None):
        self.factors = tuple(factors)
        if not self.factors:
            raise ValueError("a free product needs at least one factor")
        if not all(isinstance(f, FiniteGroup) for f in self.factors):
            raise ValueError("every factor must be a FiniteGroup")
        if names is None:
            names = [
                chr(ord("a") + i) if i < 19 else f"x{i}"
                for i in range(len(factors))
            ]
        self.names = tuple(names)
        if len(self.names) != len(self.factors):
            raise ValueError("one name per factor required")
        if len(set(self.names)) != len(self.names):
            raise ValueError("factor names must be distinct")
        for name in self.names:
            if not name or any(ch in name for ch in " \t^[]"):
                raise ValueError(f"bad factor name: {name!r}")
        self._moves = None

    @property
    def n(self):
        return len(self.factors)

    def __eq__(self, other):
        return (
            isinstance(other, FreeProduct)
            and self.factors == other.factors
            and self.names == other.names
        )

    def __hash__(self):
        return hash((self.factors, self.names))

    def __repr__(self):
        return "FreeProduct(" + " * ".join(
            f"{name}:{factor.label}" for name, factor in zip(self.names, self.factors)
        ) + ")"

    # -- letters -------------------------------------------------------------

    def letter_mul(self, g, h):
        if g[0] != h[0]:
            raise FactorMismatch(f"letters in factors {g[0]} and {h[0]}")
        return (g[0], self.factors[g[0]].mul(g[1], h[1]))

    def letters(self) -> Iterator[Letter]:
        """All generator letters: every nontrivial element of every factor."""
        for i, factor in enumerate(self.factors):
            for e in factor.nontrivial():
                yield (i, e)

    # -- words ---------------------------------------------------------------

    def nf(self, raw: Iterable[Letter]) -> Word:
        """Normal form: merge adjacent same-factor letters, drop trivials,
        reading the Cayley tables.  ``top`` is the factor of the last kept
        letter, -1 for none, re-read when a merge cancels that letter."""
        factors = self.factors
        out = []
        top = -1
        for i, e in raw:
            if not e:
                continue
            if i == top:
                e = factors[i].cayley[out[-1][1]][e]
                if e:
                    out[-1] = (i, e)
                else:
                    out.pop()
                    top = out[-1][0] if out else -1
            else:
                out.append((i, e))
                top = i
        return tuple(out)

    def mul(self, *words: Word) -> Word:
        return self.nf(itertools.chain.from_iterable(words))

    def inv(self, word: Word) -> Word:
        """The inverse word, read off the inverse tables; normal if
        ``word`` is."""
        factors = self.factors
        return tuple([(i, factors[i].inverses[e]) for i, e in reversed(word)])

    def conj(self, word: Word, by: Word) -> Word:
        """by^-1 . word . by"""
        return self.mul(self.inv(by), word, by)

    def power(self, word: Word, k: int) -> Word:
        if k < 0:
            word, k = self.inv(word), -k
        return self.nf(word * k)

    # -- conjugacy -----------------------------------------------------------

    def cyclic_form(self, word: Word):
        """Cyclically reduced core and conjugator: word = q^-1 . core . q.
        The core is word[i:j] with its first letter merged into ``head``
        and q is the suffix word[j:], so peeling takes linear time."""
        i, j = 0, len(word)
        head = word[0] if word else None
        while j - i >= 2 and head[0] == word[j - 1][0]:
            j -= 1
            head = self.letter_mul(word[j], head)
            if head[1] == 0:
                i += 1
                head = word[i] if i < j else None
        if i == j:
            return (), word[j:]
        return (head,) + word[i + 1:j], word[j:]

    def conjugacy_normal_form(self, word: Word) -> Word:
        """Canonical conjugacy representative.

        Length >= 2: the rotation of the cyclically reduced core that is
        minimal in the lexicographic order on (factor, element), found by
        :func:`least_rotation` in time linear in the core.  Length <= 1: the
        minimal element index in the letter's factor conjugacy orbit (single
        syllables are conjugate in W iff conjugate in their factor).
        """
        core, _ = self.cyclic_form(word)
        if len(core) <= 1:
            if not core:
                return ()
            i, e = core[0]
            c, inverses = self.factors[i].cayley, self.factors[i].inverses
            return ((i, min(c[inverses[h]][c[e][h]] for h in range(len(c)))),)
        r = least_rotation(core)
        return core[r:] + core[:r]

    # -- formatting and parsing ----------------------------------------------

    def format_letter(self, letter) -> str:
        i, e = letter
        name, factor = self.names[i], self.factors[i]
        if factor.is_cyclic():
            # express as a power of the distinguished generator when possible
            gen = factor.generator()
            x, k = gen, 1
            while x != e and k <= factor.order:
                x, k = factor.mul(x, gen), k + 1
            if x == e:
                return name if k == 1 else f"{name}^{k}"
        return f"{name}[{e}]"

    def format_word(self, word: Word) -> str:
        return " ".join(self.format_letter(l) for l in word) if word else "1"

    def parse_word(self, text: str) -> Word:
        raw = []
        for token in text.split():
            if token == "1":
                continue
            base, power = token, 1
            if "^" in token:
                base, _, exp = token.partition("^")
                try:
                    power = int(exp)
                except ValueError:
                    raise UnknownGenerator(f"bad exponent in token {token!r}")
            index = None
            if "[" in base:
                name, _, rest = base.partition("[")
                body = rest[:-1]
                if not (rest.endswith("]")
                        and body.removeprefix("-").isdecimal()):
                    raise UnknownGenerator(f"bad element token {token!r}")
                index = int(body)
                base = name
            if base not in self.names:
                raise UnknownGenerator(f"unknown generator {base!r}")
            i = self.names.index(base)
            factor = self.factors[i]
            if index is None:
                index = factor.generator()
            elif not 0 <= index < factor.order:
                raise UnknownGenerator(
                    f"factor {base!r} has no element {index} in {token!r}")
            element = factor.power(index, power)
            raw.append((i, element))
        return self.nf(raw)

    def move_index(self) -> "MoveIndex":
        """The peak-reduction moves ``(j, x, x^-1, S)`` of W and where a
        round's counts go, built on first call and then kept unchanged.
        ``candidates`` lists them by j, x, then S as ``combinations`` lists
        the positions of S among the other factors; an id is a place there.
        ``seams[f, a]`` lists the moves with f in S, a not in S and a != j
        (a = -1: a word end), and ``letters[j, e, l, r]`` those with
        x = e^-1, l in S and r not, or x = e, r in S and l not.  Each list
        joins blocks ``block[j, x, f, a]``, the moves (j, x, S) with f in
        S and a not, which shift ``ranks[p, q]``: the ranks of the sets
        with position p and not q, where position -1, ``ends[-1]``, is the
        word end and in no set."""
        if self._moves is not None:
            return self._moves
        n, factors = self.n, self.factors
        subsets = [S for r in range(1, n)
                   for S in itertools.combinations(range(n - 1), r)]
        M = len(subsets)
        ranks = {(p, q): [k for k, S in enumerate(subsets)
                          if p in S and q not in S]
                 for p in range(-1, n - 1) for q in range(-1, n - 1)}
        candidates, block = [], {}
        for j, factor in enumerate(factors):
            ends = [k for k in range(n) if k != j] + [-1]
            start = len(candidates) - M
            sets = [frozenset([ends[p] for p in S]) for S in subsets]
            candidates += [(j, x, factor.inverses[x], S)
                           for x in factor.nontrivial() for S in sets]
            for (p, q), pattern in ranks.items():
                for x in factor.nontrivial():
                    block[j, x, ends[p], ends[q]] = tuple(
                        map((start + x * M).__add__, pattern))
        seams = {(f, a): tuple(itertools.chain.from_iterable(
                     block[j, x, f, a] for j in range(n) if j not in (f, a)
                     for x in factors[j].nontrivial()))
                 for f in range(n) for a in range(-1, n) if a != f}
        letters = {(j, e, l, r): block[j, factor.inverses[e], l, r]
                   + block[j, e, r, l] for j, factor in enumerate(factors)
                   for e in factor.nontrivial() for l in range(-1, n)
                   for r in range(-1, n) if j not in (l, r)}
        self._moves = MoveIndex(tuple(candidates), seams, letters)
        return self._moves


MoveIndex = NamedTuple("MoveIndex", [("candidates", tuple),
                                     ("seams", dict), ("letters", dict)])


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KuroshData:
    """How an automorphism moves the factors around.

    ``pi`` is the factor permutation, ``isos[i]`` the element mapping
    A_i -> A_pi(i), and ``conjugators[i]`` the word u_i with
    Phi(a) = u_i^-1 . isos[i](a) . u_i for every a in A_i.
    """

    pi: tuple
    isos: tuple
    conjugators: tuple


def _image_word(W: FreeProduct, word) -> Word:
    """The normal form of a word that enters an automorphism from outside,
    refused with NotAutomorphism unless every letter is a pair of ints
    naming a factor of W and an element of that factor.  ``FreeProduct.nf``
    trusts its letters, so the check runs here, once per input word."""
    word = tuple(word)
    factors = W.factors
    for letter in word:
        if not (type(letter) is tuple and len(letter) == 2
                and type(letter[0]) is int and type(letter[1]) is int
                and 0 <= letter[0] < len(factors)
                and 0 <= letter[1] < factors[letter[0]].order):
            raise NotAutomorphism(f"{letter!r} is not a letter of {W!r}")
    return W.nf(word)


class Automorphism:
    """An endomorphism of W given by exact images, usually an automorphism.

    ``images[i]`` lists the image word of every element of factor i, index
    0 mapping to the empty word.  Each letter of an image is checked to
    lie in W and each image is brought to normal form, except that the
    constructors below pass ``_in_w`` for words they built in normal form
    from letters already checked, which are taken as given.
    """

    def __init__(self, W: FreeProduct, images, *, _in_w: bool = False):
        self.W = W
        canon = []
        if len(images) != W.n:
            raise NotAutomorphism("one image family per factor required")
        for i, factor in enumerate(W.factors):
            fam = (images[i] if _in_w
                   else [_image_word(W, w) for w in images[i]])
            if len(fam) != factor.order or fam[0] != ():
                raise NotAutomorphism(
                    f"factor {W.names[i]} needs images for all elements")
            # Pairs with the identity hold once fam[0] is the empty word.  A
            # pair whose product maps to it is tested as fam[b] == fam[a]^-1,
            # exactly: normal forms are unique, and inverting keeps them normal.
            for a in factor.nontrivial():
                for b in factor.nontrivial():
                    ab = fam[factor.cayley[a][b]]
                    if (fam[b] != W.inv(fam[a]) if not ab
                            else W.mul(fam[a], fam[b]) != ab):
                        raise NotAutomorphism(f"images on factor {W.names[i]} "
                                              "are not a homomorphism")
            canon.append(tuple(fam))
        self.images = tuple(canon)
        self._inverse = None
        self._kurosh = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def identity(cls, W: FreeProduct) -> "Automorphism":
        return cls(W, [[((i, e),) if e else () for e in factor.elements()]
                       for i, factor in enumerate(W.factors)], _in_w=True)

    @classmethod
    def from_gen_images(cls, W: FreeProduct, gen_images) -> "Automorphism":
        """Build from one image word per factor generator.

        Every factor must be cyclic for this constructor; use
        ``from_element_images`` otherwise.
        """
        if len(gen_images) != W.n:
            raise NotAutomorphism("one generator image per factor required")
        images = []
        for i, factor in enumerate(W.factors):
            img = _image_word(W, gen_images[i])
            if not factor.is_cyclic():
                raise NotAutomorphism(
                    f"factor {W.names[i]} is not cyclic; give element images"
                )
            gen = factor.generator()
            fam = [()] * factor.order
            x, w = gen, img
            for _ in range(2, factor.order):
                fam[x] = w
                x, w = factor.mul(x, gen), W.mul(w, img)
            fam[x] = w
            images.append(fam)
        return cls(W, images, _in_w=True)

    @classmethod
    def from_element_images(cls, W: FreeProduct, maps) -> "Automorphism":
        """Build from per-factor dictionaries element -> image word: one
        dictionary per factor, keyed by nontrivial elements of it, and a
        missing element maps to the empty word."""
        if len(maps) != W.n:
            raise NotAutomorphism("one element-image map per factor required")
        for i, factor in enumerate(W.factors):
            for e in maps[i]:
                if type(e) is not int or not 0 < e < factor.order:
                    raise NotAutomorphism(
                        f"{e!r} is not a nontrivial element of factor "
                        f"{W.names[i]}")
        return cls(W, [[maps[i].get(e, ()) if e else ()
                        for e in factor.elements()]
                       for i, factor in enumerate(W.factors)])

    @classmethod
    def inner(cls, W: FreeProduct, by: Word) -> "Automorphism":
        """Conjugation x -> by^-1 . x . by."""
        by = _image_word(W, by)
        return cls(W, [[W.conj(((i, e),), by) if e else ()
                        for e in factor.elements()]
                       for i, factor in enumerate(W.factors)], _in_w=True)

    # -- application ---------------------------------------------------------

    def apply(self, word: Word) -> Word:
        images = self.images
        return self.W.nf([l for i, e in word for l in images[i][e]])

    __call__ = apply

    def compose(self, other: "Automorphism") -> "Automorphism":
        """self after other: (self.compose(other))(w) = self(other(w))."""
        if self.W != other.W:
            raise NotAutomorphism("composition needs a common presentation")
        images = [
            [self.apply(w) for w in fam] for fam in other.images
        ]
        return Automorphism(self.W, images, _in_w=True)

    def power(self, k: int) -> "Automorphism":
        if type(k) is not int:
            raise ValueError(f"power needs an int exponent: {k!r}")
        if k < 0:
            return self.inverse().power(-k)
        out = Automorphism.identity(self.W)
        base = self
        while k:
            if k & 1:
                out = base.compose(out)
            k >>= 1
            base = base.compose(base) if k else base
        return out

    def is_identity(self) -> bool:
        return self == Automorphism.identity(self.W)

    def __eq__(self, other):
        return (
            isinstance(other, Automorphism)
            and self.W == other.W
            and self.images == other.images
        )

    def __hash__(self):
        return hash((self.W, self.images))

    def __repr__(self):
        pieces = []
        for i, factor in enumerate(self.W.factors):
            gen = factor.generator()
            pieces.append(
                f"{self.W.format_letter((i, gen))} -> "
                f"{self.W.format_word(self.images[i][gen])}"
            )
        return "Automorphism(" + ", ".join(pieces) + ")"

    # -- Kurosh structure ----------------------------------------------------

    def kurosh(self) -> KuroshData:
        """Factor permutation, factor isomorphisms, and conjugators.

        Raises NotAutomorphism when some factor image is not a conjugate of
        a factor, when the induced factor maps are not isomorphisms, or when
        the factor assignment is not a permutation.

        Images are read by slices, exactly: normal forms are unique, and a
        product that reduces is shorter than its factors together.  So the
        image w0 of element 1 is u^-1 x u for a letter x exactly when its
        first half inverts its last half u, and element e maps to the
        letter y of x's factor exactly when its image is u^-1 y u.
        """
        if self._kurosh is not None:
            return self._kurosh
        W = self.W
        pi, isos, conjugators = [], [], []
        for i, factor in enumerate(W.factors):
            fam = self.images[i]
            w0 = fam[1]
            if len(w0) % 2 == 0:
                raise NotAutomorphism(
                    f"image of {W.format_letter((i, 1))} cannot be a conjugate of a letter"
                )
            m = len(w0) // 2
            head, u = w0[:m], w0[m + 1:]
            if head != W.inv(u):
                raise NotAutomorphism(
                    f"image of {W.format_letter((i, 1))} is not a conjugated letter"
                )
            j = w0[m][0]
            target = W.factors[j]
            if target.order != factor.order:
                raise NotAutomorphism(
                    f"factor {W.names[i]} maps into a factor of different order"
                )
            mapping = [0] * factor.order
            for e in factor.nontrivial():
                img = fam[e]
                if (len(img) != len(w0) or img[m][0] != j
                        or img[:m] != head or img[m + 1:] != u):
                    raise NotAutomorphism(
                        f"factor {W.names[i]} does not map into a single factor"
                    )
                mapping[e] = img[m][1]
            if not is_iso(factor, target, tuple(mapping)):
                raise NotAutomorphism(
                    f"factor map on {W.names[i]} is not an isomorphism"
                )
            pi.append(j)
            isos.append(tuple(mapping))
            conjugators.append(u)
        if sorted(pi) != list(range(W.n)):
            raise NotAutomorphism("factor assignment is not a permutation")
        self._kurosh = KuroshData(tuple(pi), tuple(isos), tuple(conjugators))
        return self._kurosh

    # -- outer classes -------------------------------------------------------

    def outer_conjugator(self, other: "Automorphism") -> Optional[Word]:
        """A word w with other(x) = w^-1 . self(x) . w for all x, or None.

        Found from the Kurosh data on factor 0 alone.  Write self(a) =
        u^-1 rho(a) u and other(a) = u'^-1 rho'(a) u', both rho and rho'
        landing in factor pi(0).  If other = inner(w) after self, then
        g = u w u'^-1 conjugates rho(A_0) onto rho'(A_0) inside A_pi(0).
        The normaliser of a nontrivial free factor is that factor, so g is
        an element s of A_pi(0) and w = u^-1 s u'.  Trying those |A_pi(0)|
        candidates is therefore complete.
        """
        W = self.W
        if other.W != W:
            return None
        try:
            mine, theirs = self.kurosh(), other.kurosh()
        except NotAutomorphism:
            return None
        if mine.pi != theirs.pi:
            return None
        u, u2 = mine.conjugators[0], theirs.conjugators[0]
        j = mine.pi[0]
        for s in W.factors[j].elements():
            w = W.mul(W.inv(u), ((j, s),) if s else (), u2)
            # other == inner(w) after self, compared image by image
            if all(W.conj(x, w) == y
                   for xs, ys in zip(self.images, other.images)
                   for x, y in zip(xs, ys)):
                return w
        return None

    def outer_equal(self, other: "Automorphism") -> bool:
        return self.outer_conjugator(other) is not None

    # -- inversion -----------------------------------------------------------

    def inverse(self) -> "Automorphism":
        """The inverse automorphism, found exactly by peak reduction (see
        ``_peak_reduced_inverse``).  Raises NotInvertible when the map is
        not surjective or when the result does not verify.  The inverse is
        cached on self only, so the pair forms no reference cycle.
        """
        if self._inverse is not None:
            return self._inverse
        inv = self._peak_reduced_inverse()
        if not _mutually_inverse(self, inv):
            raise NotInvertible("candidate inverse failed verification")
        self._inverse = inv
        return inv

    def _peak_reduced_inverse(self) -> "Automorphism":
        """Inversion by peak reduction over multiple partial conjugations
        (Collins-Zieschang, Math. Z. 185 (1984); Gilbert, Proc. LMS 54
        (1987)).

        A move ``(j, x, x^-1, S)`` conjugates every factor in a set S by one
        element x of a factor j outside S.  Each round applies the move that
        most shortens the generator images of ``moves after self``, the
        first such move in candidate order, and the same move to the images
        of ``moves``.  When the Kurosh conjugators are all empty the reduced
        map is a factor permutation with isomorphisms; its letter-by-letter
        inverse after ``moves`` is the inverse of self.  Raises
        NotInvertible when no move shortens the images before that, which
        happens exactly when self is not surjective.

        A round scores every move from one scan of the generator images and
        builds no word; only the chosen move rebuilds the images.  The scan
        counts each letter with the factors of its two neighbours, and
        ``_seam_gains`` adds the counts up through W's move index, which the
        first round on W builds.  That is enough because a move only puts
        letters of factor j into the gaps between letters: each S-letter l
        becomes x^-1 l x, so a gap between two S-letters receives x x^-1 and
        keeps nothing, a gap with S on one side only (a word end counts as
        non-S) receives one j-letter, and that letter either stands alone, one
        letter longer, or merges into the j-letter y on the other side.  Such a
        y absorbs x on its left, x^-1 on its right, or both, as x y x^-1, which
        is never trivial; it vanishes exactly when it absorbs from one side
        alone and cancels, and then its other neighbour is neither in S nor in
        factor j, so nothing further cancels.  The gains are exact, so the
        round picks the first move of largest gain in candidate order.
        """
        W = self.W
        try:
            self.kurosh()
        except NotAutomorphism as exc:
            raise NotInvertible(str(exc)) from None

        def conjugated(word, j, x, x_inv, S):
            pre, post = (j, x_inv), (j, x)
            raw = []
            for l in word:
                if l[0] in S:
                    raw += pre, l, post
                else:
                    raw.append(l)
            return W.nf(raw)

        reduced = self.images
        moves = Automorphism.identity(W).images
        while any(len(fam[1]) > 1 for fam in reduced):
            index = W.move_index()
            gains = _seam_gains([fam[1] for fam in reduced], index)
            best = max(gains)
            if best <= 0:
                raise NotInvertible("no move shortens the images: "
                                    "the map is not surjective")
            move = index.candidates[gains.index(best)]
            reduced = [[conjugated(w, *move) if w else w for w in fam]
                       for fam in reduced]
            moves = [[conjugated(w, *move) if w else w for w in fam]
                     for fam in moves]
        back = {fam[e][0]: (i, e) for i, fam in enumerate(reduced)
                for e in range(1, len(fam))}
        return Automorphism(W, [
            [tuple([back[l] for l in w]) for w in fam] for fam in moves],
            _in_w=True)


def _seam_gains(words, index: MoveIndex) -> list:
    """How much shorter the normal forms of ``words`` get in all, under
    each move of ``index.candidates``, by the seam rule of
    ``Automorphism._peak_reduced_inverse``.  One scan counts every letter
    with the factors of its two neighbours (-1 for a word end) and every
    seam by the factors it joins.  A letter count is added to the gains
    of the moves that ``index.letters`` lists for it, each shortened by
    one per letter, and a seam count taken off those ``index.seams`` lists."""
    letters = Counter()
    for word in words:
        factors = [-1, *(f for f, _ in word), -1]
        letters.update(zip(word, factors, factors[2:]))
    seams = Counter()  # (factor of a letter, factor of a neighbour)
    gains = [0] * len(index.candidates)
    for ((f, e), left, right), count in letters.items():
        seams[f, left] += count
        seams[f, right] += count
        for m in index.letters[f, e, left, right]:
            gains[m] += count
    for key, count in seams.items():
        for m in index.seams[key]:
            gains[m] -= count
    return gains


def _mutually_inverse(phi: Automorphism, psi: Automorphism) -> bool:
    return all(phi.apply(psi.images[i][e]) == ((i, e),)
               and psi.apply(phi.images[i][e]) == ((i, e),)
               for i, e in phi.W.letters())
