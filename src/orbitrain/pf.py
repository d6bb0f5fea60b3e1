"""Certified spectral data for nonnegative integer matrices.

Everything here is exact: matrices are tuples of integer rows, and no
floating point decides anything.  The growth rate of an irreducible block
is its Perron-Frobenius eigenvalue, the largest real root of the
characteristic polynomial.

- ``reachable`` is the one closure of the transition digraph: the
  strongly connected split and the invariant forests read its table.  A
  ``TransitionMatrix`` keeps its split for every reader of the matrix.
- ``pf_data`` brackets the rate by Collatz-Wielandt iteration on positive
  integer vectors: min (Mv)_i / v_i and max (Mv)_i / v_i bound the rate for
  every positive v, so the bracket is certified whatever v the iteration
  reaches.  ``PFData.refined`` narrows a coarse bracket by walking again
  to the finer width, which gives exactly the finer bracket.  The first
  bracket, the least and largest row sums, is exact at 1 for the one
  kind of block of rate 1, a transitive permutation.
- Sturm sign counts and zero tests evaluate d^deg p(n/d) by integer Horner,
  and bisection keeps its endpoints over one power-of-two denominator.
  A count skips zeros, so it is right on endpoints that are roots.
- The Sturm isolation of the rate is seeded from the certified bracket,
  widened below by its own width, and bisected until it holds one root.
- The characteristic polynomial comes from one division-free routine,
  Berkowitz's; row 0 of the adjugate of xI - M is derived from it and
  the Krylov rows e_0 M^j.
- ``PFData._sign_at`` is the one exact loop past the brackets: the sign
  of an integer polynomial at the rate, by interval bounds, then one
  Sturm count of a gcd for a zero, then refinement.
- ``pf_compare`` decides by disjoint brackets, then by equal
  characteristic polynomials once their factors x^k are removed, then by
  narrowed brackets; otherwise by one or two signs at x's rate of
  polynomials read off y's bracket or isolation.
- ``compare_lengths`` orders two edge lengths by a domination certificate,
  the sign of (M + I)^k (e_i - e_j), and falls back on row 0 of the
  adjugate, which at the rate is a positive multiple of the lengths.
"""

from fractions import Fraction
from math import gcd as int_gcd, lcm
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import NotIrreducible

Matrix = Tuple[Tuple[int, ...], ...]

DEFAULT_TOL = Fraction(1, 10**9)


# -- matrix basics ------------------------------------------------------------


def as_matrix(rows) -> Matrix:
    """Square rows of nonnegative ints; 1.5 or "2" raises ValueError."""
    M = tuple(map(tuple, rows))
    n = len(M)
    for row in M:
        if len(row) != n:
            raise ValueError("matrix must be square")
        if not all(isinstance(x, int) and x >= 0 for x in row):
            raise ValueError("matrix entries must be nonnegative ints")
    return M


def reachable(M: Matrix) -> List[int]:
    """For each index j, the bitmask of the indices that the iterated
    images of edge j + 1 cross, j itself included: bit i is set when the
    transition digraph, with an arc j -> i whenever the image of j
    crosses i, has a walk from j to i.  Closed by Warshall's algorithm."""
    reach = [sum(1 << i for i, k in enumerate(col) if k) | 1 << j
             for j, col in enumerate(zip(*M))]
    for k in range(len(reach)):
        bit, through = 1 << k, reach[k]
        reach = [r | through if r & bit else r for r in reach]
    return reach


def scc_components(M: Matrix) -> Tuple[Tuple[int, ...], ...]:
    """Strongly connected components, listed sinks first: i and j share
    one when their rows of ``reachable``'s table are equal.  A component
    reaching another reaches more components, so listing them by that
    count, then by least index, puts each after every component it maps
    into, the order a filtration wants."""
    reach = reachable(M)
    comps: Dict[int, List[int]] = {}
    for i, r in enumerate(reach):
        comps.setdefault(r, []).append(i)
    heads = sum(1 << c[0] for c in comps.values())
    return tuple(tuple(comps[r]) for r in sorted(
        comps, key=lambda r: (r & heads).bit_count()))


class TransitionMatrix:
    """Edge-crossing counts: entry (i, j) counts how often the image of
    edge j + 1 crosses edge i + 1, in either direction, so edge e is row
    and column e - 1.

    A representative builds its matrix once and never mutates it, so the
    strongly connected split is computed on first use and kept on the
    instance: the filtration, the forest search's shortcut, the
    valence-two choice and ``pf_data``'s guard all read that one split.
    The forest search itself reads ``reachable``'s table of the entries.
    """

    __slots__ = ("entries", "_components")

    def __init__(self, entries: Matrix):
        self.entries = entries
        self._components: Optional[Tuple[Tuple[int, ...], ...]] = None

    def components(self) -> Tuple[Tuple[int, ...], ...]:
        """``scc_components`` of the entries, computed once."""
        if self._components is None:
            self._components = scc_components(self.entries)
        return self._components


def is_irreducible(M) -> bool:
    """Strong connectivity of the transition digraph; a lone vertex must
    carry a loop, so the 1x1 zero matrix is reducible.  A
    ``TransitionMatrix`` answers from its cached split; plain rows are
    split here."""
    if not isinstance(M, TransitionMatrix):
        M = TransitionMatrix(M)
    if len(M.entries) == 1:
        return M.entries[0][0] > 0
    return len(M.components()) == 1


# -- integer polynomials -------------------------------------------------------
# coefficient tuples run from the leading term down; all arithmetic exact


def _berkowitz(M: Matrix) -> Tuple[int, ...]:
    """det(xI - M), leading first, by Berkowitz's division-free
    recursion: bordering the leading r x r block A with column C, row R
    and corner a multiplies the polynomial so far by the lower triangular
    Toeplitz matrix with first column 1, -a, -R C, -R A C, ...,
    -R A^(r-1) C."""
    p = [1]
    for r, R in enumerate(M):
        # the products stop at len(v) = r, which cuts M's rows to A and R
        v = [row[r] for row in M[:r]]
        t = [1, -R[r]]
        for k in range(r):
            t.append(-sum(map(mul, R, v)))
            if k < r - 1:
                v = [sum(map(mul, row, v)) for row in M[:r]]
        p = [sum(map(mul, t[i::-1], p)) for i in range(r + 2)]
    return tuple(p)


def _adjugate_row(M: Matrix, p: Sequence[int]) -> List[List[int]]:
    """Row 0 of each B_k in adj(xI - M) = sum B_k x^(n-1-k), leading
    first, from M's characteristic polynomial p: B_k = p_0 M^k + ... +
    p_k I, so that row is the same sum over the Krylov rows e_0 M^j."""
    n = len(M)
    cols = tuple(zip(*M))
    krylov = [[1] + [0] * (n - 1)]
    for _ in range(n - 1):
        krylov.append([sum(map(mul, krylov[-1], col)) for col in cols])
    return [[sum(p[t] * krylov[k - t][e] for t in range(k + 1))
             for e in range(n)] for k in range(n)]


def _nonzero_part(p: Sequence[int]) -> Tuple[int, ...]:
    """p with its factor x^k removed."""
    k = len(p)
    while k > 1 and p[k - 1] == 0:
        k -= 1
    return tuple(p[:k])


def _scaled_values(polys, n: int, d: int) -> List[int]:
    """d^deg(p) p(n/d) for each integer polynomial p, by integer Horner;
    polys[0] has the highest degree.  For d > 0 each value has the sign of
    p(n/d)."""
    dpow = [1]
    for _ in range(len(polys[0]) - 1):
        dpow.append(dpow[-1] * d)
    out = []
    for p in polys:
        acc = p[0]
        for i in range(1, len(p)):
            acc = acc * n + p[i] * dpow[i]
        out.append(acc)
    return out


def poly_sign(p: Sequence[int], x: Fraction) -> int:
    """The sign of p(x) for an integer polynomial and a rational x, from
    integer arithmetic alone."""
    v = _scaled_values((p,), x.numerator, x.denominator)[0]
    return (v > 0) - (v < 0)


def poly_derive(p: Sequence) -> Tuple:
    n = len(p) - 1
    if n <= 0:
        return (0,)
    return tuple(c * (n - i) for i, c in enumerate(p[:-1]))


def _poly_trim(p):
    p = list(p)
    while len(p) > 1 and p[0] == 0:
        p.pop(0)
    return p


def _pseudo_divmod(a, b):
    """Integer q and r with c·a = q·b + r, deg r < deg b and c a positive
    power of |lc(b)|: the pseudo-division, with its sign made positive so
    that q and r are positive multiples of the rational quotient and
    remainder."""
    a, b = _poly_trim(a), _poly_trim(b)
    if not any(b):
        raise ZeroDivisionError("polynomial division by zero")
    lead, m = b[0], len(b)
    steps = len(a) - m + 1
    q = []
    for _ in range(steps):
        f = a[0]
        q = [c * lead for c in q]
        q.append(f)
        a = ([lead * x - f * y for x, y in zip(a[1:m], b[1:])]
             + [lead * x for x in a[m:]])
    q, a = q or [0], a or [0]
    if lead < 0 and steps % 2:
        q, a = [-c for c in q], [-c for c in a]
    return q, a


def _primitive(p) -> Tuple[int, ...]:
    """Divide an integer coefficient list by its content, sign kept."""
    p = _poly_trim(p)
    g = int_gcd(*p)
    if g == 0:
        return (0,)
    return tuple(c // g for c in p)


def poly_gcd(a: Sequence[int], b: Sequence[int]) -> Tuple[int, ...]:
    a, b = _poly_trim(a), _poly_trim(b)
    while any(b):
        _, r = _pseudo_divmod(a, b)
        a, b = b, _primitive(r)
    g = _primitive(a)
    return g if g[0] > 0 else tuple(-c for c in g)


def squarefree_part(p: Sequence[int]) -> Tuple[int, ...]:
    g = poly_gcd(p, poly_derive(p))
    if len(g) == 1:
        return _primitive(p)
    q, _ = _pseudo_divmod(p, g)
    return _primitive(q)


def sturm_chain(p: Sequence[int]) -> Tuple[Tuple[int, ...], ...]:
    p0 = squarefree_part(p)
    chain = [p0]
    if len(p0) > 1:
        chain.append(_primitive(poly_derive(p0)))
        while len(chain[-1]) > 1:
            _, r = _pseudo_divmod(chain[-2], chain[-1])
            if not any(r):
                break
            chain.append(tuple(-c for c in _primitive(r)))
    return tuple(chain)


def _sign_changes(values: Sequence[int]) -> int:
    """Sign changes along a sequence, zeros skipped."""
    changes, prev = 0, 0
    for v in values:
        if v:
            if prev and (v > 0) != (prev > 0):
                changes += 1
            prev = v
    return changes


def _changes_at(chain, x: Fraction) -> int:
    return _sign_changes(_scaled_values(chain, x.numerator, x.denominator))


def count_distinct_roots(chain, a: Fraction, b: Fraction) -> int:
    """Distinct real roots of chain[0] in (a, b].  Zeros are skipped, so
    the count is right when a or b is a root too: just right of a root
    the chain's first two terms agree in sign, just left of it they
    differ."""
    return _changes_at(chain, a) - _changes_at(chain, b)


class Isolation:
    """The largest real root of an integer polynomial, pinned down:
    ``(lo, hi]`` contains exactly one distinct root of ``chain[0]``, the
    largest, and ``hi`` may be that root."""

    __slots__ = ("chain", "lo", "hi")

    def __init__(self, chain, lo, hi):
        self.chain = chain
        self.lo = lo
        self.hi = hi

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def refine(self, tol: Fraction) -> "Isolation":
        """Bisect until the width is at most tol, keeping the upper half
        whenever it holds a root, so a midpoint on the root becomes
        ``hi``.  The endpoints are kept as integers a/D, b/D over one
        denominator, so every step is integer arithmetic; a step doubles
        D."""
        chain, lo, hi = self.chain, self.lo, self.hi
        D = lcm(lo.denominator, hi.denominator)
        a = lo.numerator * (D // lo.denominator)
        b = hi.numerator * (D // hi.denominator)
        at_hi = _sign_changes(_scaled_values(chain, b, D))
        while (b - a) * tol.denominator > tol.numerator * D:
            m = a + b
            a, b, D = 2 * a, 2 * b, 2 * D
            at_mid = _sign_changes(_scaled_values(chain, m, D))
            if at_mid > at_hi:
                a = m
            else:
                b, at_hi = m, at_mid
        return Isolation(chain, Fraction(a, D), Fraction(b, D))


# -- certified PF data ----------------------------------------------------------


class PFData:
    """Certified bounds for the growth rate of an irreducible block.

    ``[lower, upper]`` contains the growth rate.  The bracket only ever
    narrows, in place, so it stays certified; ``refined`` is the one
    routine that narrows it.  The characteristic polynomial, row 0 of the
    adjugate (from the polynomial) and the Sturm isolation are derived on
    first use and kept on the instance.
    """

    __slots__ = ("matrix", "lower", "upper", "_iso", "_poly", "_adjugate")

    def __init__(self, matrix: Matrix, lower: Fraction, upper: Fraction):
        self.matrix = matrix
        self.lower = Fraction(lower)
        self.upper = Fraction(upper)
        self._iso: Optional[Isolation] = None
        self._poly: Optional[Tuple[int, ...]] = None
        self._adjugate: Optional[List[List[int]]] = None

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower

    @property
    def exact(self) -> Optional[Fraction]:
        return self.lower if self.lower == self.upper else None

    @property
    def is_one(self) -> bool:
        """Whether the rate is 1.  An irreducible integer block has rate
        at least 1, and 1 only for a transitive permutation, whose row
        sums are all 1: ``pf_data``'s first bracket is already [1, 1]."""
        return self.upper == 1

    def poly(self) -> Tuple[int, ...]:
        """The characteristic polynomial, leading first."""
        if self._poly is None:
            self._poly = _berkowitz(self.matrix)
        return self._poly

    def isolation(self) -> Isolation:
        """The Sturm isolation of the growth rate; an exact bracket, which
        needs none, raises ``ValueError``.  The rate lies in
        (lower - width, upper] and no root lies above it, so bisection
        keeps the upper half that holds a root until one root is left;
        the isolation is seeded from the bracket as it stands at the first
        call."""
        if self.width == 0:
            raise ValueError("an exact bracket needs no isolation")
        if self._iso is None:
            iso = Isolation(sturm_chain(self.poly()),
                            self.lower - self.width, self.upper)
            while count_distinct_roots(iso.chain, iso.lo, iso.hi) > 1:
                iso = iso.refine(iso.width / 2)
            self._iso = iso
        return self._iso

    def refined(self, tol: Fraction) -> "PFData":
        """Narrow the bracket in place to width at most tol, a positive
        ``int`` or ``Fraction`` (anything else raises ``ValueError``), and
        return this data.

        The Collatz-Wielandt walk runs from the all-ones vector to tol;
        when its rounds run out short of tol, the seeded Sturm isolation
        bisects the rest.  The walk stops at tol on the one sequence of
        brackets it always takes, and bisection halves the same interval
        whatever width it stops at, so data narrowed from a coarse bracket
        ends with the bracket that ``pf_data`` gives at tol directly.
        """
        if not isinstance(tol, (int, Fraction)) or tol <= 0:
            raise ValueError(f"tol must be a positive int or Fraction: {tol!r}")
        if self.width > tol:
            lo, hi = _collatz_wielandt(self.matrix, tol)
            self.lower, self.upper = max(lo, self.lower), min(hi, self.upper)
        if self.width > tol:
            self._iso = self.isolation().refine(tol)
            self.lower = max(self._iso.lo, self.lower)
            self.upper = min(self._iso.hi, self.upper)
        return self

    def _sign_at(self, q: Sequence[int]) -> int:
        """The sign of q(rate) for an integer polynomial q, decided
        exactly: the one refinement loop past the brackets.

        With q = P - N, both parts of nonnegative coefficients, q(rate)
        lies in [P(lo) - N(hi), P(hi) - N(lo)] on a bracket 0 <= lo <= hi.
        While that holds 0 the isolation is refined.  This ends: the bound
        shrinks to q(rate), and q(rate) = 0 exactly when gcd(q, charpoly)
        has a root in the isolation, which one Sturm count finds, since
        the rate is the isolation's one root.  An exact bracket is the
        rate, and one sign test decides.
        """
        parts = ([max(c, 0) for c in q], [max(-c, 0) for c in q])
        lo, hi = max(self.lower, 0), self.upper
        iso = None
        while lo < hi:
            D = lcm(lo.denominator, hi.denominator)
            p_lo, n_lo = _scaled_values(parts, int(lo * D), D)
            p_hi, n_hi = _scaled_values(parts, int(hi * D), D)
            if p_lo > n_hi:
                return 1
            if p_hi < n_lo:
                return -1
            if iso is None:
                iso = self.isolation().refine(DEFAULT_TOL)
                shared = sturm_chain(poly_gcd(q, self.poly()))
                if (len(shared[0]) > 1
                        and count_distinct_roots(shared, iso.lo, iso.hi)):
                    return 0
            else:
                iso = iso.refine(iso.width / 16)
            lo, hi = max(lo, iso.lo), min(hi, iso.hi)
        return poly_sign(q, lo)

    def _compare_by_adjugate(self, i: int, j: int) -> int:
        """-1, 0 or 1 by the lengths w_i and w_j, decided exactly; the
        fallback of ``compare_lengths``.

        The lengths are the positive left eigenvector, w M = rate w, and
        row 0 of adj(rate I - M) is a positive multiple of w, so w_i - w_j
        has the sign of q(rate), q the difference of entries i and j of
        that row, derived once by ``_adjugate_row``.
        """
        if self._adjugate is None:
            self._adjugate = _adjugate_row(self.matrix, self.poly())
        q = [row[i] - row[j] for row in self._adjugate]
        return self._sign_at(q) if any(q) else 0

    def __repr__(self):
        if self.is_one:
            return "PFData(growth 1)"
        return f"PFData({float(self.lower):.10f}..{float(self.upper):.10f})"


def _collatz_wielandt(M: Matrix, tol: Fraction) -> Tuple[Fraction, Fraction]:
    """A certified bracket of the growth rate of an irreducible M, of
    width at most tol unless 120 rounds run out first.

    For every positive vector v, min_i (Mv)_i / v_i <= rate <=
    max_i (Mv)_i / v_i.  Iterating v <- (M + I) v from the all-ones
    vector, which is primitive even when M is periodic, drives both
    ratios to the rate.  v stays a positive integer vector, shifted right
    to 64 bits more than 1/``DEFAULT_TOL`` needs; that changes which v is
    used, never the certificate.  The shift does not depend on tol, so
    the walk is one sequence of brackets whatever tol asks for, and tol
    only picks where it stops.
    """
    n = len(M)
    bits = 64 + (DEFAULT_TOL.denominator // DEFAULT_TOL.numerator).bit_length()
    rounds, v, w, lo_n, lo_d, hi_n, hi_d = 0, [1] * n, None, 0, 1, None, None
    while rounds < 120 and (
            hi_n is None or (hi_n * lo_d - lo_n * hi_d) * tol.denominator
            > tol.numerator * hi_d * lo_d):
        if w is not None:
            u = [a + b for a, b in zip(w, v)]
            shift = max(u).bit_length() - bits
            v = [(x >> shift) or 1 for x in u] if shift > 0 else u
        w = [sum(map(mul, row, v)) for row in M]
        imin = imax = 0
        for i in range(1, n):
            if w[i] * v[imin] < w[imin] * v[i]:
                imin = i
            if w[i] * v[imax] > w[imax] * v[i]:
                imax = i
        if w[imin] * lo_d > lo_n * v[imin]:
            lo_n, lo_d = w[imin], v[imin]
        if hi_n is None or w[imax] * hi_d < hi_n * v[imax]:
            hi_n, hi_d = w[imax], v[imax]
        rounds += 1
    return Fraction(lo_n, lo_d), Fraction(hi_n, hi_d)


def pf_data(M, tol: Fraction = DEFAULT_TOL) -> PFData:
    """Certified growth-rate bracket of an irreducible block, of width at
    most tol.

    M is a ``TransitionMatrix``, whose cached split is the irreducibility
    guard, or plain rows.  The bracket starts from the least and largest
    row sums, the walk's first bracket, and ``refined`` narrows it to tol.
    A coarse tol gives a cheap first bracket that ``refined`` and
    ``pf_compare`` can narrow later, to exactly the bracket a finer tol
    would have given at once.  A tol that is not a positive ``int`` or
    ``Fraction`` raises ``ValueError``.
    """
    if not isinstance(M, TransitionMatrix):
        M = TransitionMatrix(as_matrix(M))
    if not is_irreducible(M):
        raise NotIrreducible("the transition block is not irreducible")
    sums = [sum(row) for row in M.entries]
    return PFData(M.entries, min(sums), max(sums)).refined(tol)


def compare_lengths(M: Matrix, i: int, j: int) -> int:
    """-1, 0 or 1 by the lengths w_i and w_j of an irreducible M, decided
    exactly.

    The lengths are the positive left eigenvector, w M = rate w.  With
    d = e_i - e_j, M d = 0 is a tie, since w M d = rate (w_i - w_j) and the
    rate is positive.  Otherwise x = (M + I)^k d for k = 1, 2, ... has
    w x = (rate + 1)^k (w_i - w_j) with w > 0, so x = 0 is a tie and a
    nonzero x >= 0 or x <= 0 gives the sign.  M + I is primitive, so
    (M + I)^k / (rate + 1)^k tends to a positive rank-one matrix, and x is
    eventually of one sign whenever w_i != w_j.  After n steps with no
    verdict the comparison by row 0 of the adjugate decides, derived from
    the characteristic polynomial and the Krylov rows e_0 M^j: the budget
    picks which certificate decides, never the answer.
    """
    x = [row[i] - row[j] for row in M]
    if not any(x):
        return 0
    x[i] += 1
    x[j] -= 1
    for _ in range(len(M)):
        if not any(x):
            return 0
        if min(x) >= 0:
            return 1
        if max(x) <= 0:
            return -1
        x = [sum(map(mul, row, x)) + v for row, v in zip(M, x)]
    return pf_data(M)._compare_by_adjugate(i, j)


# -- exact comparison ------------------------------------------------------------


def pf_compare(x: PFData, y: PFData) -> int:
    """-1, 0, or 1 by the true growth rates, decided exactly.

    When the certified brackets overlap, equal characteristic
    polynomials, with their factors x^k removed, are a tie, and neither
    bracket is narrowed; otherwise ``refined`` narrows both to the
    brackets ``pf_data`` gives at ``DEFAULT_TOL``.  Disjoint brackets
    then decide.  Otherwise x's ``_sign_at`` decides, with no loop here:

    - equal nonzero spectra are equal rates: both blocks are irreducible,
      so each rate is positive and the largest real root of its
      characteristic polynomial, hence of that polynomial with its factor
      x^k removed, and equal nonzero parts compare blocks of different
      sizes too;
    - a bracket of y exact at e = num/den gives the sign of
      den t - num at x's rate t;
    - otherwise y's isolation (lo, hi] holds y's rate r, the only root
      of y's squarefree polynomial s above lo and a simple one, so s
      changes sign at r and nowhere else above lo.  A rate of x at most
      lo is below r; a rate t above lo has t - r of the sign of s(t)
      times that of s's leading coefficient.
    """
    if max(x.lower, y.lower) <= min(x.upper, y.upper):
        if _nonzero_part(x.poly()) == _nonzero_part(y.poly()):
            return 0
        x.refined(DEFAULT_TOL)
        y.refined(DEFAULT_TOL)
    if x.upper < y.lower:
        return -1
    if y.upper < x.lower:
        return 1
    e = y.exact
    if e is not None:
        return x._sign_at((e.denominator, -e.numerator))
    iso = y.isolation()
    if x._sign_at((iso.lo.denominator, -iso.lo.numerator)) <= 0:
        return -1
    s = iso.chain[0]
    return x._sign_at(s) if s[0] > 0 else -x._sign_at(s)
