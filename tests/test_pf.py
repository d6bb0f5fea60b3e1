"""Exact spectral layer: Sturm isolation, certified bounds, comparisons.

Two oracles check the certified intervals.  numpy's eigenvalue solver gives
the spectral radius, which for an irreducible nonnegative matrix is the
growth rate, so every interval must bracket it up to float slop.  Where
sympy is installed it is the exact oracle: sympy's own characteristic
polynomial and Sturm root counts must put the largest real root inside
every bracket, and its exact algebraic numbers decide the order of two
growth rates, equal ones included.  Frozen algebraic facts are checked
exactly through polynomial identities.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitrain.errors import NotIrreducible
from orbitrain.pf import (
    DEFAULT_TOL,
    Isolation,
    PFData,
    TransitionMatrix,
    _adjugate_row,
    _berkowitz,
    _nonzero_part,
    as_matrix,
    compare_lengths,
    count_distinct_roots,
    is_irreducible,
    pf_compare,
    pf_data,
    poly_gcd,
    poly_sign,
    reachable,
    scc_components,
    squarefree_part,
    sturm_chain,
)


def identity_matrix(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n))
                 for i in range(n))


def mat_mul(A, B):
    cols = tuple(zip(*B))
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                 for row in A)


def block(M, idx):
    """The diagonal block of ``M`` on the indices ``idx``."""
    return tuple(tuple(M[i][j] for j in idx) for i in idx)


def is_transitive_permutation(M):
    """One 1 per row and column, and the permutation is a single cycle."""
    n = len(M)
    image = [None] * n
    for i in range(n):
        if sum(M[i]) != 1:
            return False
        for j in range(n):
            if M[i][j] not in (0, 1):
                return False
            if M[i][j] == 1:
                if image[j] is not None:
                    return False
                image[j] = i
    if any(x is None for x in image):
        return False
    seen, j = 0, 0
    for _ in range(n):
        j = image[j]
        seen += 1
        if j == 0:
            break
    return seen == n and j == 0


def oracle_radius(M):
    return max(abs(z) for z in np.linalg.eigvals(np.array(M, dtype=float)))


def oracle_reachable(M, start):
    seen = {start}
    frontier = [start]
    while frontier:
        j = frontier.pop()
        for i in range(len(M)):
            if M[i][j] > 0 and i not in seen:
                seen.add(i)
                frontier.append(i)
    return seen


def irreducible_matrices(max_n=4, max_entry=3):
    """Random matrices made irreducible by forcing a full cycle."""
    def build(draw_n, rng):
        n = draw_n
        M = [[rng.randrange(max_entry + 1) for _ in range(n)]
             for _ in range(n)]
        for j in range(n):
            M[(j + 1) % n][j] = max(1, M[(j + 1) % n][j])
        return as_matrix(M)
    return build


GROWTH = as_matrix([[3, 2], [2, 1]])
# characteristic polynomial x^3 - 2x^2 - 1
COMPANION = as_matrix([[2, 0, 1], [1, 0, 0], [0, 1, 0]])


def permuted(M, rng):
    """P M P^-1 for a random permutation P: the same growth rate and
    characteristic polynomial."""
    n = len(M)
    perm = list(range(n))
    rng.shuffle(perm)
    return as_matrix([[M[perm[i]][perm[j]] for j in range(n)]
                      for i in range(n)])


def double_cover(M, rng):
    """[[A, B], [B, A]] for a random split M = A + B, or None if that is
    reducible.  Its spectrum is that of M together with that of A - B, and
    every real eigenvalue of A - B is at most the rate of M, so the growth
    rate is the same while the characteristic polynomial is not."""
    n = len(M)
    A = [[rng.randrange(x + 1) for x in row] for row in M]
    B = [[x - a for x, a in zip(row, arow)] for row, arow in zip(M, A)]
    C = as_matrix([A[i] + B[i] for i in range(n)]
                  + [B[i] + A[i] for i in range(n)])
    return C if is_irreducible(C) else None


def overlap(x, y):
    return max(x.lower, y.lower) <= min(x.upper, y.upper)


def exact_charpoly(sympy, M):
    x = sympy.Symbol("x")
    return sympy.Poly(sympy.Matrix(M).charpoly(x).as_expr(), x)


def rational(sympy, q):
    return sympy.Rational(q.numerator, q.denominator)


def exact_length_signs(sympy, M):
    """The sign of w_i - w_j for every pair of indices, where w is the
    left eigenvector of M at its largest real root: sympy's nullspace of
    M^T - rate I over the field Q(rate), and its exact zero test."""
    from sympy.polys.matrices import DomainMatrix

    n = len(M)
    rate = exact_charpoly(sympy, M).real_roots()[-1]
    K = sympy.QQ if rate.is_Rational else sympy.QQ.algebraic_field(rate)
    lam = K.from_sympy(rate)
    A = DomainMatrix([[K(M[j][i]) - (lam if i == j else K.zero)
                       for j in range(n)] for i in range(n)], (n, n), K)
    w = A.nullspace().to_list()[0]
    signs = {}
    for i in range(n):
        for j in range(n):
            d = K.quo(K.sub(w[i], w[j]), w[0])
            signs[i, j] = 0 if not d else (
                1 if K.to_sympy(d).evalf(50) > 0 else -1)
    return signs


class TestMatrixBasics:
    def test_as_matrix_rejects_ragged_and_negative(self):
        with pytest.raises(ValueError):
            as_matrix([[1, 2], [3]])
        with pytest.raises(ValueError):
            as_matrix([[1, -1], [0, 2]])
        # entries are refused, not truncated: 1.5 would give [[1, 1],
        # [1, 0]] and a bracket round the golden ratio, not about 2.244
        for rows in ([[1.5, 1], [1, 0.9]], [["2", "1"], ["1", "1"]],
                     [[Fraction(2), 1], [1, 1]]):
            with pytest.raises(ValueError):
                as_matrix(rows)
            with pytest.raises(ValueError):
                pf_data(rows)

    def test_mul(self):
        assert mat_mul(GROWTH, GROWTH) == ((13, 8), (8, 5))
        assert mat_mul(GROWTH, identity_matrix(2)) == GROWTH

    def test_submatrix_and_predicates(self):
        """A diagonal block of a reducible matrix passes the predicates
        the whole matrix fails."""
        M = as_matrix([[1, 4, 2], [0, 3, 2], [0, 2, 1]])
        assert block(M, (1, 2)) == GROWTH
        assert not is_irreducible(M)
        assert is_irreducible(block(M, (1, 2)))
        assert not is_transitive_permutation(block(M, (1, 2)))

    def test_transitive_permutations(self):
        assert is_transitive_permutation(((0, 1), (1, 0)))
        assert is_transitive_permutation(((0, 0, 1), (1, 0, 0), (0, 1, 0)))
        assert is_transitive_permutation(((1,),))
        assert not is_transitive_permutation(identity_matrix(2))
        assert not is_transitive_permutation(((0, 1), (1, 1)))


class TestComponents:
    def test_filtration_order_on_fixed_plus_growing(self):
        # one invariant edge feeding itself, two edges mixing over it
        M = as_matrix([[1, 4, 2], [0, 3, 2], [0, 2, 1]])
        assert scc_components(M) == ((0,), (1, 2))
        assert not is_irreducible(M)
        assert is_irreducible(block(M, (1, 2)))

    def test_lonely_vertex_needs_loop(self):
        assert not is_irreducible(((0,),))
        assert is_irreducible(((1,),))
        assert is_irreducible(((5,),))

    def test_upper_block_triangular_is_reducible(self):
        assert not is_irreducible(((1, 1), (0, 1)))

    def test_a_transition_matrix_splits_once(self, monkeypatch):
        """The split is computed on first use and kept: the irreducibility
        test and ``pf_data``'s guard read it without splitting again."""
        splits = []

        def spy(M):
            splits.append(M)
            return scc_components(M)

        monkeypatch.setattr("orbitrain.pf.scc_components", spy)
        M = TransitionMatrix(as_matrix([[1, 4, 2], [0, 3, 2], [0, 2, 1]]))
        assert M.components() == ((0,), (1, 2)) and not is_irreducible(M)
        G = TransitionMatrix(GROWTH)
        assert is_irreducible(G) and pf_data(G).matrix is G.entries
        assert G.components() is G.components()
        assert splits == [M.entries, G.entries]

    def test_reachable_rows_are_the_closures(self):
        """Bit i of row j is set exactly when j reaches i, j included."""
        rng = random.Random(4041)
        for _ in range(150):
            n = rng.randrange(7)
            M = as_matrix([[rng.randrange(2) for _ in range(n)]
                           for _ in range(n)])
            assert reachable(M) == [sum(1 << i for i in oracle_reachable(M, j))
                                    for j in range(n)]

    def test_components_are_listed_by_how_many_they_reach(self):
        """0 feeds the sink 1 and 2 is alone: the two sinks come first,
        by least index, although a depth-first walk from 0 would list 0
        before reaching 2."""
        M = as_matrix([[0, 0, 0], [1, 0, 0], [0, 0, 0]])
        assert scc_components(M) == ((1,), (2,), (0,))

    def test_a_full_table_is_one_component_unless_empty(self):
        assert scc_components(as_matrix([[0, 1], [1, 0]])) == ((0, 1),)
        assert scc_components(((0,),)) == ((0,),)
        assert scc_components(()) == () and not is_irreducible(())

    def test_components_partition_and_close_up(self):
        rng = random.Random(3177)
        for _ in range(150):
            n = rng.randrange(1, 7)
            M = as_matrix([[rng.randrange(2) for _ in range(n)]
                           for _ in range(n)])
            comps = scc_components(M)
            flat = sorted(i for c in comps for i in c)
            assert flat == list(range(n))
            # mutual reachability inside, none across
            for c in comps:
                for i in c:
                    reach = oracle_reachable(M, i)
                    assert set(c) <= reach
            # sinks-first: a component never reaches a later one
            seen_before = set()
            for c in comps:
                for i in c:
                    assert oracle_reachable(M, i) <= seen_before | set(c)
                seen_before |= set(c)


class TestPolynomials:
    def test_charpoly_of_growth_matrix(self):
        assert _berkowitz(GROWTH) == (1, -4, -1)

    def test_charpoly_of_companion(self):
        C = as_matrix([[2, 0, 1], [1, 0, 0], [0, 1, 0]])
        assert _berkowitz(C) == (1, -2, 0, -1)

    def test_adjugate_identity(self):
        """Row 0 of adj(xI - M) times xI - M is p(x) e_0."""
        rng = random.Random(414)
        for _ in range(60):
            n = rng.randrange(1, 5)
            M = as_matrix([[rng.randrange(4) for _ in range(n)]
                           for _ in range(n)])
            p = _berkowitz(M)
            B = _adjugate_row(M, p)
            for x in (Fraction(2), Fraction(-1, 3), Fraction(7, 2)):
                row = [sum(B[k][j] * x ** (n - 1 - k) for k in range(n))
                       for j in range(n)]
                xi_m = [[(x if i == j else 0) - M[i][j] for j in range(n)]
                        for i in range(n)]
                prod = [sum(row[k] * xi_m[k][j] for k in range(n))
                        for j in range(n)]
                px = sum(c * x ** (len(p) - 1 - d)
                         for d, c in enumerate(p))
                assert prod == [px] + [0] * (n - 1)

    def test_gcd_and_squarefree(self):
        # (x-1)^2 (x+2) = x^3 - 3x + 2
        assert squarefree_part((1, 0, -3, 2)) == (1, 1, -2)
        assert poly_gcd((1, 0, -3, 2), (1, -1)) == (1, -1)
        assert poly_gcd((1, 0, -1), (1, 0, -4)) == (1,)

    def test_root_counting(self):
        chain = sturm_chain((1, 0, -5))
        assert count_distinct_roots(chain, Fraction(0), Fraction(3)) == 1
        assert count_distinct_roots(chain, Fraction(-3), Fraction(3)) == 2
        assert count_distinct_roots(chain, Fraction(3), Fraction(4)) == 0
        # (x + 1)(x + 2)(x^2 + x + 1): the chain skips a degree, so its
        # pseudo-remainder is taken by a divisor with negative leading term
        chain = sturm_chain((1, 4, 6, 5, 2))
        assert [len(p) for p in chain] == [5, 4, 2, 1]
        assert count_distinct_roots(chain, Fraction(-11, 2), Fraction(0)) == 2

    def test_isolation_brackets_quadratic_root(self):
        # (4, 5] holds 2 + sqrt 5 alone; the other root is below 0
        iso = Isolation(sturm_chain((1, -4, -1)), Fraction(4), Fraction(5))
        iso = iso.refine(DEFAULT_TOL)
        assert (iso.lo - 2) ** 2 < 5 < (iso.hi - 2) ** 2
        assert iso.hi - iso.lo <= DEFAULT_TOL

    def test_isolation_skips_lower_rational_root(self):
        # (x - 1)(x^2 - 2): the largest real root is the irrational one.
        # The isolation reads only the polynomial, so a reducible block
        # with a hand-built bracket [1, 3/2] will do; its seed (1/2, 3/2]
        # holds both roots and one bisection leaves (1, 3/2], whose lower
        # end is the rational root and is not counted
        data = PFData(as_matrix([[1, 0, 0], [0, 0, 2], [0, 1, 0]]),
                      Fraction(1), Fraction(3, 2))
        assert data.poly() == (1, -1, -2, 2)
        iso = data.isolation()
        assert (iso.lo, iso.hi) == (1, Fraction(3, 2))
        assert count_distinct_roots(iso.chain, iso.lo, iso.hi) == 1
        iso = iso.refine(DEFAULT_TOL)
        assert iso.lo > 1 and iso.lo ** 2 < 2 < iso.hi ** 2

    def test_isolation_exact_hits(self):
        # a midpoint on the rational root becomes hi and stays there; the
        # lower root 1 of (x - 1)(x - 2) sits on lo, outside (1, 3]
        for p, lo, hi, root, tol in (((1, -3, 2), 1, 3, 2, Fraction(1, 100)),
                                     # (x - 3)(x^2 + 1), next to two
                                     # complex roots
                                     ((1, -3, 1, -3), 1, 5, 3, DEFAULT_TOL)):
            iso = Isolation(sturm_chain(p), Fraction(lo), Fraction(hi))
            iso = iso.refine(tol)
            assert iso.hi == root and 0 < iso.width <= tol
            assert count_distinct_roots(iso.chain, iso.lo, iso.hi) == 1


class TestPFData:
    def test_growth_matrix_bracket(self):
        data = pf_data(GROWTH)
        assert (data.lower - 2) ** 2 < 5 < (data.upper - 2) ** 2
        assert data.width <= DEFAULT_TOL
        assert data.exact is None and not data.is_one

    def test_growth_matrix_eigenvector(self):
        # lengths (1, 2/(root-1)); the second equals (sqrt(5) - 1)/2
        assert compare_lengths(GROWTH, 0, 1) == 1
        assert compare_lengths(GROWTH, 1, 0) == -1
        assert compare_lengths(GROWTH, 1, 1) == 0
        data = pf_data(GROWTH)
        assert data._compare_by_adjugate(0, 1) == 1
        assert data._compare_by_adjugate(1, 0) == -1
        assert data._compare_by_adjugate(1, 1) == 0

    def test_transitive_permutation_is_exact_one(self):
        data = pf_data([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
        assert data.is_one and data.exact == 1
        assert {compare_lengths(data.matrix, i, j)
                for i in range(3) for j in range(3)} == {0}
        assert {data._compare_by_adjugate(i, j)
                for i in range(3) for j in range(3)} == {0}
        # permutations of different sizes tie through the exact bracket
        two = pf_data([[0, 1], [1, 0]])
        assert two.is_one
        assert pf_compare(data, two) == pf_compare(two, data) == 0

    def test_exact_ties_with_distinct_polynomials(self):
        # row 0 of adj(xI - M) is (x - 1, 1): q = x - 2 vanishes at the
        # rate 2
        data = pf_data([[1, 1], [1, 1]])
        assert _adjugate_row(data.matrix, data.poly()) == [[1, 0], [-1, 1]]
        assert data._compare_by_adjugate(0, 1) == 0
        assert compare_lengths(data.matrix, 0, 1) == 0
        # equal columns 0 and 1 give equal lengths at the irrational rate
        # 1 + sqrt 2; q = x^2 - 2x - 1 is the rate's minimal polynomial,
        # so only the gcd with x (x^2 - 2x - 1) finds the tie
        data = pf_data([[1, 1, 1], [0, 0, 1], [1, 1, 1]])
        assert data.exact is None
        p = data.poly()
        q = [row[0] - row[1] for row in _adjugate_row(data.matrix, p)]
        assert q == [1, -2, -1] and p == (1, -2, -1, 0)
        assert data._compare_by_adjugate(0, 1) == 0
        assert (data._compare_by_adjugate(0, 2)
                == data._compare_by_adjugate(1, 2) == -1)
        assert compare_lengths(data.matrix, 0, 1) == 0
        assert (compare_lengths(data.matrix, 0, 2)
                == compare_lengths(data.matrix, 1, 2) == -1)

    def test_integer_rate_is_exact(self):
        assert pf_data([[4]]).exact == 4
        assert pf_data([[1, 1], [1, 1]]).exact == 2
        # an exact bracket has no interval (lo, hi] to isolate the rate in
        with pytest.raises(ValueError):
            pf_data([[4]]).isolation()

    def test_wide_entries_keep_the_bracket(self):
        # the eigenvector entries differ by a factor near 2^100, far more
        # than the bits the integer iteration keeps
        big = 2 ** 100
        data = pf_data([[big, 1], [1, 0]])
        p = (1, -big, -1)
        assert poly_sign(p, data.lower) <= 0 <= poly_sign(p, data.upper)
        assert data.width <= DEFAULT_TOL

    def test_reducible_inputs_rejected(self):
        with pytest.raises(NotIrreducible):
            pf_data([[0]])
        with pytest.raises(NotIrreducible):
            pf_data(identity_matrix(2))
        with pytest.raises(NotIrreducible):
            pf_data([[1, 1], [0, 1]])

    def test_tol_must_be_a_positive_int_or_fraction(self):
        # a zero width would bisect forever once the walk's rounds run
        # out, and a float has no numerator to compare against
        data = pf_data(GROWTH)
        for tol in (0, Fraction(0), Fraction(-1, 2), 0.001):
            with pytest.raises(ValueError):
                pf_data([[4, 1], [1, 0]], tol)
            with pytest.raises(ValueError):
                pf_data([[0, 1], [1, 0]], tol)
            with pytest.raises(ValueError):
                data.refined(tol)
        assert pf_data(GROWTH, 1).width <= 1

    def test_refined_narrows(self):
        data = pf_data(GROWTH)
        lower, upper = data.lower, data.upper
        finer = data.refined(Fraction(1, 10**20))
        assert finer is data and finer.width <= Fraction(1, 10**20)
        assert lower <= finer.lower <= finer.upper <= upper

    def test_a_coarse_bracket_narrows_to_the_default_one(self):
        # wide entries make the integer walk shift its vector from the
        # first rounds, and the first matrix runs out of rounds, so the
        # isolation finishes its narrowing; either way the bracket is the
        # one pf_data gives at the default width
        for M in ([[2**100, 1], [1, 0]], [[2**40, 3, 0], [1, 0, 1], [1, 1, 0]],
                  [[0, 1, 0], [0, 0, 1], [2**70, 1, 0]], GROWTH, COMPANION):
            fine = pf_data(M)
            for coarse in (Fraction(1, 64), Fraction(1, 2), Fraction(4)):
                data = pf_data(M, coarse)
                assert data.width <= coarse
                data.refined(DEFAULT_TOL)
                assert (data.lower, data.upper) == (fine.lower, fine.upper)

    def test_bracket_matches_float_oracle(self):
        rng = random.Random(90210)
        build = irreducible_matrices()
        for _ in range(120):
            M = build(rng.randrange(1, 5), rng)
            data = pf_data(M)
            rho = oracle_radius(M)
            assert float(data.lower) - 1e-6 <= rho <= float(data.upper) + 1e-6
            assert data.width <= DEFAULT_TOL

    def test_lengths_match_exact_eigenvector(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(515)
        build = irreducible_matrices()
        for _ in range(80):
            M = build(rng.randrange(2, 5), rng)
            data = pf_data(M)
            for (i, j), want in exact_length_signs(sympy, M).items():
                assert compare_lengths(M, i, j) == want
                assert data._compare_by_adjugate(i, j) == want

    def test_brackets_contain_exact_largest_root(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(6271)
        build = irreducible_matrices()
        for _ in range(40):
            M = build(rng.randrange(1, 7), rng)
            P = exact_charpoly(sympy, M)
            data = pf_data(M)
            brackets = [(data.lower, data.upper)]
            if data.exact is None:
                iso = data.isolation()
                brackets.append((iso.lo, iso.hi))
            for lo, hi in brackets:
                lo, hi = rational(sympy, lo), rational(sympy, hi)
                # a root in [lo, hi] and none above hi
                assert P.count_roots(lo, hi) >= 1
                assert P.count_roots(hi, None) == (1 if P.eval(hi) == 0
                                                   else 0)


class TestCompareLengths:
    """``compare_lengths`` decides by the sign of (M + I)^k (e_i - e_j) and
    falls back on the adjugate only when n steps give no sign."""

    @pytest.fixture
    def fallbacks(self, monkeypatch):
        """The (i, j, verdict) of every call that reaches the fallback."""
        calls = []
        adjugate = PFData._compare_by_adjugate

        def spy(data, i, j):
            out = adjugate(data, i, j)
            calls.append((i, j, out))
            return out

        monkeypatch.setattr(PFData, "_compare_by_adjugate", spy)
        return calls

    def test_a_two_cycle_ties(self, fallbacks):
        # (M + I)(e_0 - e_1) = 0 after one step, so the zero test, not the
        # sign test, must decide
        assert compare_lengths(as_matrix([[0, 1], [1, 0]]), 0, 1) == 0
        assert fallbacks == []

    def test_equal_columns_tie(self, fallbacks):
        M = as_matrix([[1, 1, 1], [0, 0, 1], [1, 1, 1]])
        assert compare_lengths(M, 0, 1) == compare_lengths(M, 1, 0) == 0
        assert fallbacks == []

    def test_a_symmetric_tie_reaches_the_fallback(self, fallbacks):
        # distinct columns, equal lengths by symmetry: (M + I) d = -d for
        # every step, never zero and never of one sign
        assert compare_lengths(as_matrix([[1, 3], [3, 1]]), 0, 1) == 0
        assert fallbacks == [(0, 1, 0)]

    def test_a_dominated_difference_decides_without_the_fallback(
            self, fallbacks):
        assert compare_lengths(GROWTH, 0, 1) == 1
        assert compare_lengths(COMPANION, 1, 0) == -1
        assert fallbacks == []


def random_block(n, rng, kind):
    """An irreducible n x n block: random, a single n-cycle plus sparse
    noise (often periodic), or a double cover (lengths tie in pairs)."""
    if kind == "periodic":
        order = list(range(n))
        rng.shuffle(order)
        M = [[0] * n for _ in range(n)]
        for k in range(n):
            M[order[(k + 1) % n]][order[k]] = 1
        for _ in range(rng.randrange(3)):
            M[rng.randrange(n)][rng.randrange(n)] += rng.randrange(1, 3)
        return as_matrix(M)
    if kind == "cover":
        half = irreducible_matrices()(max(1, n // 2), rng)
        return double_cover(half, rng) or half
    return irreducible_matrices()(n, rng)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 7), st.integers(0, 2**32 - 1),
       st.sampled_from(("random", "periodic", "cover")))
def test_compare_lengths_matches_the_adjugate(n, seed, kind):
    M = random_block(n, random.Random(seed), kind)
    data = pf_data(M)
    for i in range(len(M)):
        for j in range(len(M)):
            assert compare_lengths(M, i, j) == data._compare_by_adjugate(i, j)


class TestCompare:
    def test_trichotomy_frozen(self):
        a = pf_data(GROWTH)
        b = pf_data([[2]])
        assert pf_compare(a, b) == 1
        assert pf_compare(b, a) == -1
        assert pf_compare(a, a) == 0

    def test_equal_rates_across_different_matrices(self):
        a = pf_data(GROWTH)
        b = pf_data([[1, 2], [2, 3]])
        assert b.poly() == a.poly()
        assert pf_compare(a, b) == 0
        # distinct polynomials with one rate, the golden ratio: the tie is
        # found through the gcd, after both isolations are built
        c = pf_data([[1, 1], [1, 0]])
        d = pf_data([[0, 2, 1], [1, 0, 0], [0, 1, 0]])
        assert c.poly() != d.poly()
        assert pf_compare(c, d) == 0 and pf_compare(d, c) == 0
        assert c._iso is not None and d._iso is not None

    def test_equal_polynomials_build_no_isolation(self):
        pairs = ((GROWTH, [[1, 2], [2, 3]]),
                 (COMPANION, [[0, 1, 0], [0, 0, 1], [1, 0, 2]]))
        for M, N in pairs:
            a, b = pf_data(M), pf_data(N)
            assert a.matrix != b.matrix and a.poly() == b.poly()
            assert overlap(a, b) and a.exact is None
            assert pf_compare(a, b) == 0 and pf_compare(b, a) == 0
            assert a._iso is None and b._iso is None

    def test_equal_nonzero_spectra_of_different_sizes_build_no_isolation(
            self):
        # each larger block has the smaller one's characteristic
        # polynomial times x, like M and M + [0] but irreducible: the rates
        # are 1 + sqrt 2 and 2 + sqrt 5, and the nonzero parts decide
        pairs = (([[1, 2], [1, 1]], [[1, 1, 1], [0, 0, 1], [1, 1, 1]]),
                 (GROWTH, [[0, 0, 1], [1, 1, 1], [2, 2, 3]]))
        for M, N in pairs:
            a, b = pf_data(M), pf_data(N)
            assert b.poly() == a.poly() + (0,)
            assert overlap(a, b) and a.exact is None
            assert pf_compare(a, b) == 0 and pf_compare(b, a) == 0
            assert a._iso is None and b._iso is None
        # x^2 - 4x - 1 against x (x - 4): nonzero parts that share their
        # leading terms but not their roots, on one bracket with no walk
        c = PFData(GROWTH, Fraction(3), Fraction(5))
        d = PFData(as_matrix([[2, 2], [2, 2]]), Fraction(3), Fraction(5))
        assert pf_compare(c, d) == 1 and pf_compare(d, c) == -1

    def test_permutation_against_slow_growth(self):
        one = pf_data([[0, 1], [1, 0]])
        two = pf_data([[2]])
        assert pf_compare(one, two) == -1
        assert pf_compare(one, pf_data([[0, 0, 1], [1, 0, 0], [0, 1, 0]])) == 0

    def test_close_rates_separate(self):
        # roots of x^2 - 4x - 1 and x^3 - 2x^2 - 1 differ; order is decided
        a = pf_data(GROWTH)
        b = pf_data([[2, 0, 1], [1, 0, 0], [0, 1, 0]])
        assert pf_compare(a, b) == 1
        assert pf_compare(b, a) == -1

    def test_compare_agrees_with_oracle(self):
        rng = random.Random(8321)
        build = irreducible_matrices(max_n=3)
        pool = [pf_data(build(rng.randrange(1, 4), rng)) for _ in range(25)]
        for i, a in enumerate(pool):
            for b in pool[i:]:
                got = pf_compare(a, b)
                ra, rb = oracle_radius(a.matrix), oracle_radius(b.matrix)
                if abs(ra - rb) > 1e-6:
                    assert got == (1 if ra > rb else -1)
                else:
                    # near-ties must at least be antisymmetric and sane
                    assert got in (-1, 0, 1)
                    assert pf_compare(b, a) == -got

    def test_compare_agrees_with_exact_oracle(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(2718)
        build = irreducible_matrices()
        mats = [GROWTH, as_matrix([[1, 2], [2, 3]]),
                as_matrix([[4, 1], [1, 1]]), COMPANION,
                as_matrix([[1, 1], [1, 0]]),
                # (x + 1)(x^2 - x - 1): the golden ratio again
                as_matrix([[0, 2, 1], [1, 0, 0], [0, 1, 0]]),
                as_matrix([[2]]), as_matrix([[1, 1], [1, 1]]),
                as_matrix([[0, 4], [1, 0]]), as_matrix([[0, 1], [1, 0]])]
        for _ in range(10):
            M = build(rng.randrange(1, 5), rng)
            mats += [M, permuted(M, rng)]
            cover = double_cover(M, rng)
            if cover is not None:
                mats.append(cover)
        rates = [exact_charpoly(sympy, M).real_roots()[-1] for M in mats]
        approx = [sympy.N(r, 60) for r in rates]
        datas = [pf_data(M) for M in mats]
        for i in range(len(mats)):
            for j in range(i, len(mats)):
                # equal algebraic numbers come out of sympy as the same
                # expression; distinct ones of this size lie far apart
                if rates[i] == rates[j]:
                    want = 0
                else:
                    gap = abs(approx[i] - approx[j])
                    assert gap > sympy.Rational(1, 10**40)
                    want = 1 if approx[i] > approx[j] else -1
                assert pf_compare(datas[i], datas[j]) == want
                assert pf_compare(datas[j], datas[i]) == -want

    def test_overlapping_brackets_still_decide(self):
        # equal nonzero polynomials decide overlapping coarse brackets and
        # leave both as they are
        coarse = Fraction(1, 2)
        a = pf_data(GROWTH, coarse)
        same = pf_data([[1, 2], [2, 3]], coarse)
        before = [(a.lower, a.upper), (same.lower, same.upper)]
        assert overlap(a, same) and a.width > DEFAULT_TOL
        assert pf_compare(a, same) == 0 and pf_compare(same, a) == 0
        assert [(a.lower, a.upper), (same.lower, same.upper)] == before
        # distinct polynomials narrow both to the brackets pf_data gives at
        # the default width
        above = pf_data([[4, 1], [1, 1]], coarse)  # (5 + sqrt 13)/2
        assert overlap(a, above)
        assert pf_compare(a, above) == -1 and pf_compare(above, a) == 1
        for data in (a, above):
            fine = pf_data(data.matrix)
            assert (data.lower, data.upper) == (fine.lower, fine.upper)
        b, c = pf_data(GROWTH, Fraction(2)), pf_data(COMPANION, Fraction(2))
        assert overlap(b, c)
        assert pf_compare(b, c) == 1 and pf_compare(c, b) == -1
        # brackets built by hand are narrowed by the same walk
        d = PFData(GROWTH, Fraction(4), Fraction(5))
        e = PFData(as_matrix([[4, 1], [1, 1]]), Fraction(4), Fraction(5))
        assert pf_compare(d, e) == -1 and pf_compare(e, d) == 1
        assert (d.lower, d.upper) == (a.lower, a.upper)
        assert d._iso is None and e._iso is None
        # x^2 - N x - 1 against x^2 - N x - 2: rates about N + 1/N and
        # N + 2/N, whose default brackets overlap, so only signs at the
        # rates, read through the isolations, separate them
        N = 10**15
        f = pf_data([[N, 1], [1, 0]])
        g = pf_data([[N, 2], [1, 0]])
        assert overlap(f, g)
        assert pf_compare(f, g) == -1 and pf_compare(g, f) == 1
        assert f._iso is not None and g._iso is not None

    def test_a_rate_at_most_the_isolations_lower_end_is_below(self):
        # the double cover [[A, B], [B, A]] with A = [[K, 1], [1, 1]] and
        # B = [[0, 1], [0, 1]] has the rate r of A + B, about K + 2/K, and
        # the rate K of A - B.  With K = 2^100 the walk runs out of rounds,
        # the default bracket of r overlaps that of a rate just below K,
        # and r's isolation bisects K away, so the cover's squarefree
        # polynomial is positive or zero at x's rate although x is below
        K = 2 ** 100
        C = as_matrix([[K, 1, 0, 1], [1, 1, 0, 1], [0, 1, K, 1], [0, 1, 1, 1]])
        x, y = pf_data([[K - 1, K - 1], [1, 0]]), pf_data(C)
        assert overlap(x, y)
        assert pf_compare(x, y) == -1 and pf_compare(y, x) == 1
        assert y.isolation().lo > K
        # a hand-built bracket [K, K + 1] whose isolation, bisected to
        # (K, K + 1] and kept, has the rate K of x at its lower end
        y = PFData(C, Fraction(K), Fraction(K + 1))
        assert y.isolation().lo == K
        x = pf_data([[K]])
        assert pf_compare(x, y) == -1 and pf_compare(y, x) == 1

    def test_isolation_falls_back_when_the_seed_fails(self):
        # the seed (-12, 10] of [-1, 10] holds both roots of x^2 - 4x - 1,
        # so it is bisected until only the larger one is left
        two_roots = PFData(GROWTH, Fraction(-1), Fraction(10))
        iso = two_roots.isolation()
        assert count_distinct_roots(iso.chain, iso.lo, iso.hi) == 1
        assert iso.lo > 0 and (iso.lo - 2) ** 2 < 5 < (iso.hi - 2) ** 2
        assert pf_compare(two_roots, pf_data([[4, 1], [1, 1]])) == -1
        assert pf_compare(two_roots, pf_data([[1, 2], [2, 3]])) == 0
        # [2, 3] starts at the rate 2 of x^2 - x - 2 = (x - 2)(x + 1), and
        # the seed (1, 3] widened below keeps it
        at_root = PFData(as_matrix([[1, 2], [1, 0]]), Fraction(2), Fraction(3))
        iso = at_root.isolation()
        assert (iso.lo, iso.hi) == (1, 3)
        assert count_distinct_roots(iso.chain, iso.lo, iso.hi) == 1
        assert pf_compare(at_root, pf_data([[2]])) == 0
        assert pf_compare(pf_data([[1, 1], [1, 1]]), at_root) == 0
        assert pf_compare(at_root, pf_data([[2, 1], [1, 1]])) == -1


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7), st.integers(0, 2**32 - 1),
       st.sampled_from(("random", "periodic", "cover")),
       st.sampled_from((Fraction(1, 64), Fraction(1, 2), Fraction(4))))
def test_coarse_brackets_narrow_and_compare_as_default_ones(n, seed, kind,
                                                            coarse):
    """A coarse bracket narrowed to the default width is exactly the
    default bracket, and ``pf_compare`` gives every pair, in both orders,
    the verdict it gives their default-width data; equal nonzero
    polynomials narrow neither bracket.  The pool holds a
    block, a permuted copy (equal polynomials), and a small block with
    its double cover when that is irreducible (equal rates found through
    the gcd)."""
    rng = random.Random(seed)
    M = random_block(n, rng, kind)
    half = irreducible_matrices()(rng.randrange(1, 4), rng)
    pool = [M, permuted(M, rng), half]
    cover = double_cover(half, rng)
    if cover is not None:
        pool.append(cover)
    fine = [pf_data(A) for A in pool]
    for A, data in zip(pool, fine):
        narrowed = pf_data(A, coarse).refined(DEFAULT_TOL)
        assert (narrowed.lower, narrowed.upper) == (data.lower, data.upper)
    for i, A in enumerate(pool):
        for j, B in enumerate(pool):
            x, y = pf_data(A, coarse), pf_data(B, coarse)
            before = [(x.lower, x.upper), (y.lower, y.upper)]
            assert pf_compare(x, y) == pf_compare(fine[i], fine[j])
            after = [(x.lower, x.upper), (y.lower, y.upper)]
            if _nonzero_part(x.poly()) == _nonzero_part(y.poly()):
                assert after == before
            # each bracket is left coarse or narrowed to the default one
            for data, was, want in zip(after, before, (fine[i], fine[j])):
                assert data in (was, (want.lower, want.upper))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2**32 - 1), st.integers(0, 9))
def test_charpoly_and_adjugate_row_match_sympy(n, seed, max_entry):
    """On nonnegative integer matrices up to 12 x 12, irreducible or not,
    ``_berkowitz`` is sympy's characteristic polynomial and
    ``_adjugate_row`` is row 0 of sympy's adjugate of xI - M, coefficient
    by coefficient."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    rng = random.Random(seed)
    M = as_matrix([[rng.randrange(max_entry + 1) for _ in range(n)]
                   for _ in range(n)])
    x = sympy.Symbol("x")
    p = _berkowitz(M)
    assert list(p) == exact_charpoly(sympy, M).all_coeffs()
    xi_m = DomainMatrix.from_Matrix(x * sympy.eye(n) - sympy.Matrix(M))
    adj = xi_m.convert_to(sympy.ZZ[x]).adjugate().to_Matrix()
    B = _adjugate_row(M, p)
    for e in range(n):
        want = sympy.Poly(adj[0, e], x).all_coeffs()
        got = [row[e] for row in B]
        assert got == [0] * (n - len(want)) + want


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_random_blocks_bracket_oracle(n, seed):
    rng = random.Random(seed)
    M = irreducible_matrices()(n, rng)
    data = pf_data(M)
    rho = oracle_radius(M)
    assert float(data.lower) - 1e-6 <= rho <= float(data.upper) + 1e-6
    assert data.is_one == is_transitive_permutation(M)
    if data.is_one:
        assert abs(rho - 1) < 1e-9


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=10),
       st.integers(-10**4, 10**4), st.integers(1, 10**4), st.booleans())
def test_integer_sign_matches_fraction_eval(p, num, den, at_root):
    x = Fraction(num, den)
    if at_root:
        # times (den X - num), so that x is a root
        p = [a * den - b * num for a, b in zip(p + [0], [0] + p)]
    v = sum(c * x ** (len(p) - 1 - d) for d, c in enumerate(p))
    assert poly_sign(p, x) == (v > 0) - (v < 0)
    if at_root:
        assert v == 0


@settings(max_examples=300, deadline=None)
@given(st.sets(st.integers(-6, 6), min_size=1, max_size=5),
       st.integers(-1, 1), st.integers(1, 4), st.sampled_from((-1, 1)),
       st.integers(-7, 7), st.integers(1, 6), st.sampled_from((0, 1)))
def test_sturm_counts_known_roots(roots, b, c, sign, a, span, half):
    # sign (x^2 + b x + c) prod (x - r)^(1 or 2): only the r are real.
    # Integer endpoints (half = 0) often land on a root, which the count
    # must leave out at lo and keep at hi
    p = (sign, sign * b, sign * c)
    for i, r in enumerate(sorted(roots)):
        for _ in range(1 + i % 2):
            p = tuple(x - r * y for x, y in zip(p + (0,), (0,) + p))
    lo, hi = Fraction(2 * a + half, 2), Fraction(2 * (a + span) + half, 2)
    want = sum(1 for r in roots if lo < r <= hi)
    assert count_distinct_roots(sturm_chain(p), lo, hi) == want
