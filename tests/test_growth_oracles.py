"""Growth-type oracles for the descent's answers on W3.

``outer_equal`` accepts any representative of the right outer class, so it
would pass a train track with too large a growth rate or a finite-order
answer with a wrong period.  These checks close that gap on the W3 corpus
and the ``alpha_w3`` fixture.

The kernel K of W3 -> Z/2, sending every generator to 1, is free on
x = ab and y = bc, and every automorphism preserves it.  Pairing the
letters of phi(ab) and phi(bc) into x and y and abelianising gives the
2x2 integer matrix H of phi on the homology of K.  Since Out(F2) is
GL(2, Z), phi grows exponentially exactly when rho(H) > 1, and then a
train track's growth rate is rho(H) (Bestvina-Handel: a train track
realises the least growth rate).  An inner automorphism of W3 acts on
the homology of K by +-I, so the check does not depend on the inner
twist.
"""

from fractions import Fraction
from math import isqrt

import pytest

from orbitrain.groups import Automorphism
from orbitrain.pf import pf_data, poly_gcd
from orbitrain.toprep import thistle_rep
from orbitrain.traintrack import FiniteOrder, TrainTrack, train_track_algorithm

# each pair of consecutive letters of a word in K, as a vector in the
# homology basis x = ab, y = bc; ac = xy and ca = (xy)^-1
PAIRS = {(0, 1): (1, 0), (1, 0): (-1, 0), (1, 2): (0, 1), (2, 1): (0, -1),
         (0, 2): (1, 1), (2, 0): (-1, -1)}

# the cases the descent answers: W3 s16 has order 3 and the others end in
# train tracks.  The other eight W3 seeds (0, 3, 4, 5, 8, 12, 18, 19) are
# order-3 classes on which the descent still raises; each joins this list
# once the descent answers it.
ANSWERED = [f"W3-s{seed}" for seed in (1, 2, 6, 7, 9, 10, 11, 13, 14, 15,
                                       16, 17)] + ["alpha_w3"]


def homology_action(phi):
    """The matrix of ``phi`` on the homology of K, columns x and y."""
    cols = []
    for i, j in ((0, 1), (1, 2)):
        word = phi(((i, 1), (j, 1)))
        if len(word) % 2:
            raise AssertionError(f"{phi} moves K off itself")
        v = [0, 0]
        for k in range(0, len(word), 2):
            dx, dy = PAIRS[(word[k][0], word[k + 1][0])]
            v[0] += dx
            v[1] += dy
        cols.append(v)
    return ((cols[0][0], cols[1][0]), (cols[0][1], cols[1][1]))


def sqrt_between(D, a, b) -> bool:
    """Whether a <= sqrt(D) <= b, exactly."""
    return (a <= 0 or a * a <= D) and b >= 0 and D <= b * b


def check_rate(phi, rep):
    """lambda = rho(H), certified.  rho(H) is the larger root r of
    t^2 - |tr| t + det, the characteristic polynomial of H or of -H.  It
    is irreducible when rho(H) > 1, since its discriminant tr^2 - 4 det
    with det = +-1 is then no square.  So a non-constant gcd with the
    transition matrix's characteristic polynomial makes r a root of it,
    and the refined PF bracket holds exactly one root, lambda; r lying in
    the bracket gives r = lambda."""
    (a, b), (c, d) = homology_action(phi)
    tr, det = abs(a + d), a * d - b * c
    assert det in (1, -1)
    D = tr * tr - 4 * det
    assert D > 0 and isqrt(D) ** 2 != D
    data = pf_data(rep.transition_matrix().entries)
    assert len(poly_gcd(data.poly(), (1, -tr, det))) > 1
    data = data.refined(Fraction(1, 10 ** 12))
    # r = (tr + sqrt(D)) / 2 lies in [lower, upper]
    assert sqrt_between(D, 2 * data.lower - tr, 2 * data.upper - tr)


def check_period(phi, period):
    """phi^period is inner, and no smaller positive power is."""
    identity = Automorphism.identity(phi.W)
    assert period is not None
    assert phi.power(period).outer_equal(identity)
    assert not any(phi.power(k).outer_equal(identity)
                   for k in range(1, period))


@pytest.mark.parametrize("case", ANSWERED)
def test_answer_has_the_growth_type_of_its_input(case, alpha_w3,
                                                 corpus_automorphism):
    """A train track's rate is rho(H), and a finite-order answer's period
    is the order of the outer class."""
    if case == "alpha_w3":
        phi = alpha_w3
    else:
        phi = corpus_automorphism(3, 4, int(case.split("-s")[1]))
    out = train_track_algorithm(thistle_rep(phi))
    if isinstance(out, FiniteOrder):
        check_period(phi, out.period)
    else:
        assert isinstance(out, TrainTrack)
        check_rate(phi, out.rep)
