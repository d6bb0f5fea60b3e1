"""The benchmark's own outer-class check.

If psi = inner(w) . phi, with inner(w)(x) = w^-1 x w, compare the Kurosh
data on factor 0: phi(a) = u^-1 rho(a) u and psi(a) = u'^-1 rho'(a) u'
with rho, rho' landing in factor pi(0).  Then g = u w u'^-1 conjugates
rho(A_0) onto rho'(A_0) inside A_pi(0), and the normalizer of a
nontrivial free factor is the factor itself, so g = s for some s in
A_pi(0) and w = u^-1 s u'.  Searching the |A_pi(0)| candidates is
therefore complete.

``Automorphism.outer_equal`` twists by elements of factor 0 instead of
factor pi(0) and so misses some pairs; this module uses only ``kurosh``,
``inner``, ``compose``, ``mul`` and ``inv``.
"""

from orbitrain.errors import NotAutomorphism
from orbitrain.groups import Automorphism


def outer_conjugator(phi, psi):
    """A word w with psi = inner(w) . phi, or None when there is none."""
    W = phi.W
    if psi.W != W:
        return None
    try:
        mine, theirs = phi.kurosh(), psi.kurosh()
    except NotAutomorphism:
        return None
    if mine.pi != theirs.pi:
        return None
    u, u2 = mine.conjugators[0], theirs.conjugators[0]
    j = mine.pi[0]
    for s in W.factors[j].elements():
        w = W.mul(W.inv(u), ((j, s),) if s else (), u2)
        if Automorphism.inner(W, w).compose(phi) == psi:
            return w
    return None


def outer_equal(phi, psi):
    return outer_conjugator(phi, psi) is not None


def outer_equal_misses(pairs):
    """How often ``Automorphism.outer_equal`` rejects phi against
    inner(w).phi, and how often this module does (which must be never)."""
    misses = oracle_misses = 0
    for phi, w in pairs:
        psi = Automorphism.inner(phi.W, w).compose(phi)
        misses += not phi.outer_equal(psi)
        oracle_misses += not outer_equal(phi, psi)
    return misses, oracle_misses
