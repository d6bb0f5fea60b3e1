"""Shared fixtures: the standard presentations and automorphisms used
throughout the suite, and the benchmark corpus recipe."""

import random

import pytest

from orbitrain.groups import Automorphism, FiniteGroup, FreeProduct

Z2 = FiniteGroup.cyclic(2)


@pytest.fixture(scope="session")
def w3():
    return FreeProduct([Z2, Z2, Z2], ["a", "b", "c"])


@pytest.fixture(scope="session")
def w4():
    return FreeProduct([Z2, Z2, Z2, Z2], ["a", "b", "c", "d"])


@pytest.fixture(scope="session")
def phi_w4(w4):
    """a -> a, b -> b, c -> bacab, d -> cadac; polynomially growing."""
    return Automorphism.from_gen_images(
        w4,
        [
            w4.parse_word("a"),
            w4.parse_word("b"),
            w4.parse_word("b a c a b"),
            w4.parse_word("c a d a c"),
        ],
    )


@pytest.fixture(scope="session")
def alpha_w3(w3):
    """The exponentially growing example automorphism alpha on W3."""
    return Automorphism.from_gen_images(
        w3,
        [
            w3.parse_word("a"),
            w3.parse_word("b a c a b a c a b"),
            w3.parse_word("b a c a b"),
        ],
    )


@pytest.fixture(scope="session")
def beta_w3(w3):
    """The companion beta on W3 with the same transition matrix as alpha."""
    return Automorphism.from_gen_images(
        w3,
        [
            w3.parse_word("a"),
            w3.parse_word("b c b c b"),
            w3.parse_word("b c b"),
        ],
    )


@pytest.fixture(scope="session")
def corpus_automorphism():
    """The benchmark corpus recipe, as a function of ``(n, length, seed)``:
    the rotation a_k -> a_{k+1 mod n} on W_n, composed on the left with
    ``length`` seeded partial conjugations a_i -> a_j a_i a_j."""
    def recipe(n, length, seed):
        W = FreeProduct([Z2] * n)
        rng = random.Random(seed)
        phi = Automorphism.from_gen_images(
            W, [(((k + 1) % n, 1),) for k in range(n)])
        for _ in range(length):
            i, j = rng.sample(range(n), 2)
            images = [((k, 1),) for k in range(n)]
            images[i] = ((j, 1), (i, 1), (j, 1))
            phi = Automorphism.from_gen_images(W, images).compose(phi)
        return phi
    return recipe
