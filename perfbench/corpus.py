"""The benchmark corpus: seeded automorphisms of W_n and three fixtures.

W_n is the free product of n copies of Z/2 with generators a, b, c, ...
Each corpus automorphism starts from the rotation a_k -> a_{k+1 mod n}
and is composed L times, on the left, with a partial conjugation
a_i -> a_j a_i a_j drawn from ``random.Random(seed)``.  The sizes and
seeds are fixed, so the corpus is the same on every run; the benchmark
seed only orders the cases.

Inputs are plain data (generator image words); each case builds its own
``Automorphism`` so that no instance cache carries over between cases.
"""

import random

from orbitrain.groups import Automorphism, FiniteGroup, FreeProduct

Z2 = FiniteGroup.cyclic(2)

# (n, L, number of seeds): W3 L4 s0-19, W4 L6 s0-19, W5 L8 s0-9,
# W6 L10 s0-5, W8 L12 s0-3.
SIZES = ((3, 4, 20), (4, 6, 20), (5, 8, 10), (6, 10, 6), (8, 12, 4))

# The named fixtures of the test suite, as generator image text.
FIXTURES = {
    "alpha_w3": (3, ("a", "b a c a b a c a b", "b a c a b")),
    "beta_w3": (3, ("a", "b c b c b", "b c b")),
    "phi_w4": (4, ("a", "b", "b a c a b", "c a d a c")),
}


def free_product(n):
    return FreeProduct([Z2] * n)


def corpus_images(W, L, seed):
    """Generator images of the rotation followed by L seeded partial
    conjugations, exactly as the ROADMAP defines the corpus."""
    n = W.n
    rng = random.Random(seed)
    phi = Automorphism.from_gen_images(
        W, [(((k + 1) % n, 1),) for k in range(n)])
    for _ in range(L):
        i, j = rng.sample(range(n), 2)
        images = [((k, 1),) for k in range(n)]
        images[i] = ((j, 1), (i, 1), (j, 1))
        phi = Automorphism.from_gen_images(W, images).compose(phi)
    return gen_images(phi)


def gen_images(phi):
    """The image word of each factor generator."""
    return tuple(phi.images[i][phi.W.factors[i].generator()]
                 for i in range(phi.W.n))


def growth_word(n, seed):
    """A seeded cyclically reduced word of four syllables on W_n."""
    rng = random.Random(f"growth-W{n}-s{seed}")
    while True:
        fs = [rng.randrange(n) for _ in range(4)]
        if all(fs[k] != fs[(k + 1) % 4] for k in range(4)):
            return tuple((i, 1) for i in fs)


def corpus(max_n=8):
    """(case id, W, generator images, growth word) for every corpus case
    on at most ``max_n`` factors, in corpus order."""
    out = []
    for n, L, seeds in SIZES:
        if n > max_n:
            continue
        W = free_product(n)
        for seed in range(seeds):
            out.append((f"W{n}-s{seed}", W, corpus_images(W, L, seed),
                        growth_word(n, seed)))
    return out


def fixtures():
    """(case id, W, generator images) for the three named fixtures."""
    out = []
    for name, (n, texts) in FIXTURES.items():
        W = free_product(n)
        out.append((name, W, tuple(W.parse_word(t) for t in texts)))
    return out


def outer_pairs():
    """(phi, w) pairs for checking ``outer_equal`` on phi and inner(w).phi:
    five seeded words of one to six syllables per corpus case."""
    out = []
    for case_id, W, images, _ in corpus():
        phi = Automorphism.from_gen_images(W, images)
        rng = random.Random(f"pairs-{case_id}")
        for _ in range(5):
            length = rng.randint(1, 6)
            word = []
            while len(word) < length:
                i = rng.randrange(W.n)
                if not word or word[-1][0] != i:
                    word.append((i, 1))
            out.append((phi, tuple(word)))
    return out
