"""Exception hierarchy shared across the package.

Every error carries a stable ``code`` string so the CLI can map failures to
exit codes and machine-readable reports without string matching.
"""


class OrbitrainError(Exception):
    """Base class for all package errors."""

    code = "error"


class BadGroupTable(OrbitrainError):
    """A Cayley table fails the group axioms."""

    code = "bad-group-table"


class FactorMismatch(OrbitrainError):
    """Two letters from different free factors were multiplied."""

    code = "factor-mismatch"


class NotAutomorphism(OrbitrainError):
    """Generator images do not define an automorphism of the free product."""

    code = "not-automorphism"


class NotInvertible(OrbitrainError):
    """A generator-image map has no inverse: it is not surjective."""

    code = "not-invertible"


class BadPath(OrbitrainError):
    """A path violates the letter-placement invariants."""

    code = "bad-path"


class BadRepresentative(OrbitrainError):
    """A topological representative violates its structural invariants."""

    code = "bad-representative"


class UnsafeMove(OrbitrainError):
    """A homotopy move was asked of input that fails its structural
    precondition; no move checks a growth rate."""

    code = "unsafe-move"


class CapExceeded(OrbitrainError):
    """An iteration cap was hit before the algorithm finished."""

    code = "cap-exceeded"


class IterationCapExceeded(CapExceeded):
    """The descent hit its pass cap or revisited a representative.  A
    revisit carries ``witness = (first, step, images)``: the pass first
    holding the representative, the pass meeting it again, and that
    representative's edge images as path text by edge name."""

    code = "iteration-cap-exceeded"

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class ParseError(OrbitrainError):
    """Text that does not parse as a word over the declared factors."""

    code = "parse-error"


class UnknownGenerator(ParseError):
    """A word uses a token that no declared factor provides."""

    code = "unknown-generator"


class BadOrbigraph(OrbitrainError):
    """The one-complex is not a finite tree with labelled cone points."""

    code = "bad-orbigraph"


class NotAWalk(BadPath):
    """An item sequence is not a connected edge walk."""

    code = "not-a-walk"


class EndpointMismatch(BadPath):
    """Two paths were concatenated at different zero cells."""

    code = "endpoint-mismatch"


class NoMarking(OrbitrainError):
    """The representative carries no marking, so no outer class is defined."""

    code = "no-marking"


class NotIrreducible(OrbitrainError):
    """The transition matrix is reducible where irreducibility is required."""

    code = "not-irreducible"


class NotInvariantForest(UnsafeMove):
    """The chosen subgraph is not an invariant forest."""

    code = "not-invariant-forest"


class NothingToFold(UnsafeMove):
    """The two directions have no common initial image segment."""

    code = "nothing-to-fold"


class ConePointForbidden(UnsafeMove):
    """The move would delete or merge a cone point."""

    code = "cone-point-forbidden"


class NotValenceOne(UnsafeMove):
    """The zero cell does not have exactly one incident edge end."""

    code = "not-valence-one"


class NotValenceTwo(UnsafeMove):
    """The zero cell does not have exactly two incident edge ends."""

    code = "not-valence-two"


class LemmaViolated(OrbitrainError):
    """A structural conclusion failed on concrete input; carries a witness."""

    code = "lemma-violated"

    def __init__(self, witness, message=""):
        self.witness = witness
        super().__init__(message or f"structural conclusion failed: {witness}")
