"""Train track machinery for outer automorphisms of free products."""

from .errors import OrbitrainError
from .groups import Automorphism, FiniteGroup, FreeProduct

__version__ = "0.1.0"

__all__ = [
    "Automorphism",
    "FiniteGroup",
    "FreeProduct",
    "OrbitrainError",
    "__version__",
]
