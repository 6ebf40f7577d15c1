"""Primitivity testing and block systems for transitive permutation groups.

Decides whether a transitive group given by generators is primitive and
produces a block system when it is not, using capped deep sifting with a
certificate fallback; cross-validated against the quadratic baseline.
The lower-level pieces (sifting state, transversals, blockness tests,
words) are imported from their submodules.
"""

from .blocks import BlockSystem, atkinson_baseline, minimal_block, validate_block_system
from .perm import GeneratorSet, Permutation
from .primitivity import (
    Diagnostics,
    Verdict,
    find_blocks_from_certificate,
    primitivity_main,
    primitivity_subquadratic,
    ss_uncapped,
)
from .sift import Certificate

__all__ = [
    "BlockSystem",
    "Certificate",
    "Diagnostics",
    "GeneratorSet",
    "Permutation",
    "Verdict",
    "atkinson_baseline",
    "find_blocks_from_certificate",
    "minimal_block",
    "primitivity_main",
    "primitivity_subquadratic",
    "ss_uncapped",
    "validate_block_system",
]

__version__ = "0.1.0"
