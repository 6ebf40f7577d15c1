"""Primitivity testing and block systems for transitive permutation groups.

Decides whether a transitive group given by generators is primitive and
produces a block system when it is not, using capped deep sifting with a
certificate fallback; cross-validated against the quadratic baseline.
"""

from .blocks import (
    BlockSystem,
    BlockWitness,
    atkinson_baseline,
    blockness_test,
    minimal_block,
    validate_block_system,
)
from .perm import GeneratorSet, Permutation, is_transitive, orbit
from .primitivity import (
    Diagnostics,
    Verdict,
    find_blocks_from_certificate,
    primitivity_main,
    primitivity_subquadratic,
    ss_primitivity,
    ss_uncapped,
)
from .sift import Certificate, SiftOutcome, SiftState
from .transversal import TransversalResult, build_point_transversal, build_scoped_transversal
from .words import (
    Atom,
    CubeList,
    ElementStore,
    Word,
    cube_inverse_list,
    cube_set_image,
    deep_cube_orbit,
)

__all__ = [
    "Atom",
    "BlockSystem",
    "BlockWitness",
    "Certificate",
    "CubeList",
    "Diagnostics",
    "ElementStore",
    "GeneratorSet",
    "Permutation",
    "SiftOutcome",
    "SiftState",
    "TransversalResult",
    "Verdict",
    "Word",
    "atkinson_baseline",
    "blockness_test",
    "build_point_transversal",
    "build_scoped_transversal",
    "cube_inverse_list",
    "cube_set_image",
    "deep_cube_orbit",
    "find_blocks_from_certificate",
    "is_transitive",
    "minimal_block",
    "orbit",
    "primitivity_main",
    "primitivity_subquadratic",
    "ss_primitivity",
    "ss_uncapped",
    "validate_block_system",
]

__version__ = "0.1.0"
