"""Additive decompositions of multiplicative subgroups of prime fields.

Library surface, the names the CLI and the reports run: prime-field
contexts with full discrete-log tables, bitset subsets of Z_p with exact
set algebra, multiplicative characters with exact root-of-unity tallies, a
pruned exhaustive search engine for decompositions S = A + B, and one
verifier per supporting estimate.  Callers pass p, never a field: only
code that reads discrete logs (character sums, product sets) loads one.
"""

from .charsum import (
    Character,
    RootOfUnityTally,
    double_char_sum,
    karatsuba_ratio,
    poly_char_sum,
    vinogradov_check,
    weil_report,
)
from .decomp import (
    DecompQuery,
    DecompReport,
    find_additive_decompositions,
    find_self_decomposition,
    max_packing,
    run_query,
)
from .errors import (
    BadIndex,
    CompositeModulus,
    ConfigError,
    DuplicateShift,
    FFDecompError,
    MixedModulus,
    ModulusTooLarge,
    ZeroSetOnly,
)
from .fpcore import PrimeField, make_field, subgroup
from .reports import BoundReport
from .setalg import (
    FpSet,
    affine,
    format_set,
    growth_product,
    intersect_shifts,
    iterated_sumset,
    parse_set,
    productset,
    sumset,
)

__version__ = "0.1.0"
