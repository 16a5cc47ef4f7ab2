"""Exact combinatorics of colored permutation groups.

The library provides the r-colored permutation groups with their descent
statistics, colored posets with colored linear extensions, exact counting
of colored P-partitions, and the exact-rational group algebra machinery
for descent class sums, structure constants, and orthogonal idempotents.
"""

__version__ = "0.1.0"

from .group import (
    ColoredComposition,
    ColoredLetter,
    ColoredPermutation,
    DescentProfile,
    SizeCapExceeded,
    compose,
    descent_profile,
    enumerate_group,
    group_order,
    group_words,
    identity,
    inverse,
    mr_key,
    parse_one_line,
)
from .posets import (
    ColoredPoset,
    chain_poset,
    colored_linear_extensions,
    disjoint_union,
    linear_extensions,
    make_poset,
    zigzag_poset,
)
from .ppartitions import (
    barred_chain_total,
    binom,
    count_ppartitions_bruteforce,
    eulerian_polynomial,
    omega_Ppi,
    omega_pi,
    verify_steingrimsson,
)
from .algebra import (
    ClassPartition,
    GroupAlgebraElement,
    algebra_add,
    algebra_multiply,
    algebra_scale,
    class_sums_des,
    class_sums_mr,
    eulerian_idempotents,
    is_in_span,
    structure_poly_eval,
    verify_closure,
)
