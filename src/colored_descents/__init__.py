"""Exact combinatorics of colored permutation groups.

The library provides the r-colored permutation groups with their descent
statistics, colored posets with colored linear extensions, exact counting
of colored P-partitions, and the exact-rational group algebra machinery
for descent class sums, structure constants, and orthogonal idempotents.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the module that defines it.  A name is imported on
# first access (PEP 562), so a CLI process loads only what its command runs.
_EXPORTS = {
    name: module
    for module, names in {
        "group": """ColoredComposition ColoredLetter ColoredPermutation
            DescentProfile SizeCapExceeded compose descent_profile
            enumerate_group group_order group_words identity inverse mr_key
            parse_one_line""",
        "posets": """ColoredPoset chain_poset colored_linear_extensions
            disjoint_union linear_extensions make_poset zigzag_poset""",
        "ppartitions": """barred_chain_total binom count_ppartitions_bruteforce
            eulerian_polynomial omega_Ppi omega_pi verify_steingrimsson""",
        "algebra": """ClassPartition GroupAlgebraElement algebra_add
            algebra_multiply algebra_scale class_sums_des class_sums_mr
            eulerian_idempotents is_in_span structure_poly_eval
            verify_closure""",
    }.items()
    for name in names.split()
}
__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
