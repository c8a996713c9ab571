"""Exact computation and desk-scale verification of additive energies of
modular roots, with supporting lattice, polynomial, uniformity-norm,
exponential-sum, and discrepancy machinery."""

__version__ = "0.1.0"

from .sets import IndicatorSet, RepFn
from .modular import (
    is_prime,
    kth_roots,
    preimage_set,
    primes_in,
    sqrt_mod,
)
from .convolve import cyclic_convolve
from .energy import (
    EnergyQuery,
    difference_rep,
    energy_of,
    max_energy_over_j,
    prime_averaged_energy,
    set_energy,
    sum_rep,
    tuple_energy,
)
from .gowers import character_lemma_report, gowers_norm, shift_intersection
from .lattice import (
    BoxBody,
    CongruenceLattice,
    MinimaResult,
    count_points,
    dual_minima,
    successive_minima,
    trichotomy_check,
    verify_geometry,
)
from .prodpoly import (
    IntPoly,
    count_box_zeros,
    count_box_zeros_upto,
    product_poly,
    to_text,
)
from .expsums import (
    BilinearQuery,
    IndexTable,
    SmoothBump,
    bilinear_bound_ratio,
    bilinear_root_sum,
    char_inverse_moment,
    gauss_sum,
    index_table,
    smoothed_bound_ratio,
    smoothed_root_sum,
)
from .equidist import (
    DiscrepancyResult,
    PointMultiset,
    discrepancy,
    prime_roots_discrepancy,
    prime_roots_ratio,
)
from .rng import SplitMix64
