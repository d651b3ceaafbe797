"""coarselab: exact-integer cover constructions on lattice-like metric
spaces, with empirical verification of disjointness, boundedness, coverage,
embedding controls, witness existence, and finite set-system rank."""

__version__ = "0.1.0"

from .covers import (
    CoverError,
    CoverScheme,
    FiniteFamily,
    fiber_product_cover,
    grid_cover,
    mixed_grid_cover,
    omega_cover,
    product_square_cover,
    pullback_scheme,
    restrict_scheme,
    saturated_union,
    shift_union_cover,
    singleton_cover,
    spaced_interval_cover,
    staircase_cover,
)
from .ordinal import FinFamily, derived_family, inclusive_closure, is_inclusive, ord_rank
from .spaces import (
    ControlFn,
    MapSpec,
    ShiftPoint,
    SpaceError,
    SpaceSpec,
    TowerPoint,
    Window,
    WindowError,
    enumerate_window,
    evaluate_map,
    pad_point,
    shift_distance,
    space_distance,
    tower_distance,
)
from .verify import (
    BudgetExceeded,
    ControlReport,
    OracleOutcome,
    VerificationReport,
    VerifyError,
    WitnessResult,
    check_coarse_control,
    find_fiber_witnesses,
    materialize,
    oracle_1d_nocover,
    verify_cover,
)
