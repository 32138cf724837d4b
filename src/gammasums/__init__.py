"""Exact-arithmetic verification of hypergeometric, mirabolic and gamma
trace-function identities over small finite fields."""

from .cyclotomic import CycNum, CyclotomicRing, cyclotomic_polynomial
from .errors import (
    CapExceeded,
    ConfigInvalid,
    GammasumsError,
    InvalidTwistedPoint,
    LevelMissing,
    NotConstant,
    NotComputableLocus,
    NotNormalized,
    NotPrime,
    NotSigmaPositive,
    NotSurjective,
    NotTopStratum,
    NotWStable,
    SolverSingular,
    SystemInconsistent,
    TowerTooShallow,
    VanishingFailed,
)
from .fields import (
    FieldTower,
    MultCharacter,
    all_characters,
    build_tower,
    gauss_sum,
    kloosterman,
)
from .gl2 import Gl2Irrep, build_gl2_table, oracle_phi
from .induction import GammaTrace, flag_fixed_points, induced_trace, is_regular
from .mirabolic import (
    GroupPoint,
    StratumData,
    bernstein_coords,
    coset_charpoly,
    group_point,
    orbit_census,
    parabolic_rank_classify,
    stratum_index,
)
from .torus import (
    TorusCharacter,
    TorusTraces,
    TwistedTorusPoint,
    WeightSystem,
    twisted_point,
    validate_weight_system,
    weyl_lift,
)
from .harness import SuiteReport, emit, run_suite

__version__ = "0.1.0"
