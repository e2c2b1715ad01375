"""Multi-period coherent risk measures on finite scenario trees."""

from .config import Config, DEFAULT
from .errors import (
    EmptyIntersectionError,
    EmptyKernelError,
    EngineError,
    InfeasibleError,
    ModelError,
    NotCoarserError,
    NotMeasurableError,
    OutOfRangeError,
    SchemaError,
    SizeBoundError,
)
from .scenario import (
    Claim,
    ScenarioModel,
    Stage,
    claim,
    condexp,
)
from .riskset import (
    RiskSet,
    density,
    includes,
    intersect,
    kernel_polytope,
    maximize_ratio,
    member,
    set_equal,
    simplex_set,
    singleton,
)
from .risk import (
    AdaptedProcess,
    Chain,
    ReservePlan,
    cone_member,
    decompose_acceptance,
    eta,
    is_acceptable,
    reserve_plan,
    rho,
)
from .consistency import (
    ConsistencyReport,
    check_supermartingale,
    consistency_report,
    find_witness,
    is_mstable,
    mstable_hull,
    paste_assembly,
)
from .intermarket import (
    FiReport,
    MarketModel,
    ProductModel,
    build_refined,
    check_fi,
    extend_pi,
    fin_restriction,
    is_purely_financial,
    lift_financial,
    product_reserve,
    product_space,
    psi_build,
    psi_verify,
    qf,
    qi,
    split_reserve,
)

__version__ = "0.1.0"
