"""Multi-branch virtual-resistance control of grid-connected inverters.

Simulates the dq-frame closed-loop current-error dynamics under grid
disturbances and certifies input-to-state stability through a small
semidefinite feasibility problem, with trajectory-level validation of the
certified dissipation inequality.
"""

__version__ = "0.1.0"

from .bank import (  # noqa: F401
    BankClassification,
    SectorViolation,
    VrBank,
    VrBranch,
    VrElement,
    classify_bank,
    default_banks,
    eval_bank,
    eval_branch,
    eval_element,
    element_primitive,
)
from .certify import (  # noqa: F401
    GradientCheckConfig,
    iss_gain,
    search_certificate,
    sampled_gradient_check,
    verify_certificate,
)
from .persidskii import (  # noqa: F401
    IssCertificate,
    PersidskiiModel,
    VerifyReport,
    assemble_psi,
    lyapunov_gradient,
    lyapunov_value,
    to_persidskii,
)
from .plant import (  # noqa: F401
    GridParams,
    coupling_matrix,
    error_derivative,
    feedforward_v0,
    nominal_params,
    open_loop_derivative,
    system_matrix,
)
from .sim import (  # noqa: F401
    Metrics,
    Scenario,
    SimulationAbort,
    Trajectory,
    check_dissipation,
    check_iss_envelope,
    compute_metrics,
    integrate,
    scenario_random_resistance,
    scenario_voltage_pulse,
)
