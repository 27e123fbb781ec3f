"""Multi-branch virtual-resistance control of grid-connected inverters.

Simulates the dq-frame closed-loop current-error dynamics under grid
disturbances and certifies input-to-state stability with a closed-form
Persidskii-form certificate checked by eigenvalue tests, with
trajectory-level validation of the certified dissipation inequality.
"""

__version__ = "0.1.0"

from .bank import (  # noqa: F401
    SectorViolation,
    VrBank,
    VrBranch,
    VrElement,
    classify_bank,
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
    VerifyReport,
    assemble_psi,
)
from .plant import (  # noqa: F401
    GridParams,
    system_matrix,
)
from .sim import (  # noqa: F401
    ConstantOffset,
    Metrics,
    RandomResistance,
    Scenario,
    SimulationAbort,
    Trajectory,
    VoltagePulse,
    check_dissipation,
    compute_metrics,
    integrate,
)
