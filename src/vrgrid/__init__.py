"""Multi-branch virtual-resistance control of grid-connected inverters.

Simulates the dq-frame closed-loop current-error dynamics under grid
disturbances and certifies input-to-state stability with a closed-form
Persidskii-form certificate checked by eigenvalue tests, with
trajectory-level validation of the certified dissipation inequality.
"""

__version__ = "0.1.0"
