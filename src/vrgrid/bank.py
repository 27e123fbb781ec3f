"""Multi-branch virtual-resistance bank.

A bank is a parallel sum of branches; each branch is a series sum of static
scalar elements applied independently to the d and q axes of the current
error. Every shipped element kind is odd, vanishes at zero, and satisfies
the sector condition x * r(x) > 0 for x != 0 when its parameters are
positive, so each element adds pointwise dissipation to the closed loop.

Element kinds (parameters must be positive):

=============  ==========  ==========================================
kind           parameters  map (per axis)
=============  ==========  ==========================================
linear         k           k * x
cubic          k           k * x**3
sinh           a, b        a * sinh(b * x)
tanh           a, b        a * tanh(b * x)        (bounded)
saturation     k, x_sat    k * clip(x, -x_sat, x_sat)   (bounded)
=============  ==========  ==========================================

Each kind is one row of ``_ELEMENT_KINDS``: its kernel code, parameter
names, map and closed-form primitive (integral of the map from 0 to x),
which backs the composite Lyapunov function; all five primitives diverge
as |x| grows even when the map is bounded. Maps and primitives run over
arrays (a point is a one-row array). The integrators run the scalar forms
in ``vrgrid._kernels`` (code, ``element_value`` and ``_ELEMENT_EXPR``) on
the ``flatten_bank`` arrays.
:func:`classify_bank` is the sampled sector check every loaded bank passes.

This module reads no config: ``vrgrid.cli`` parses bank records, taking
each kind's keys from ``ELEMENT_PARAMS``, and ``to_config`` writes the
canonical record that :func:`bank_fingerprint` hashes.
"""

import hashlib
import json
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import _kernels


def _tanh_primitive(a, b, xs):
    u = np.abs(b * xs)  # overflow-safe log(cosh(b * x))
    return (a / b) * (u + np.log1p(np.exp(-2.0 * u)) - math.log(2.0))


def _saturation_primitive(k, x_sat, xs):
    a = np.abs(xs)
    inside = 0.5 * k * xs ** 2
    outside = k * x_sat * a - 0.5 * k * x_sat ** 2
    return np.where(a <= x_sat, inside, outside)


# One row per element kind; ``values`` and ``primitives`` take (p1, p2, xs).
_Kind = namedtuple("_Kind", "code params values primitives")

_ELEMENT_KINDS = {
    "linear": _Kind(_kernels.LINEAR, ("k",), lambda k, _, xs: k * xs, lambda k, _, xs: 0.5 * k * xs ** 2),
    "cubic": _Kind(_kernels.CUBIC, ("k",), lambda k, _, xs: k * xs ** 3, lambda k, _, xs: 0.25 * k * xs ** 4),
    "sinh": _Kind(_kernels.SINH, ("a", "b"), lambda a, b, xs: a * np.sinh(b * xs),
                  lambda a, b, xs: (a / b) * (np.cosh(b * xs) - 1.0)),
    "tanh": _Kind(_kernels.TANH, ("a", "b"), lambda a, b, xs: a * np.tanh(b * xs), _tanh_primitive),
    "saturation": _Kind(_kernels.SATURATION, ("k", "x_sat"),
                        lambda k, x_sat, xs: k * np.clip(xs, -x_sat, x_sat), _saturation_primitive),
}

KINDS = tuple(sorted(_ELEMENT_KINDS))

# Parameter names of each kind, in the order of VrElement's p1 and p2: the keys of its config record.
ELEMENT_PARAMS = {kind: row.params for kind, row in _ELEMENT_KINDS.items()}

# Most elements an axis may sum over all branches: the fallback RK4 inlines them in one expression.
MAX_ELEMENTS_PER_AXIS = 256

# Magnitudes of the sampled sector check (nine decades), mirrored about zero.
_PROBE_MAX = 100.0
_PROBE_MIN = _PROBE_MAX * 1e-9
_PROBE_SAMPLES = 128
_PROBE_MAGS = np.geomspace(_PROBE_MIN, _PROBE_MAX, _PROBE_SAMPLES)
_PROBE_XS = np.concatenate([-_PROBE_MAGS[::-1], _PROBE_MAGS])
_PROBE_PTS = np.column_stack([_PROBE_XS, _PROBE_XS])


class SectorViolation(ValueError):
    """A sampled sector check failed: names the branch, axis, and sample."""

    def __init__(self, branch, axis, sample, value):
        self.branch = branch
        self.axis = axis
        self.sample = sample
        self.value = value
        super().__init__(
            f"sector violation in branch {branch}, axis {axis}: "
            f"x={sample!r} maps to {value!r} with x*r(x) <= 0"
        )


@dataclass(frozen=True)
class VrElement:
    """One static virtual-resistance element (volts out for amperes in)."""

    kind: str
    p1: float
    p2: float = 0.0

    def __post_init__(self):
        if self.kind not in _ELEMENT_KINDS:
            raise ValueError(f"unknown element kind {self.kind!r}; expected one of {KINDS}")
        names = _ELEMENT_KINDS[self.kind].params
        for name, value in zip(names, (self.p1, self.p2)):
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{self.kind} element: parameter {name!r} must be finite and > 0, got {value!r}")
        if len(names) == 1 and self.p2 != 0.0:
            raise ValueError(f"{self.kind} element takes a single parameter {names[0]!r}")

    @property
    def code(self):
        return _ELEMENT_KINDS[self.kind].code

    def to_config(self):
        return {"kind": self.kind, **dict(zip(_ELEMENT_KINDS[self.kind].params, (self.p1, self.p2)))}


def element_values(e, xs):
    """Vectorized element map over an array of inputs."""
    return _ELEMENT_KINDS[e.kind].values(e.p1, e.p2, np.asarray(xs, dtype=float))


def element_primitives(e, xs):
    """Vectorized closed-form primitive over an array of inputs."""
    return _ELEMENT_KINDS[e.kind].primitives(e.p1, e.p2, np.asarray(xs, dtype=float))


@dataclass(frozen=True)
class VrBranch:
    """Series sum of elements, applied per axis (d and q may differ)."""

    elements_d: tuple
    elements_q: tuple

    def __post_init__(self):
        if not self.elements_d or not self.elements_q:
            raise ValueError("branch needs at least one element on each axis")

    @property
    def same_both_axes(self):
        return self.elements_d == self.elements_q

    def to_config(self):
        if self.same_both_axes:
            return [e.to_config() for e in self.elements_d]
        return {
            "d": [e.to_config() for e in self.elements_d],
            "q": [e.to_config() for e in self.elements_q],
        }


@dataclass(frozen=True)
class VrBank:
    """Parallel sum of branches; an empty bank is the plain feedforward loop."""

    branches: tuple = ()

    def __post_init__(self):
        for axis in "dq":
            count = sum(len(getattr(b, f"elements_{axis}")) for b in self.branches)
            if count > MAX_ELEMENTS_PER_AXIS:
                raise ValueError(f"axis {axis} sums {count} elements over all branches (at most {MAX_ELEMENTS_PER_AXIS})")

    @property
    def branch_count(self):
        return len(self.branches)

    def to_config(self):
        return [b.to_config() for b in self.branches]


def _axis_sums(branch, pts, column):
    """Per-axis sums of ``column(e, x)`` over a branch's elements, on (N, 2) points."""
    pts = np.asarray(pts, dtype=float)
    out = np.zeros_like(pts)
    for axis, elements in enumerate((branch.elements_d, branch.elements_q)):
        for e in elements:
            out[..., axis] += column(e, pts[..., axis])
    return out


def branch_values(branch, pts):
    """Vectorized branch map over an (N, 2) array of dq points."""
    return _axis_sums(branch, pts, element_values)


def bank_values(bank, pts):
    """Vectorized total bank map over an (N, 2) array of dq points."""
    return sum((branch_values(branch, pts) for branch in bank.branches), np.zeros(np.shape(pts)))


def branch_primitive_values(branch, pts):
    """Vectorized per-axis primitive sums over an (N, 2) array."""
    return _axis_sums(branch, pts, element_primitives)


def classify_bank(bank):
    """Sampled sector check: x * r(x) > 0 on every axis of every branch.

    The grid is symmetric about zero (zero excluded), with
    ``_PROBE_SAMPLES`` log-spaced magnitudes from ``_PROBE_MIN`` to
    ``_PROBE_MAX`` on each side. Each branch is evaluated once on the grid
    as (x, x) points, and its d axis is checked before its q axis. A
    violation raises :class:`SectorViolation` naming branch, axis and sample.
    """
    for idx, branch in enumerate(bank.branches):
        vals = branch_values(branch, _PROBE_PTS)
        for col, axis in enumerate("dq"):
            bad = np.flatnonzero(~(_PROBE_XS * vals[:, col] > 0.0))
            if bad.size:
                i = bad[0]
                raise SectorViolation(idx, axis, float(_PROBE_XS[i]), float(vals[i, col]))


def flatten_bank(bank):
    """Flatten all elements into kernel-ready arrays (codes, p1, p2) per axis.

    The closed-loop dynamics only need the total series+parallel sum, so
    branch boundaries are dropped here.
    """
    elems_d = [e for b in bank.branches for e in b.elements_d]
    elems_q = [e for b in bank.branches for e in b.elements_q]

    def pack(elems):
        codes = np.array([e.code for e in elems], dtype=np.int64)
        p1 = np.array([e.p1 for e in elems], dtype=float)
        p2 = np.array([e.p2 for e in elems], dtype=float)
        return codes, p1, p2

    return (*pack(elems_d), *pack(elems_q))


def bank_fingerprint(bank):
    """Stable sha256 of the canonical bank config (guards certificate reuse)."""
    payload = json.dumps(bank.to_config(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()

