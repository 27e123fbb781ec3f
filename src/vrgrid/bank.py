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

Closed-form primitives (integral of the map from 0 to x) back the composite
Lyapunov function; all five kinds have primitives that diverge as |x| grows
even when the map itself is bounded.

Maps and primitives are evaluated over arrays (a point is a one-row array);
the integrators run ``vrgrid._kernels`` on the ``flatten_bank`` arrays.
:func:`classify_bank` is the sampled sector check every loaded bank passes.
"""

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels

_KIND_CODES = {
    "linear": _kernels.LINEAR,
    "cubic": _kernels.CUBIC,
    "sinh": _kernels.SINH,
    "tanh": _kernels.TANH,
    "saturation": _kernels.SATURATION,
}

_PARAM_NAMES = {
    "linear": ("k",),
    "cubic": ("k",),
    "sinh": ("a", "b"),
    "tanh": ("a", "b"),
    "saturation": ("k", "x_sat"),
}

KINDS = tuple(sorted(_KIND_CODES))

# Magnitudes of the sampled sector check (nine decades), mirrored about zero.
_PROBE_MAX = 100.0
_PROBE_MIN = _PROBE_MAX * 1e-9
_PROBE_SAMPLES = 128
_PROBE_MAGS = np.geomspace(_PROBE_MIN, _PROBE_MAX, _PROBE_SAMPLES)
_PROBE_XS = np.concatenate([-_PROBE_MAGS[::-1], _PROBE_MAGS])
_PROBE_PTS = np.column_stack([_PROBE_XS, _PROBE_XS])


def json_number(value):
    """A JSON number (not a bool or string) as a finite float, else ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"must be a number, got {type(value).__name__}")
    try:
        value = float(value)
    except OverflowError:
        raise ValueError("is too large for a float") from None
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {value!r}")
    return value


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
        if self.kind not in _KIND_CODES:
            raise ValueError(f"unknown element kind {self.kind!r}; expected one of {KINDS}")
        names = _PARAM_NAMES[self.kind]
        if not (math.isfinite(self.p1) and self.p1 > 0.0):
            raise ValueError(f"{self.kind} element: parameter {names[0]!r} must be finite and > 0, got {self.p1!r}")
        if len(names) == 2:
            if not (math.isfinite(self.p2) and self.p2 > 0.0):
                raise ValueError(f"{self.kind} element: parameter {names[1]!r} must be finite and > 0, got {self.p2!r}")
        elif self.p2 != 0.0:
            raise ValueError(f"{self.kind} element takes a single parameter {names[0]!r}")

    @classmethod
    def _unchecked(cls, kind, p1, p2=0.0):
        # Bypasses validation; only for negative-control test harnesses.
        self = object.__new__(cls)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "p1", float(p1))
        object.__setattr__(self, "p2", float(p2))
        return self

    @property
    def code(self):
        return _KIND_CODES[self.kind]

    def to_config(self):
        names = _PARAM_NAMES[self.kind]
        record = {"kind": self.kind, names[0]: self.p1}
        if len(names) == 2:
            record[names[1]] = self.p2
        return record

    @classmethod
    def from_config(cls, record):
        if not isinstance(record, dict):
            raise ValueError(f"element record must be an object, got {type(record).__name__}")
        kind = record.get("kind")
        if not isinstance(kind, str) or kind not in _KIND_CODES:
            raise ValueError(f"unknown element kind {kind!r}; expected one of {KINDS}")
        names = _PARAM_NAMES[kind]
        extra = set(record) - {"kind", *names}
        if extra:
            raise ValueError(f"{kind} element: unknown parameter(s) {sorted(extra)}")
        missing = [n for n in names if n not in record]
        if missing:
            raise ValueError(f"{kind} element: missing parameter(s) {missing}")
        params = []
        for name in names:
            try:
                params.append(json_number(record[name]))
            except ValueError as exc:
                raise ValueError(f"{kind} element: parameter {name!r} {exc}") from None
        return cls(kind, *params)


def linear(k):
    return VrElement("linear", k)


def cubic(k):
    return VrElement("cubic", k)


def sinh_element(a, b):
    return VrElement("sinh", a, b)


def tanh_element(a, b):
    return VrElement("tanh", a, b)


def saturation(k, x_sat):
    return VrElement("saturation", k, x_sat)


def element_values(e, xs):
    """Vectorized element map over an array of inputs."""
    xs = np.asarray(xs, dtype=float)
    if e.kind == "linear":
        return e.p1 * xs
    if e.kind == "cubic":
        return e.p1 * xs ** 3
    if e.kind == "sinh":
        return e.p1 * np.sinh(e.p2 * xs)
    if e.kind == "tanh":
        return e.p1 * np.tanh(e.p2 * xs)
    return e.p1 * np.clip(xs, -e.p2, e.p2)


def element_primitives(e, xs):
    """Vectorized closed-form primitives."""
    xs = np.asarray(xs, dtype=float)
    if e.kind == "linear":
        return 0.5 * e.p1 * xs ** 2
    if e.kind == "cubic":
        return 0.25 * e.p1 * xs ** 4
    if e.kind == "sinh":
        return (e.p1 / e.p2) * (np.cosh(e.p2 * xs) - 1.0)
    if e.kind == "tanh":
        a = np.abs(e.p2 * xs)  # overflow-safe log(cosh(b * x))
        return (e.p1 / e.p2) * (a + np.log1p(np.exp(-2.0 * a)) - math.log(2.0))
    a = np.abs(xs)
    inside = 0.5 * e.p1 * xs ** 2
    outside = e.p1 * e.p2 * a - 0.5 * e.p1 * e.p2 ** 2
    return np.where(a <= e.p2, inside, outside)


@dataclass(frozen=True)
class VrBranch:
    """Series sum of elements, applied per axis (d and q may differ)."""

    elements_d: tuple
    elements_q: tuple

    def __post_init__(self):
        if not self.elements_d or not self.elements_q:
            raise ValueError("branch needs at least one element on each axis")

    @classmethod
    def of(cls, elements, q_elements=None):
        d = tuple(elements)
        q = d if q_elements is None else tuple(q_elements)
        return cls(d, q)

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

    @classmethod
    def from_config(cls, record):
        def elements(records, what):
            if not isinstance(records, (list, tuple)):
                raise ValueError(f"{what} must be a list of element records, got {type(records).__name__}")
            return tuple(VrElement.from_config(r) for r in records)

        if isinstance(record, dict):
            extra = set(record) - {"d", "q"}
            if extra:
                raise ValueError(f"branch record: unknown key(s) {sorted(extra)}")
            if "d" not in record or "q" not in record:
                raise ValueError("per-axis branch record needs both 'd' and 'q'")
            return cls(elements(record["d"], "branch 'd'"), elements(record["q"], "branch 'q'"))
        return cls.of(elements(record, "branch record"))


@dataclass(frozen=True)
class VrBank:
    """Parallel sum of branches; an empty bank is the plain feedforward loop."""

    branches: tuple = ()

    @property
    def branch_count(self):
        return len(self.branches)

    def to_config(self):
        return [b.to_config() for b in self.branches]

    @classmethod
    def from_config(cls, records):
        return cls(tuple(VrBranch.from_config(r) for r in records))


def branch_values(branch, pts):
    """Vectorized branch map over an (N, 2) array of dq points."""
    pts = np.asarray(pts, dtype=float)
    out = np.zeros_like(pts)
    for e in branch.elements_d:
        out[..., 0] += element_values(e, pts[..., 0])
    for e in branch.elements_q:
        out[..., 1] += element_values(e, pts[..., 1])
    return out


def bank_values(bank, pts):
    """Vectorized total bank map over an (N, 2) array of dq points."""
    pts = np.asarray(pts, dtype=float)
    out = np.zeros_like(pts)
    for branch in bank.branches:
        out += branch_values(branch, pts)
    return out


def branch_primitive_values(branch, pts):
    """Vectorized per-axis primitive sums over an (N, 2) array."""
    pts = np.asarray(pts, dtype=float)
    out = np.zeros_like(pts)
    for e in branch.elements_d:
        out[..., 0] += element_primitives(e, pts[..., 0])
    for e in branch.elements_q:
        out[..., 1] += element_primitives(e, pts[..., 1])
    return out


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


def default_banks():
    """Repo-default gain choices for the bundled comparison configs."""
    return {
        "linear": VrBank((VrBranch.of((linear(2.0),)),)),
        "cubic": VrBank((VrBranch.of((cubic(0.5),)),)),
        "hybrid": VrBank((VrBranch.of((linear(1.0), cubic(0.25))),)),
        "sinh": VrBank((VrBranch.of((sinh_element(1.0, 1.0),)),)),
        "multi_branch": VrBank((
            VrBranch.of((linear(1.0), cubic(0.25))),
            VrBranch.of((sinh_element(0.5, 0.5), tanh_element(5.0, 0.2))),
        )),
    }
