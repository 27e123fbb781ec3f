"""Hot numeric kernels and the element kind table.

``ELEMENT_KINDS`` has one row per element kind: its code, parameter names,
scalar expression, vector map and primitive, its lower sector slope and its
slope. It lives beside
``element_value`` because ``vrgrid.bank`` and the integrators both import
this module. A kind has two scalar forms: the ``element_value`` branch,
which numba compiles with static dispatch and the tests take as the
reference, and the row's ``expr``, which the generated fallback step
inlines. The vector map is a third form: saturation's conditional
expression takes no arrays, and on one float ``np.clip`` costs about 4 us
against 55 ns for that expression (Python 3.11).

The functions under ``@njit`` are compiled with numba when numba is
importable. Setting the environment variable ``VRGRID_DISABLE_NUMBA=1``
before import (or running without numba installed) selects the pure
Python/NumPy fallback path instead; the fallback computes the same values,
only slower.

As plain Python, ``rk4_loop`` pays for a ``series_sum`` ->
``element_value`` dispatch on numpy scalars four times per axis per step.
The fallback integrator is therefore ``specialized_rk4_loop``, plain code
that walks the horizon one run of bit-identical inputs at a time and skips
runs that hold an exact equilibrium. Only its RK4 step depends on the bank:
``build_rk4_loop`` generates it with every element inlined from its row's
``expr``, and the walk computes ``rk4_loop``'s trajectory bit for bit.
``vrgrid.sim`` picks one of the two by ``NUMBA_ENABLED``; the uncompiled
``rk4_loop`` stays the reference that the tests compare against.
``perfbench/run.py --trace 1`` reports the loop's us/step per bundled bank.
"""

import math
import os
from collections import namedtuple

import numpy as np


def _truthy(value):
    return value.strip().lower() not in ("", "0", "false", "no")


NUMBA_DISABLED = _truthy(os.environ.get("VRGRID_DISABLE_NUMBA", ""))

try:
    if NUMBA_DISABLED:
        raise ImportError("numba disabled by VRGRID_DISABLE_NUMBA")
    from numba import njit

    NUMBA_ENABLED = True
except ImportError:
    NUMBA_ENABLED = False

    def njit(**_options):  # the one form used here, @njit(cache=True)
        return lambda func: func


# Element kind codes; each row of ELEMENT_KINDS carries one.
LINEAR = 0
CUBIC = 1
SINH = 2
TANH = 3
SATURATION = 4


@njit(cache=True)
def element_value(code, p1, p2, x):
    if code == LINEAR:
        return p1 * x
    if code == CUBIC:
        return p1 * x * x * x
    if code == SINH:
        return p1 * math.sinh(p2 * x)
    if code == TANH:
        return p1 * math.tanh(p2 * x)
    if code == SATURATION:
        # gain p1, hard-clipped at |x| = p2
        if x > p2:
            return p1 * p2
        if x < -p2:
            return -p1 * p2
        return p1 * x
    raise ValueError("unknown element code")


def _tanh_primitive(a, b, xs):
    u = np.abs(b * xs)  # overflow-safe log(cosh(b * x))
    return (a / b) * (u + np.log1p(np.exp(-2.0 * u)) - math.log(2.0))


def _saturation_primitive(k, x_sat, xs):
    a = np.abs(xs)
    inside = 0.5 * k * xs ** 2
    try:
        outside = k * x_sat * a - 0.5 * k * x_sat ** 2
    except OverflowError:  # Python raises past about 1.3e154 where numpy gives inf
        outside = k * x_sat * a - math.inf
    return np.where(a <= x_sat, inside, outside)


# One row per element kind, by its config name. ``params`` names p1 and p2
# (the keys of its config record). ``expr`` is its element_value branch as a
# Python-float expression in the same operation order, {x} the state and
# {p1}/{p2} the locals of the loop build_rk4_loop generates. ``values`` (the
# map r), ``primitives`` (its integral from 0) and ``slope`` (r') take
# (p1, p2, xs) on arrays; saturation's slope is k on the closed interval
# |x| <= x_sat. ``kappa`` takes (p1, p2): the lower sector slope, the largest
# kappa with x r(x) >= kappa x^2 for every x.
_Kind = namedtuple("_Kind", "code params expr values primitives kappa slope")

ELEMENT_KINDS = {
    "linear": _Kind(LINEAR, ("k",), "{p1} * {x}",
                    lambda k, _, xs: k * xs, lambda k, _, xs: 0.5 * k * xs ** 2,
                    lambda k, _: k, lambda k, _, xs: np.full_like(xs, k)),
    "cubic": _Kind(CUBIC, ("k",), "{p1} * {x} * {x} * {x}",
                   lambda k, _, xs: k * xs ** 3, lambda k, _, xs: 0.25 * k * xs ** 4,
                   lambda k, _: 0.0, lambda k, _, xs: 3.0 * k * xs ** 2),
    "sinh": _Kind(SINH, ("a", "b"), "{p1} * sinh({p2} * {x})",
                  lambda a, b, xs: a * np.sinh(b * xs), lambda a, b, xs: (a / b) * (np.cosh(b * xs) - 1.0),
                  lambda a, b: a * b, lambda a, b, xs: a * b * np.cosh(b * xs)),
    "tanh": _Kind(TANH, ("a", "b"), "{p1} * tanh({p2} * {x})",
                  lambda a, b, xs: a * np.tanh(b * xs), _tanh_primitive,
                  lambda a, b: 0.0, lambda a, b, xs: a * b / np.cosh(b * xs) ** 2),
    "saturation": _Kind(SATURATION, ("k", "x_sat"),
                        "({p1} * {p2} if {x} > {p2} else -{p1} * {p2} if {x} < -{p2} else {p1} * {x})",
                        lambda k, x_sat, xs: k * np.clip(xs, -x_sat, x_sat), _saturation_primitive,
                        lambda k, x_sat: 0.0, lambda k, x_sat, xs: np.where(np.abs(xs) <= x_sat, k, 0.0)),
}


@njit(cache=True)
def series_sum(codes, p1s, p2s, x):
    total = 0.0
    for i in range(codes.shape[0]):
        total += element_value(codes[i], p1s[i], p2s[i], x)
    return total


@njit(cache=True)
def rk4_loop(y0d, y0q, dt, n_steps, lg, wg, rg_seq, dist_d, dist_q,
             codes_d, p1_d, p2_d, codes_q, p1_q, p2_q):
    """Fixed-step classical RK4 on the closed-loop current-error dynamics.

    The grid resistance and the disturbance are held constant within each
    step (sampled at the step start). Returns ``(trajectory, abort_index)``
    where ``abort_index`` is -1 when every sample stayed finite, otherwise
    the index of the first non-finite sample.
    """
    out = np.empty((n_steps + 1, 2))
    out[0, 0] = y0d
    out[0, 1] = y0q
    inv_lg = 1.0 / lg
    for n in range(n_steps):
        a = -rg_seq[n] * inv_lg
        vd = dist_d[n]
        vq = dist_q[n]
        yd = out[n, 0]
        yq = out[n, 1]

        k1d = a * yd + wg * yq - inv_lg * (series_sum(codes_d, p1_d, p2_d, yd) + vd)
        k1q = -wg * yd + a * yq - inv_lg * (series_sum(codes_q, p1_q, p2_q, yq) + vq)

        td = yd + 0.5 * dt * k1d
        tq = yq + 0.5 * dt * k1q
        k2d = a * td + wg * tq - inv_lg * (series_sum(codes_d, p1_d, p2_d, td) + vd)
        k2q = -wg * td + a * tq - inv_lg * (series_sum(codes_q, p1_q, p2_q, tq) + vq)

        td = yd + 0.5 * dt * k2d
        tq = yq + 0.5 * dt * k2q
        k3d = a * td + wg * tq - inv_lg * (series_sum(codes_d, p1_d, p2_d, td) + vd)
        k3q = -wg * td + a * tq - inv_lg * (series_sum(codes_q, p1_q, p2_q, tq) + vq)

        td = yd + dt * k3d
        tq = yq + dt * k3q
        k4d = a * td + wg * tq - inv_lg * (series_sum(codes_d, p1_d, p2_d, td) + vd)
        k4q = -wg * td + a * tq - inv_lg * (series_sum(codes_q, p1_q, p2_q, tq) + vq)

        yd = yd + dt / 6.0 * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
        yq = yq + dt / 6.0 * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
        out[n + 1, 0] = yd
        out[n + 1, 1] = yq
        if not (math.isfinite(yd) and math.isfinite(yq)):
            return out, n + 1
    return out, -1


_RK4_SOURCE = """
def steps(od, oq, first, last, yd, yq, a, vd, vq, dt, wg, inv_lg):
    {names} = bound
    h, c, mwg = 0.5 * dt, dt / 6.0, -wg
    try:
        for n in range(first, last + 1):
            k1d = a * yd + wg * yq - inv_lg * ({sd_yd})
            k1q = mwg * yd + a * yq - inv_lg * ({sq_yq})

            td = yd + h * k1d
            tq = yq + h * k1q
            k2d = a * td + wg * tq - inv_lg * ({sd_td})
            k2q = mwg * td + a * tq - inv_lg * ({sq_tq})

            td = yd + h * k2d
            tq = yq + h * k2q
            k3d = a * td + wg * tq - inv_lg * ({sd_td})
            k3q = mwg * td + a * tq - inv_lg * ({sq_tq})

            td = yd + dt * k3d
            tq = yq + dt * k3q
            k4d = a * td + wg * tq - inv_lg * ({sd_td})
            k4q = mwg * td + a * tq - inv_lg * ({sq_tq})

            yd = yd + c * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
            yq = yq + c * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
            od[n] = yd
            oq[n] = yq
            if yd - yd != yq - yq:
                return yd, yq, n
    except OverflowError:
        # math.sinh raises where numba's sinh returns inf: the same abort
        od[n] = oq[n] = nan
        return yd, yq, n
    return yd, yq, -1
"""


def build_rk4_loop(codes_d, p1_d, p2_d, codes_q, p1_q, p2_q):
    """Generate the RK4 step of ``rk4_loop`` for one bank as straight-line Python.

    Takes the ``flatten_bank`` arrays and returns ``steps(od, oq, first,
    last, yd, yq, a, vd, vq, dt, wg, inv_lg)``: from the state ``(yd, yq)``
    of row ``first - 1`` and with the inputs held, it writes rows ``first ..
    last`` of the ``memoryview``s ``od`` and ``oq`` and returns the state
    and the abort index (-1, or the first non-finite row). Each
    ``series_sum(...) + v`` is inlined as ``e0 + e1 + ... + v`` in element
    order, on Python floats. The generic loop's ``0.0 +`` head is dropped:
    ``0.0 + e0 + ... + v`` and ``e0 + ... + v`` differ only when every term
    is -0.0, and the caller reads ``v`` as ``v + 0.0``, which turns -0.0
    into +0.0 and keeps every other value, so both give the same bits, also
    for an axis without elements. ``0.5 * dt``, ``dt / 6.0`` and ``-wg`` are
    hoisted out of the loop (Python groups ``0.5 * dt * k`` as
    ``(0.5 * dt) * k``), and a row is non-finite exactly when ``yd - yd !=
    yq - yq`` (``x - x`` is NaN for a non-finite ``x``). A term that
    overflows in ``math.sinh`` aborts its step with that row set to NaN.
    Element parameters, ``sinh`` and ``tanh`` are locals of ``steps``,
    unpacked from a tuple in its namespace, never formatted into its text.
    """
    local = dict(sinh=math.sinh, tanh=math.tanh)
    exprs = {row.code: row.expr for row in ELEMENT_KINDS.values()}

    def series(axis, codes, p1s, p2s, x):
        terms = []
        for i, code in enumerate(codes):
            if int(code) not in exprs:
                raise ValueError(f"unknown element code {code!r}")
            p1, p2 = f"p1_{axis}{i}", f"p2_{axis}{i}"
            local[p1], local[p2] = float(p1s[i]), float(p2s[i])
            terms.append(exprs[int(code)].format(p1=p1, p2=p2, x=x))
        return " + ".join([*terms, f"v{axis}"])

    source = _RK4_SOURCE.format(
        sd_yd=series("d", codes_d, p1_d, p2_d, "yd"),
        sd_td=series("d", codes_d, p1_d, p2_d, "td"),
        sq_yq=series("q", codes_q, p1_q, p2_q, "yq"),
        sq_tq=series("q", codes_q, p1_q, p2_q, "tq"),
        names=", ".join(local),
    )
    namespace = {"nan": math.nan, "bound": tuple(local.values())}
    exec(compile(source, "<vrgrid rk4 steps>", "exec"), namespace)
    return namespace["steps"]


def specialized_rk4_loop(y0d, y0q, dt, n_steps, lg, wg, rg_seq, dist_d, dist_q,
                         codes_d, p1_d, p2_d, codes_q, p1_q, p2_q):
    """``rk4_loop`` with its signature and values, stepped by ``build_rk4_loop``.

    The horizon is walked one run of bit-identical inputs (resistance and
    both disturbance axes) at a time, reading the inputs once per run. A
    run whose first step leaves the state bit-identical (an exact
    equilibrium, such as the zero state before a disturbance arrives) is
    filled with that state without stepping.
    """
    steps = build_rk4_loop(codes_d, p1_d, p2_d, codes_q, p1_q, p2_q)
    out = np.empty((n_steps + 1, 2))
    od, oq = map(memoryview, out.T)
    bd, bq = map(memoryview, out.view(np.uint64).T)
    inputs = [np.asarray(x, dtype=np.float64)[:n_steps] for x in (rg_seq, dist_d, dist_q)]
    rg, dd, dq = map(memoryview, inputs)
    # edge marks the first step of each run, and n_steps ends the last one
    edge = np.zeros(n_steps + 1, dtype=bool)
    edge[[0, -1]] = True
    for x in inputs:
        bits = x.view(np.uint64)
        edge[1:n_steps] |= bits[1:] != bits[:-1]
    bounds = np.flatnonzero(edge)
    yd = od[0] = float(y0d)
    yq = oq[0] = float(y0q)
    dt, wg, inv_lg = float(dt), float(wg), 1.0 / float(lg)
    for s, e in zip(memoryview(bounds[:-1]), memoryview(bounds[1:])):
        a = -rg[s] * inv_lg
        # + 0.0 turns -0.0 into 0.0 and keeps all else (see build_rk4_loop)
        vd, vq = dd[s] + 0.0, dq[s] + 0.0
        # steps s .. e - 1 write rows s + 1 .. e; the first goes alone
        yd, yq, bad = steps(od, oq, s + 1, s + 1, yd, yq, a, vd, vq, dt, wg, inv_lg)
        if bad >= 0:
            return out, bad
        if e == s + 1:
            continue
        # a step is a pure function of the state and the run's inputs, so a state
        # its first step leaves bit-identical (-0.0 is not 0.0) holds for the run
        if bd[s] == bd[s + 1] and bq[s] == bq[s + 1]:
            out[s + 2:e + 1] = out[s + 1]
            continue
        yd, yq, bad = steps(od, oq, s + 2, e, yd, yq, a, vd, vq, dt, wg, inv_lg)
        if bad >= 0:
            return out, bad
    return out, -1


def jacobi_sweep(a, v, rel_tol):
    """Cyclic Jacobi rotations on symmetric ``a`` (modified in place).

    Rotations are accumulated into ``v`` (preset to identity by the caller),
    so that a_input = v @ diag(a) @ v.T on return. Sweeps stop once the
    off-diagonal Frobenius norm drops below ``rel_tol`` times the Frobenius
    norm of the input. Returns the number of sweeps used. No command calls
    it, and it is plain Python: ``linalg.sym_eig`` uses LAPACK. It has two
    roles: the independent reference the tests hold ``sym_eig`` to, and the
    ``linalg.jacobi_sweep`` site of the ``perfbench`` trace.
    """
    n = a.shape[0]
    fro = 0.0
    for i in range(n):
        for j in range(n):
            fro += a[i, j] * a[i, j]
    thresh = rel_tol * math.sqrt(fro)

    sweeps = 0
    while sweeps < 64:
        off = 0.0
        for i in range(n - 1):
            for j in range(i + 1, n):
                off += 2.0 * a[i, j] * a[i, j]
        if math.sqrt(off) <= thresh:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                if theta >= 0.0:
                    t = 1.0 / (theta + math.sqrt(1.0 + theta * theta))
                else:
                    t = -1.0 / (-theta + math.sqrt(1.0 + theta * theta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                tau = s / (1.0 + c)

                a[p, p] -= t * apq
                a[q, q] += t * apq
                a[p, q] = 0.0
                a[q, p] = 0.0
                for i in range(n):
                    if i == p or i == q:
                        continue
                    aip = a[i, p]
                    aiq = a[i, q]
                    a[i, p] = aip - s * (aiq + tau * aip)
                    a[p, i] = a[i, p]
                    a[i, q] = aiq + s * (aip - tau * aiq)
                    a[q, i] = a[i, q]
                for i in range(n):
                    vip = v[i, p]
                    viq = v[i, q]
                    v[i, p] = vip - s * (viq + tau * vip)
                    v[i, q] = viq + s * (vip - tau * viq)
        sweeps += 1
    return sweeps
