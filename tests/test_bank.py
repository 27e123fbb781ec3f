import json

import numpy as np
import pytest

from conftest import (
    CONFIG_DIR,
    EXAMPLE_ELEMENTS,
    PARAM_RANGES,
    both_axes,
    bundled_banks,
    element_primitives,
    element_values,
    error_derivatives,
    python_impl,
    unchecked_element,
)
from vrgrid._kernels import ELEMENT_KINDS, element_value
from vrgrid.bank import (
    _PROBE_XS,
    MAX_ELEMENTS_PER_AXIS,
    SectorViolation,
    VrBank,
    VrBranch,
    VrElement,
    bank_fingerprint,
    bank_values,
    branch_primitive_values,
    branch_values,
    classify_bank,
    flatten_bank,
)


def test_all_kinds_cover_the_table():
    # a kind added to vrgrid._kernels.ELEMENT_KINDS must get a row of conftest.EXAMPLE_TABLE
    assert [e.kind for e in EXAMPLE_ELEMENTS] == list(ELEMENT_KINDS)
    for kind, ranges in PARAM_RANGES.items():
        assert len(ranges) == len(ELEMENT_KINDS[kind].params), kind


def test_eval_element_examples():
    assert element_values(VrElement("linear", 2.0), [3.0]) == [6.0]
    assert element_values(VrElement("cubic", 1.0), [2.0]) == [8.0]
    assert element_values(VrElement("sinh", 1.0, 1.0), [0.0]) == [0.0]
    assert element_values(VrElement("saturation", 2.0, 1.0), [5.0]) == [2.0]
    assert element_values(VrElement("saturation", 2.0, 1.0), [-5.0]) == [-2.0]


def test_element_construction_rejects_bad_params():
    with pytest.raises(ValueError):
        VrElement("linear", -1.0)
    with pytest.raises(ValueError):
        VrElement("cubic", 0.0)
    with pytest.raises(ValueError):
        VrElement("sinh", 1.0, -2.0)
    with pytest.raises(ValueError):
        VrElement("linear", 1.0, 5.0)  # spurious second parameter
    with pytest.raises(ValueError):
        VrElement("sigmoid", 1.0)


def test_eval_branch_examples():
    ident = both_axes((VrElement("linear", 1.0),))
    np.testing.assert_array_equal(branch_values(ident, [(3.0, -2.0)]), [[3.0, -2.0]])

    series = both_axes((VrElement("linear", 1.0), VrElement("linear", 2.0)))
    np.testing.assert_array_equal(branch_values(series, [(1.0, -4.0)]), [[3.0, -12.0]])

    mixed = both_axes((VrElement("linear", 1.0), VrElement("cubic", 1.0)))
    np.testing.assert_array_equal(branch_values(mixed, [(1.0, 2.0)]), [[2.0, 10.0]])


def test_eval_bank_examples():
    np.testing.assert_array_equal(bank_values(VrBank(()), [(5.0, -3.0)]), [[0.0, 0.0]])
    b = both_axes((VrElement("linear", 1.0), VrElement("cubic", 1.0)))
    one = bank_values(VrBank((b,)), [(1.5, 0.5)])
    np.testing.assert_array_equal(one, [[1.5 + 1.5 ** 3, 0.5 + 0.5 ** 3]])
    two = bank_values(VrBank((b, b)), [(1.5, 0.5)])
    np.testing.assert_allclose(two, 2.0 * one, rtol=1e-15)


def test_per_axis_branch():
    b = VrBranch((VrElement("linear", 1.0),), (VrElement("linear", 3.0),))
    assert not b.same_both_axes
    np.testing.assert_array_equal(branch_values(b, [(2.0, 2.0)]), [[2.0, 6.0]])


def test_element_primitive_examples():
    assert element_primitives(VrElement("linear", 2.0), [3.0]) == [9.0]
    for e in EXAMPLE_ELEMENTS:
        assert element_primitives(e, [0.0]) == [0.0]


def _trapezoid_oracle(e, x, target=1e-10):
    """Adaptive doubling trapezoid on [0, x]; independent of the closed forms."""
    if x == 0.0:
        return 0.0
    n = 64
    prev = None
    for _ in range(18):
        ts = np.linspace(0.0, x, n + 1)
        vals = element_values(e, ts)
        est = np.trapezoid(vals, ts)
        if prev is not None and abs(est - prev) <= target * max(1.0, abs(est)):
            return est
        prev = est
        n *= 2
    return est


def test_element_primitive_matches_quadrature(rng):
    makers = [
        lambda r: VrElement("linear", r.uniform(0.1, 3.0)),
        lambda r: VrElement("cubic", r.uniform(0.1, 3.0)),
        lambda r: VrElement("sinh", r.uniform(0.1, 3.0), r.uniform(0.1, 3.0)),
        lambda r: VrElement("tanh", r.uniform(0.1, 3.0), r.uniform(0.1, 3.0)),
        lambda r: VrElement("saturation", r.uniform(0.1, 3.0), r.uniform(0.2, 2.0)),
    ]
    for i in range(100):
        e = makers[i % len(makers)](rng)
        x = rng.uniform(-5.0, 5.0)
        oracle = _trapezoid_oracle(e, x)
        assert element_primitives(e, [x])[0] == pytest.approx(oracle, abs=1e-8, rel=1e-8)


def test_vectorized_matches_scalar(rng):
    """Each row of the kind table has a distinct code, and its vector map
    matches the scalar kernel that the integrators run."""
    assert len({row.code for row in ELEMENT_KINDS.values()}) == len(ELEMENT_KINDS)
    kernel = python_impl(element_value)
    xs = rng.uniform(-8.0, 8.0, 64)
    for e in EXAMPLE_ELEMENTS:
        vals = element_values(e, xs)
        for i, x in enumerate(xs):
            assert vals[i] == pytest.approx(kernel(e.code, e.p1, e.p2, x), rel=1e-14, abs=1e-14)


def test_oddness_property(rng):
    xs = rng.uniform(0.0, 50.0, 200)
    for e in EXAMPLE_ELEMENTS:
        np.testing.assert_allclose(element_values(e, -xs), -element_values(e, xs), rtol=1e-14)


def test_sector_property_never_fires(rng):
    # 1e5 random (element, point) draws: x * r(x) > 0 away from zero
    makers = [
        lambda r: VrElement("linear", r.uniform(1e-3, 10.0)),
        lambda r: VrElement("cubic", r.uniform(1e-3, 10.0)),
        lambda r: VrElement("sinh", r.uniform(1e-3, 5.0), r.uniform(1e-3, 2.0)),
        lambda r: VrElement("tanh", r.uniform(1e-3, 5.0), r.uniform(1e-3, 2.0)),
        lambda r: VrElement("saturation", r.uniform(1e-3, 10.0), r.uniform(1e-2, 5.0)),
    ]
    for maker in makers:
        for _ in range(20):
            e = maker(rng)
            xs = rng.uniform(-100.0, 100.0, 1000)
            xs = xs[xs != 0.0]
            assert np.all(xs * element_values(e, xs) > 0.0)
    # and the sampled classifier never raises on well-formed banks
    for bank in bundled_banks().values():
        classify_bank(bank)


def test_primitive_monotonicity():
    xs = np.linspace(0.0, 30.0, 400)
    for e in EXAMPLE_ELEMENTS:
        prims = element_primitives(e, xs)
        assert np.all(prims >= 0.0)
        assert np.all(np.diff(prims) >= 0.0)
        np.testing.assert_allclose(element_primitives(e, -xs), prims, rtol=1e-13)


def test_added_dissipation(rng, p_nominal):
    """Appending any sector element strictly decreases d/dt |x|^2 pointwise."""
    p = p_nominal
    base = VrBank((both_axes((VrElement("linear", 0.5),)),))
    extended = VrBank((both_axes((VrElement("linear", 0.5), VrElement("tanh", 2.0, 0.3))),))
    states = rng.uniform(-50.0, 50.0, (10_000, 2))
    e = VrElement("tanh", 2.0, 0.3)
    vals = np.column_stack([element_values(e, states[:, 0]), element_values(e, states[:, 1])])
    assert np.all(np.einsum("ni,ni->n", states, vals) > 0.0)

    zeros = np.zeros_like(states)
    dv_base = 2.0 * np.einsum("ni,ni->n", states, error_derivatives(p, states, base, zeros))
    dv_ext = 2.0 * np.einsum("ni,ni->n", states, error_derivatives(p, states, extended, zeros))
    assert np.all(dv_ext < dv_base)


def test_classify_bank():
    lin = VrBank((both_axes((VrElement("linear", 1.0),)),))
    assert classify_bank(lin) is None
    bounded = VrBank((both_axes((VrElement("tanh", 1.0, 1.0),)),))
    assert classify_bank(bounded) is None
    mixed = VrBank((
        both_axes((VrElement("saturation", 2.0, 1.0),)),
        VrBranch((VrElement("cubic", 1.0),), (VrElement("sinh", 0.5, 2.0),)),
    ))
    assert classify_bank(mixed) is None

    # x * k * x**3 underflows to 0 on the smallest probes, so x * r(x) > 0 fails
    tiny = VrBank((both_axes((VrElement("linear", 1.0),)), both_axes((VrElement("cubic", 1e-300),))))
    with pytest.raises(SectorViolation) as err:
        classify_bank(tiny)
    assert err.value.branch == 1
    assert 1e-7 <= abs(err.value.sample) < 1e-5


def test_classifier_names_violating_branch():
    bad = unchecked_element("linear", -1.0)
    bank = VrBank((both_axes((VrElement("linear", 1.0),)), both_axes((bad,))))
    with pytest.raises(SectorViolation) as err:
        classify_bank(bank)
    assert err.value.branch == 1
    assert err.value.axis in ("d", "q")
    assert "sector violation" in str(err.value)


@pytest.mark.parametrize("d, q, axis", [
    ((VrElement("linear", 1.0),), (unchecked_element("linear", -1.0),), "q"),
    ((VrElement("cubic", 1e-300),), (unchecked_element("linear", -1.0),), "d"),
    ((VrElement("linear", 1.0), unchecked_element("cubic", -1.0)), (VrElement("tanh", 1.0, 1.0),), "d"),
])
def test_classify_bank_first_violation(d, q, axis):
    """The first failing sample, d axis before q, as a per-axis sum finds it."""
    bank = VrBank((both_axes((VrElement("linear", 1.0),)), VrBranch(d, q)))
    elements = d if axis == "d" else q
    vals = sum(element_values(e, _PROBE_XS) for e in elements)
    i = int(np.flatnonzero(~(_PROBE_XS * vals > 0.0))[0])
    with pytest.raises(SectorViolation) as err:
        classify_bank(bank)
    assert (err.value.branch, err.value.axis) == (1, axis)
    assert (err.value.sample, err.value.value) == (_PROBE_XS[i], vals[i])


def test_flatten_bank_roundtrip(banks):
    bank = banks["multi_branch"]
    codes_d, p1_d, p2_d, codes_q, p1_q, p2_q = flatten_bank(bank)
    assert codes_d.shape == p1_d.shape == p2_d.shape
    assert len(codes_d) == sum(len(b.elements_d) for b in bank.branches)
    from vrgrid._kernels import series_sum

    x = 1.7
    total = series_sum(codes_d, p1_d, p2_d, x)
    assert total == pytest.approx(bank_values(bank, [(x, 0.0)])[0, 0], rel=1e-14)


def test_bank_bounds_elements_per_axis():
    """An axis may sum at most MAX_ELEMENTS_PER_AXIS elements over all branches."""
    one = VrElement("linear", 1.0)
    limit = MAX_ELEMENTS_PER_AXIS
    assert limit == 256
    VrBank((both_axes((one,) * limit),))
    with pytest.raises(ValueError, match="axis d sums 257 elements"):
        VrBank((both_axes((one,) * (limit + 1)),))
    with pytest.raises(ValueError, match="axis q sums 257 elements"):
        VrBank((VrBranch((one,), (one,) * 128), VrBranch((one,), (one,) * 129)))


@pytest.mark.parametrize("scenario", ["scenario1", "scenario2"])
def test_default_banks_are_the_bundled_banks(scenario):
    """configs/<scenario> bundles the repo-default gain choices, name by name."""
    lin, cub = VrElement("linear", 1.0), VrElement("cubic", 0.25)
    default_banks = {
        "linear": VrBank((both_axes((VrElement("linear", 2.0),)),)),
        "cubic": VrBank((both_axes((VrElement("cubic", 0.5),)),)),
        "hybrid": VrBank((both_axes((lin, cub)),)),
        "sinh": VrBank((both_axes((VrElement("sinh", 1.0, 1.0),)),)),
        "multi_branch": VrBank((
            both_axes((lin, cub)),
            both_axes((VrElement("sinh", 0.5, 0.5), VrElement("tanh", 5.0, 0.2))),
        )),
    }
    assert bundled_banks(scenario) == default_banks


def test_config_roundtrip_and_fingerprint(tmp_path, banks):
    """A bank's ``to_config`` record, put in a config, loads back as the same bank."""
    from vrgrid.cli import load_config

    doc = json.loads((CONFIG_DIR / "scenario1" / "linear.json").read_text())
    per_axis = VrBank((VrBranch((VrElement("linear", 2.0),), (VrElement("tanh", 5.0, 0.2),)),))
    path = tmp_path / "bank.json"
    for bank in [*banks.values(), per_axis]:
        path.write_text(json.dumps({**doc, "bank": bank.to_config()}))
        again = load_config(path).bank
        assert again == bank
        assert bank_fingerprint(again) == bank_fingerprint(bank)
    a = bank_fingerprint(banks["linear"])
    b = bank_fingerprint(banks["cubic"])
    assert a != b


def test_vectorized_bank_helpers(rng, banks):
    """bank_values against series_sum over flatten_bank, and the per-axis
    wiring of branch_primitive_values."""
    from vrgrid._kernels import series_sum

    bank = VrBank((
        *banks["multi_branch"].branches,
        VrBranch((VrElement("saturation", 2.0, 1.5),), (VrElement("linear", 0.5), VrElement("cubic", 0.1))),
    ))
    codes_d, p1_d, p2_d, codes_q, p1_q, p2_q = flatten_bank(bank)
    pts = rng.uniform(-20.0, 20.0, (100, 2))
    bulk = bank_values(bank, pts)
    for i in range(100):
        assert bulk[i, 0] == pytest.approx(series_sum(codes_d, p1_d, p2_d, pts[i, 0]), rel=1e-14)
        assert bulk[i, 1] == pytest.approx(series_sum(codes_q, p1_q, p2_q, pts[i, 1]), rel=1e-14)

    branch = bank.branches[-1]
    prims = branch_primitive_values(branch, pts)
    np.testing.assert_array_equal(prims[:, 0], element_primitives(VrElement("saturation", 2.0, 1.5), pts[:, 0]))
    np.testing.assert_allclose(
        prims[:, 1],
        element_primitives(VrElement("linear", 0.5), pts[:, 1])
        + element_primitives(VrElement("cubic", 0.1), pts[:, 1]),
        rtol=1e-15,
    )
