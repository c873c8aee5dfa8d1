"""Kernel profile, normalization and ball quadrature checks.

Fixture values in this module were pinned from an independent
scipy.integrate.quad oracle run (see scripts/make_fixtures.py); the library
route is an in-package composite Gauss-Legendre refinement, so the two
numbers come from genuinely different integrators.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqmollify import kernel as kn

# scipy.integrate.quad oracle, epsabs=1e-14
LAMBDA_ORACLE = {
    1: 1.2069003224378763,
    2: 1.2681121611275961,
    3: 1.1990039070192136,
}
# int f_eps(y) |y|^2 dy at eps = 1, same oracle
SECOND_MOMENT_ORACLE = {
    1: 0.15811363626379818,
    2: 0.26131120342055869,
    3: 0.3350869619726019,
}


def test_profile_values():
    assert kn.unit_bump(0.0) == 1.0
    assert kn.unit_bump(1.0) == 0.0
    assert kn.unit_bump(-1.0) == 0.0
    assert kn.unit_bump(2.0) == 0.0
    # even function
    assert kn.unit_bump(0.37) == kn.unit_bump(-0.37)
    prof = kn.BumpProfile.for_dimension(2)
    assert prof.psi(0.0) == pytest.approx(1.0 / LAMBDA_ORACLE[2], rel=1e-12)


def test_profile_edge_guard_is_finite():
    # values hugging the support edge must neither warn nor overflow
    ts = 1.0 - 10.0 ** -np.arange(4, 18.0)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        vals = kn.unit_bump(ts)
    assert np.all(vals >= 0.0)
    assert vals[-1] == 0.0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_normalization_against_oracle(n):
    assert kn.normalization_constant(n) == pytest.approx(LAMBDA_ORACLE[n], rel=1e-12, abs=0)


def test_normalization_rejects_bad_dimension():
    with pytest.raises(ValueError):
        kn.normalization_constant(0)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("eps", [0.05, 0.1, 0.2])
def test_kernel_mass(n, eps):
    k = kn.MollifierKernel.create(n, eps)
    assert abs(k.mass() - 1.0) <= 1e-6


@pytest.mark.parametrize("n", [1, 2, 3])
def test_doubling_level_at_least_halves_mass_error(n):
    errs = [abs(kn.MollifierKernel.create(n, 0.1, level=lv).mass() - 1.0) for lv in (2, 3, 4)]
    for a, b in zip(errs, errs[1:]):
        assert b <= 0.5 * a + 1e-14


@pytest.mark.parametrize("n", [1, 2, 3])
def test_support_is_exact(n):
    k = kn.MollifierKernel.create(n, 0.1)
    on_edge = np.zeros(n)
    on_edge[0] = 0.1
    assert k.density(on_edge) == 0.0
    assert k.density(on_edge * 1.7) == 0.0
    inside = np.zeros(n)
    inside[0] = 0.05
    assert k.density(inside) > 0.0


def test_density_radial_through_norm():
    # signed permutations preserve the float norm bit for bit, so the kernel
    # value is identical, not merely close
    k = kn.MollifierKernel.create(2, 0.3)
    x = np.array([0.11, -0.07])
    rot = np.array([-0.07, -0.11])  # x rotated by a quarter turn
    assert k.density(x) == k.density(rot)


@settings(max_examples=50, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_density_depends_on_norm_only(a, b):
    k = kn.MollifierKernel.create(2, 0.5)
    x = np.array([a, b])
    r = float(np.linalg.norm(x))
    direct = k.density(x)
    radial = k.density(np.array([r, 0.0]))
    assert direct == pytest.approx(radial, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_weights_sum_to_ball_volume(n):
    rule = kn.ball_quadrature(0.17, n, level=3)
    assert abs(rule.weights.sum() - kn.sphere_area(n) / n * 0.17**n) <= 1e-10
    assert np.all(np.linalg.norm(rule.nodes, axis=1) <= 0.17 + 1e-15)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_odd_moments_vanish(n):
    k = kn.MollifierKernel.create(n, 0.1, level=3)
    rule = k.quadrature
    f = k.density(rule.nodes)
    for axis in range(n):
        moment = float(np.dot(rule.weights * f, rule.nodes[:, axis]))
        assert abs(moment) <= 1e-10


@pytest.mark.parametrize("n", [1, 2, 3])
def test_second_moment_against_oracle(n):
    for eps in (0.1, 0.2):
        k = kn.MollifierKernel.create(n, eps, level=8 if n == 1 else 4)
        rule = k.quadrature
        f = k.density(rule.nodes)
        rsq = np.sum(rule.nodes ** 2, axis=1)
        moment = float(np.dot(rule.weights * f, rsq))
        assert moment == pytest.approx(eps ** 2 * SECOND_MOMENT_ORACLE[n], rel=1e-7)


def test_smoothness_proxy_derivatives_vanish_at_edge():
    # central differences of psi of orders 1..3 stay bounded inside the
    # support and fall to zero approaching the edge
    prof = kn.BumpProfile.for_dimension(1)
    h = 1e-4

    def d1(t):
        return (prof.psi(t + h) - prof.psi(t - h)) / (2 * h)

    def d2(t):
        return (prof.psi(t + h) - 2 * prof.psi(t) + prof.psi(t - h)) / h ** 2

    def d3(t):
        return (d2(t + h) - d2(t - h)) / (2 * h)

    interior = np.linspace(-0.9, 0.9, 37)
    for t in interior:
        assert abs(d1(t)) < 10.0
        assert abs(d2(t)) < 100.0
        assert abs(d3(t)) < 1e4
    edge_vals = [abs(d3(1.0 - 10.0 ** -k)) for k in (1, 2, 3)]
    assert edge_vals[-1] < edge_vals[0]
    assert edge_vals[-1] < 1e-6


def test_convex_weights_sum_to_one():
    k = kn.MollifierKernel.create(2, 0.1)
    _, w = k.convex_weights()
    assert abs(float(np.sum(w)) - 1.0) <= 1e-14
    assert np.all(w >= 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0])
def test_convex_weights_refuse_a_mass_that_is_not_positive_and_finite(monkeypatch, bad):
    # a NaN total fails total <= 0.0 as well as total > 0.0; only the
    # second form refuses it
    k = kn.MollifierKernel.create(2, 0.1)
    monkeypatch.setattr(k, "density", lambda x: np.full(len(x), bad))
    with pytest.raises(kn.QuadratureError, match="mass"):
        k.convex_weights()


@pytest.mark.parametrize("n, level, symmetric", [
    (1, 2, True), (2, 1, True), (2, 2, True), (2, 3, True), (3, 1, False), (3, 2, False)])
def test_signed_symmetry_is_decided_once_per_kernel(monkeypatch, n, level, symmetric):
    # a 3-D rule's azimuthal rings are not closed under x <-> z
    calls = []
    permutes = kn._permutes_nodes
    monkeypatch.setattr(kn, "_permutes_nodes",
                        lambda kernel, mats: calls.append(len(mats)) or permutes(kernel, mats))
    k = kn.MollifierKernel.create(n, 0.1, level=level)
    assert [k._signed_symmetric for _ in range(3)] == [symmetric] * 3
    assert calls == [len(kn._signed_permutations(n))] == [2 ** n * math.factorial(n) - 1]


def test_quadrature_rejects_bad_inputs():
    with pytest.raises(ValueError):
        kn.ball_quadrature(-0.1, 2)
    with pytest.raises(ValueError):
        kn.ball_quadrature(0.1, 4)
    with pytest.raises(ValueError):
        kn.MollifierKernel.create(2, 0.0)
