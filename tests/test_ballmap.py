"""Radial profile, ball diffeomorphism and shift map checks.

The bridge values below were pinned by direct evaluation of the chosen
blend before the operators were built on top of it; they guard against
accidental changes to the profile, which every downstream fixture depends
on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqmollify import ballmap as bm

# direct-evaluation fixtures of the frozen bridge
BRIDGE_AT_HALF = 27.549075016572129
BRIDGE_AT_045 = 4.4360183608033266
BRIDGE_AT_06 = 517.46912222622609
DERIVATIVE_AT_HALF = 843.02132551373575


def test_profile_pieces():
    # identity piece, exact
    assert bm.radial_profile(0.2) == 0.2
    assert bm.radial_profile(1.0 / 3.0) == 1.0 / 3.0
    assert bm.radial_profile(bm.BRIDGE_LO) == bm.BRIDGE_LO
    # frozen bridge values
    assert bm.radial_profile(0.45) == pytest.approx(BRIDGE_AT_045, rel=1e-14)
    assert bm.radial_profile(0.5) == pytest.approx(BRIDGE_AT_HALF, rel=1e-14)
    assert bm.radial_profile(0.6) == pytest.approx(BRIDGE_AT_06, rel=1e-14)
    # pure exp branch from the window end onwards
    assert bm.radial_profile(2.0 / 3.0) == pytest.approx(np.exp(9.0), rel=1e-12)
    assert bm.radial_profile(0.7) == pytest.approx(np.exp(1.0 / 0.09), rel=1e-12)


def test_profile_domain_errors():
    with pytest.raises(bm.BallDomainError):
        bm.radial_profile(0.0)
    with pytest.raises(bm.BallDomainError):
        bm.radial_profile(-0.3)
    with pytest.raises(bm.BallDomainError):
        bm.radial_profile(0.97)  # overflow guard


def test_profile_derivative_matches_finite_differences():
    h = 1e-7
    for r in (0.2, 0.4, 0.5, 0.62, 0.7, 0.8):
        fd = (bm.radial_profile(r + h) - bm.radial_profile(r - h)) / (2 * h)
        assert bm.radial_profile_derivative(r) == pytest.approx(fd, rel=1e-6)
    assert bm.radial_profile_derivative(0.5) == pytest.approx(DERIVATIVE_AT_HALF, rel=1e-13)


def test_monotonicity_certificate():
    # everything downstream assumes a strictly increasing profile
    r = np.linspace(1e-6, bm.R_OVERFLOW - 1e-9, 10001)
    assert np.all(bm.radial_profile_derivative(r) > 0.0)


def test_inverse_round_trip_log_spaced():
    s = np.logspace(-2, 6, 20)
    r = bm.radial_profile_inverse(s)
    assert np.all((r > 0) & (r < 1))
    back = bm.radial_profile(r)
    assert np.max(np.abs(back - s) / np.maximum(1.0, s)) <= 1e-10


def test_inverse_exact_passthrough_small():
    for s in (0.1, 0.25, 1.0 / 3.0):
        assert bm.radial_profile_inverse(s) == s


def test_inverse_closed_form_large():
    # on the exp branch the inverse has a closed form
    s = 1e9
    r = bm.radial_profile_inverse(s)
    assert r == 1.0 - 1.0 / np.sqrt(np.log(s))


def test_smooth_step_shape():
    assert bm.smooth_step(-1.0) == 0.0
    assert bm.smooth_step(0.0) == 0.0
    assert bm.smooth_step(1.0) == 1.0
    assert bm.smooth_step(2.0) == 1.0
    assert bm.smooth_step(0.5) == pytest.approx(0.5, abs=1e-15)
    u = np.linspace(0.01, 0.99, 199)
    vals = bm.smooth_step(u)
    assert np.all(np.diff(vals) >= 0.0)
    mid = bm.smooth_step(np.linspace(0.15, 0.85, 71))
    assert np.all(np.diff(mid) > 0.0)  # saturation to exactly 0/1 only at the ends
    # derivative consistent with FD
    h = 1e-6
    for t in (0.2, 0.5, 0.8):
        fd = (bm.smooth_step(t + h) - bm.smooth_step(t - h)) / (2 * h)
        assert bm._step(np.array([t]), True)[1][0] == pytest.approx(fd, rel=1e-7)
    # below about 1e-162 exp(-1/u) and u**2 both underflow: flat, not 0/0
    for t in (5e-324, 1e-200):
        assert bm._step(np.array([t]), True)[1][0] == 0.0


def test_compress_expand_round_trip():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(300, 2)) * np.exp(rng.uniform(-2, 6, size=(300, 1)))
    u = bm.ball_compress(x)
    assert np.all(np.linalg.norm(u, axis=1) < 1.0)
    back = bm.ball_expand(u)
    rel = np.linalg.norm(back - x, axis=1) / np.maximum(1.0, np.linalg.norm(x, axis=1))
    assert np.max(rel) <= 1e-9


def test_compress_identity_near_origin():
    x = np.array([0.21, -0.11])
    assert np.array_equal(bm.ball_compress(x), x)
    assert np.array_equal(bm.ball_expand(x), x)
    assert np.array_equal(bm.ball_compress(np.zeros(3)), np.zeros(3))


def test_expand_rejects_boundary():
    with pytest.raises(bm.BallDomainError):
        bm.ball_expand(np.array([1.0 - 1e-4, 0.0]))
    with pytest.raises(bm.BallDomainError):
        bm.ball_expand(np.array([1.2, 0.0]))


@settings(max_examples=60, deadline=None)
@given(
    st.floats(-0.9, 0.9),
    st.floats(-0.9, 0.9),
    st.floats(-0.9, 0.9),
)
def test_expand_compress_round_trip_property(a, b, c):
    u = np.array([a, b, c])
    r = float(np.linalg.norm(u))
    if r >= 0.95:  # stay clear of the overflow guard
        return
    x = bm.ball_expand(u)
    with np.errstate(over="ignore"):
        if not np.isfinite(np.linalg.norm(x)):
            # past r = 0.9469 the expansion exceeds 1.3e154 and |x|^2 overflows
            with pytest.raises(bm.BallDomainError):
                bm.ball_compress(x)
            return
    back = bm.ball_compress(x)
    assert np.linalg.norm(back - u) <= 1e-9 * max(1.0, np.linalg.norm(x))


# the three profile regimes: identity up to BRIDGE_LO, the bridge, and the
# exp branch up to R_OVERFLOW
REGIMES = ((0.0, bm.BRIDGE_LO), (bm.BRIDGE_LO, bm.BRIDGE_HI),
           (bm.BRIDGE_HI, bm.R_OVERFLOW))


@st.composite
def regime_points(draw):
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        lo, hi = REGIMES[draw(st.integers(0, 2))]
        radius = draw(st.floats(lo, hi, exclude_max=True))
        angle = draw(st.floats(0.0, 2.0 * np.pi))
        rows.append(radius * np.array([np.cos(angle), np.sin(angle)]))
    return np.array(rows)


@settings(max_examples=80, deadline=None)
@given(regime_points())
def test_twins_agree_bit_for_bit_in_every_regime(u):
    u = u[np.linalg.norm(u, axis=1) < bm.R_OVERFLOW]
    assert np.array_equal(bm.ball_expand(u), bm._expand_with_jacobian(u)[0])
    # expanding u puts the compression inputs in the same three regimes;
    # compression needs |x|^2 to stay finite
    x = bm.ball_expand(u)
    with np.errstate(over="ignore"):
        x = x[np.isfinite(np.sum(x * x, axis=1))]
    assert np.array_equal(bm.ball_compress(x), bm._compress_with_jacobian(x)[0])


def test_shift_identity_outside_is_bit_exact():
    y = np.array([0.07, -0.02])
    pts = np.array([
        [1.0, 0.0],
        [0.95, 0.31],
        [bm.R_IDENTITY, 0.0],
        [3.7, -2.2],
    ])
    out = bm.shift_points(pts, y)
    assert np.array_equal(out, pts)
    out2, jac = bm.shift_with_jacobian(pts, np.broadcast_to(y, pts.shape).copy())
    assert np.array_equal(out2, pts)
    assert np.array_equal(jac, np.broadcast_to(np.eye(2), jac.shape))


def test_shift_is_translation_near_origin():
    y = np.array([0.05, 0.02])
    x = np.array([0.12, -0.2])
    # both x and x+y inside the identity region: exact translation
    assert np.array_equal(bm.shift_points(x, y), x + y)
    _, jac = bm.shift_with_jacobian(x, y)
    assert np.array_equal(jac, np.eye(2))


def test_shift_group_law_and_inverse():
    rng = np.random.default_rng(11)
    x = rng.uniform(-0.9, 0.9, size=(400, 2))
    y = np.array([0.04, -0.015])
    z = np.array([-0.02, 0.03])
    lhs = bm.shift_points(bm.shift_points(x, y), z)
    rhs = bm.shift_points(x, y + z)
    assert np.max(np.linalg.norm(lhs - rhs, axis=1)) <= 1e-8
    back = bm.shift_points(bm.shift_points(x, y), -y)
    assert np.max(np.linalg.norm(back - x, axis=1)) <= 1e-8


@st.composite
def disc_points(draw):
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        radius = draw(st.floats(0.0, bm.R_IDENTITY, exclude_max=True))
        angle = draw(st.floats(0.0, 2.0 * np.pi))
        rows.append(radius * np.array([np.cos(angle), np.sin(angle)]))
    return np.array(rows)


@settings(max_examples=80, deadline=None)
@given(disc_points(), st.floats(0.0, 0.2), st.floats(0.0, 2.0 * np.pi))
def test_shift_group_law_property(x, size, angle):
    # s_{-y} undoes s_y on points inside R_IDENTITY, for |y| <= 0.2
    y = size * np.array([np.cos(angle), np.sin(angle)])
    back = bm.shift_points(bm.shift_points(x, y), -y)
    assert np.max(np.linalg.norm(back - x, axis=1)) <= 1e-10


def test_shift_stays_inside_ball():
    rng = np.random.default_rng(3)
    x = rng.uniform(-0.99, 0.99, size=(500, 2))
    x = x[np.linalg.norm(x, axis=1) < 1.0]
    out = bm.shift_points(x, np.array([0.09, -0.04]))
    assert np.all(np.linalg.norm(out, axis=1) < 1.0)


def test_shrinking_shifts_sweep():
    # sup over a fixed grid of |s_y - id| shrinks with |y| down to 1e-4,
    # allowing 5% slack per step, and ends below 1e-3
    grid_1d = np.linspace(-0.95, 0.95, 21)
    X = np.array([[a, b] for a in grid_1d for b in grid_1d])
    X = X[np.linalg.norm(X, axis=1) < 1.0]
    norms = []
    size = 0.128
    while size >= 1e-4:
        y = np.array([size, 0.0]) / np.sqrt(2.0) + np.array([0.0, size]) / np.sqrt(2.0)
        moved = bm.shift_points(X, y)
        norms.append(np.max(np.linalg.norm(moved - X, axis=1)))
        size /= 2.0
    for a, b in zip(norms, norms[1:]):
        assert b <= 1.05 * a
    assert norms[-1] < 1e-3


def test_shift_jacobian_matches_finite_differences():
    rng = np.random.default_rng(5)
    pts = rng.uniform(-0.9, 0.9, size=(200, 2))
    y = np.array([0.03, -0.05])
    _, jac = bm.shift_with_jacobian(pts, np.broadcast_to(y, pts.shape).copy())
    h = 1e-6
    worst = 0.0
    for axis in range(2):
        e = np.zeros(2)
        e[axis] = h
        fd = (bm.shift_points(pts + e, y) - bm.shift_points(pts - e, y)) / (2 * h)
        worst = max(worst, float(np.max(np.abs(fd - jac[:, :, axis]))))
    assert worst <= 1e-5


def test_shift_jacobian_in_three_dimensions():
    rng = np.random.default_rng(9)
    pts = rng.uniform(-0.5, 0.5, size=(50, 3))
    y = np.array([0.02, 0.01, -0.03])
    moved, jac = bm.shift_with_jacobian(pts, np.broadcast_to(y, pts.shape).copy())
    h = 1e-6
    for axis in range(3):
        e = np.zeros(3)
        e[axis] = h
        fd = (bm.shift_points(pts + e, y) - bm.shift_points(pts - e, y)) / (2 * h)
        assert np.max(np.abs(fd - jac[:, :, axis])) <= 1e-5


def _projector_jacobians(points, value_over_r, derivative, identity_mask):
    """Reference radial Jacobians built from explicit identity and radial
    projector stacks: tang * (I - P) + rad * P."""
    n = points.shape[1]
    out = np.broadcast_to(np.eye(n), (points.shape[0], n, n)).copy()
    move = ~identity_mask
    unit = points[move] / np.linalg.norm(points[move], axis=1)[:, None]
    proj = unit[:, :, None] * unit[:, None, :]
    eye = np.broadcast_to(np.eye(n), proj.shape)
    out[move] = (value_over_r[move][:, None, None] * (eye - proj)
                 + derivative[move][:, None, None] * proj)
    return out


def _dense(radial_map, x):
    """A radial map's output with its Jacobian factors made a dense stack."""
    out, factors = radial_map(x)
    return out, bm._radial_jacobians(*factors)


def _assert_rows_close(new, ref, rel=1e-14):
    scale = np.max(np.abs(ref), axis=(1, 2))
    assert np.all(np.max(np.abs(new - ref), axis=(1, 2)) <= rel * scale)


@settings(max_examples=80, deadline=None)
@given(regime_points())
def test_closed_form_jacobians_match_projector_formula(u):
    # a radius drawn below R_OVERFLOW can still give a norm that rounds to it
    u = u[np.linalg.norm(u, axis=1) < bm.R_OVERFLOW]
    # identity rows take no part in the reference, so they get a dummy radius
    r = np.linalg.norm(u, axis=1)
    ident = r <= bm.BRIDGE_LO
    r = np.where(ident, 0.5, r)
    _, jac = _dense(bm._expand_with_jacobian, u)
    _assert_rows_close(jac, _projector_jacobians(
        u, bm.radial_profile(r) / r, bm.radial_profile_derivative(r), ident))
    # compression of the expanded rows walks back through the same regimes
    x = bm.ball_expand(u)
    with np.errstate(over="ignore"):
        x = x[np.isfinite(np.sum(x * x, axis=1))]
    s = np.linalg.norm(x, axis=1)
    ident = s <= bm.BRIDGE_LO
    s = np.where(ident, 1.0, s)
    rho, jac = _dense(bm._compress_with_jacobian, x)
    rho = np.where(ident, 0.5, np.linalg.norm(rho, axis=1))
    _assert_rows_close(jac, _projector_jacobians(
        x, rho / s, 1.0 / bm.radial_profile_derivative(rho), ident))
    # identity rows stay exact identities, not merely close ones
    assert np.array_equal(jac[ident], np.broadcast_to(np.eye(2), jac[ident].shape))


def test_identity_rows_are_exact_even_at_the_origin():
    pts = np.array([[0.0, 0.0], [0.2, -0.1], [0.5, 0.3], [-1e-300, 0.0]])
    radii = np.linalg.norm(pts, axis=1)
    ident = radii <= bm.BRIDGE_LO
    for radial_map in (bm._compress_with_jacobian, bm._expand_with_jacobian):
        _, jac = _dense(radial_map, pts)
        assert np.array_equal(jac[ident], np.broadcast_to(np.eye(2), (3, 2, 2)))
        assert np.array_equal(np.signbit(jac[ident]), np.zeros((3, 2, 2), dtype=bool))
    for pts in (np.zeros((3, 3)), np.array([[bm.BRIDGE_LO, 0.0]])):
        _, jac = _dense(bm._compress_with_jacobian, pts)
        assert np.array_equal(jac, np.broadcast_to(np.eye(pts.shape[1]), jac.shape))
        _, jac = _dense(bm._expand_with_jacobian, pts)
        assert np.array_equal(jac, np.broadcast_to(np.eye(pts.shape[1]), jac.shape))


@pytest.mark.parametrize("row", [[2e154, 0.0], [1e200, -1e200], [np.inf, 0.0],
                                 [0.1, np.nan]])
def test_nonfinite_norms_are_rejected_not_mapped(row):
    pts = np.array([[0.3, 0.1], row])
    for fn in (bm.ball_compress, bm._compress_with_jacobian, bm.ball_expand):
        with pytest.raises(bm.BallDomainError, match=r"1\.34e\+154.*row 1"):
            fn(pts)
    with pytest.raises(bm.BallDomainError, match="ball_compress"):
        bm.ball_compress(np.array(row))


def test_largest_finite_norm_still_compresses():
    x = np.array([1.3e154, 0.0])
    out = bm.ball_compress(x)
    assert np.all(np.isfinite(out)) and 0.9 < out[0] < 1.0


# the bridge window, its ends and the doubles a few ulps either side of them
WINDOW = np.concatenate([
    np.linspace(bm.BRIDGE_LO, bm.BRIDGE_HI, 2001),
    np.nextafter(bm.BRIDGE_LO, np.full(3, 1.0)) + np.array([0.0, 1.0, 4.0]) * np.spacing(bm.BRIDGE_LO),
    np.nextafter(bm.BRIDGE_HI, np.zeros(3)) - np.array([0.0, 1.0, 4.0]) * np.spacing(bm.BRIDGE_HI),
])


def test_fused_bridge_matches_the_separate_formulas():
    # value and slope from one set of exponentials must be bit for bit the
    # separate value and slope formulas
    u = bm._window(WINDOW)
    w = bm.smooth_step(u)
    dw = bm._step(u, True)[1] / (bm.BRIDGE_HI - bm.BRIDGE_LO)
    outer_derivative = bm._outer(WINDOW) * 2.0 / (1.0 - WINDOW) ** 3
    oracle = (1.0 - w) + w * outer_derivative + dw * (bm._outer(WINDOW) - WINDOW)
    value, slope = bm._bridge(WINDOW, derivative=True)
    assert np.array_equal(value, bm._bridge(WINDOW))
    assert np.array_equal(slope, oracle)
    # the step's derivative, evaluated inside (0, 1) only
    inside = (u > 0.0) & (u < 1.0)
    a, b = np.exp(-1.0 / u[inside]), np.exp(-1.0 / (1.0 - u[inside]))
    da, db = a / u[inside] ** 2, b / (1.0 - u[inside]) ** 2
    expected = np.zeros(u.shape)
    expected[inside] = (da * b + a * db) / (a + b) ** 2
    assert np.array_equal(bm._step(u, True)[1], expected)


def test_inverse_slope_is_the_profile_derivative_at_the_inverse():
    ulps = np.arange(-4.0, 5.0)
    s = np.concatenate([
        np.linspace(0.01, bm.BRIDGE_LO, 50),  # passthrough
        bm.BRIDGE_LO + ulps * np.spacing(bm.BRIDGE_LO),  # both sides of the bridge start
        np.geomspace(bm.BRIDGE_LO, bm._OUTER_AT_HI, 500),  # bridge
        bm._OUTER_AT_HI + ulps * np.spacing(bm._OUTER_AT_HI),  # both sides of the exp branch
        np.geomspace(bm._OUTER_AT_HI, 1e150, 50),  # exp branch
    ])
    rho, slope = bm.radial_profile_inverse(s, derivative=True)
    assert np.array_equal(rho, bm.radial_profile_inverse(s))
    assert np.array_equal(slope, bm.radial_profile_derivative(rho))
    assert bm.radial_profile_inverse(0.5, derivative=True) == (
        bm.radial_profile_inverse(0.5), bm.radial_profile_derivative(bm.radial_profile_inverse(0.5)))


def test_compress_jacobian_takes_the_newton_slope():
    rng = np.random.default_rng(7)
    direction = rng.normal(size=(3000, 2))
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    # norms spread over the passthrough, the bridge and the exp branch
    x = direction * np.geomspace(0.05, 1e12, 3000)[:, None]
    s = np.linalg.norm(x, axis=1)
    ident = s <= bm.BRIDGE_LO
    rho = bm.radial_profile_inverse(s)
    _, jac = _dense(bm._compress_with_jacobian, x)
    unit = np.where(ident[:, None], 0.0, x / s[:, None]).T
    assert np.array_equal(jac, bm._radial_jacobians(
        rho / s, 1 / bm.radial_profile_derivative(rho) - rho / s, unit))


def test_expansion_factors_are_the_profile_and_its_slope_bit_for_bit():
    # t and e come from one split of the radii; they must be bit for bit
    # what the two public views give, on every piece and a few ulps round
    # both window edges
    ulps = np.arange(-4.0, 5.0)
    radii = np.concatenate([np.linspace(0.01, 0.95, 2001),
                            bm.BRIDGE_LO + ulps * np.spacing(bm.BRIDGE_LO),
                            bm.BRIDGE_HI + ulps * np.spacing(bm.BRIDGE_HI)])
    on_axis = np.zeros((radii.shape[0], 2))
    on_axis[:, 0] = radii
    tilted = radii[:, None] * np.array([0.6, -0.8])
    x = np.concatenate([on_axis, tilted])
    r = bm._norms(x)
    assert np.array_equal(r[:radii.shape[0]], radii)
    _, (t, e, _) = bm._expand_with_jacobian(x)
    ratio = bm.radial_profile(r) / r
    assert np.array_equal(t, ratio)
    assert np.array_equal(e, bm.radial_profile_derivative(r) - ratio)


def test_live_row_compaction_puts_every_root_in_its_row():
    # rows converge at different sweeps; a scatter bug would put a root or
    # a slope in the wrong row
    s = np.random.default_rng(3).permutation(
        np.geomspace(bm.BRIDGE_LO * 1.0001, bm._OUTER_AT_HI * 0.9999, 10000))
    rho, slope = bm.radial_profile_inverse(s, derivative=True)
    assert np.array_equal(rho, [bm.radial_profile_inverse(v) for v in s])
    # the profile derivative is row by row, with no live-row bookkeeping
    assert np.array_equal(slope, bm.radial_profile_derivative(rho))


def test_newton_budget_exhausted_raises(monkeypatch):
    monkeypatch.setattr(bm, "_INVERSE_ITERATIONS", 2)
    with pytest.raises(bm.ConvergenceError, match="did not converge"):
        bm.radial_profile_inverse(np.geomspace(0.5, 500.0, 20))
    # repeated values must still raise, with and without the slope
    monkeypatch.setattr(bm, "_INVERSE_ITERATIONS", 1)
    for derivative in (False, True):
        with pytest.raises(bm.ConvergenceError, match="did not converge"):
            bm.radial_profile_inverse(np.repeat(np.geomspace(0.5, 500.0, 20), 3),
                                      derivative=derivative)


# bridge values strictly inside the bridge branch of the inverse
bridge_values = st.floats(bm.BRIDGE_LO * 1.0001, bm._OUTER_AT_HI * 0.9999)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(bridge_values, st.integers(1, 4)), min_size=1, max_size=12),
       st.integers(0, 2**32 - 1))
def test_repeated_values_invert_as_the_undeduplicated_newton(values, seed):
    # repeated values in any order must invert bit for bit as Newton run on
    # every row as given
    s = np.random.default_rng(seed).permutation(
        np.repeat([v for v, _ in values], [k for _, k in values]))
    rho, slope = bm.radial_profile_inverse(s, derivative=True)
    direct_rho, direct_slope = bm._invert_bridge(s)
    assert np.array_equal(rho, direct_rho)
    assert np.array_equal(slope, direct_slope)


def test_every_bridge_row_reaches_newton_once_in_input_order(monkeypatch):
    seen = []
    invert = bm._invert_bridge

    def spy(s):
        seen.append(s.copy())
        return invert(s)

    monkeypatch.setattr(bm, "_invert_bridge", spy)
    bridge = np.geomspace(0.5, 500.0, 7)
    s = np.random.default_rng(5).permutation(
        np.concatenate([np.repeat(bridge, 3), [0.2, 0.2, 1e6, 1e6]]))
    rho = bm.radial_profile_inverse(s)
    assert len(seen) == 1
    # all 21 bridge rows, repeats included, in input order
    assert np.array_equal(seen[0], s[np.isin(s, bridge)])
    assert np.array_equal(rho, [bm.radial_profile_inverse(v) for v in s])


def test_norms_sum_the_squares_in_component_order():
    # bit for bit np.linalg.norm over the last axis, whose regrouping as
    # x0² + (x1² + x2²) would move the last bit of many rows
    rng = np.random.default_rng(11)
    for n in (2, 3):
        x = rng.standard_normal((20000, n))
        for view in (x, np.asfortranarray(x), x[::3], x[:, ::-1]):
            assert np.array_equal(bm._norms(view), np.linalg.norm(view, axis=-1))


def test_squared_norms_sum_the_squares_in_component_order():
    # bit for bit np.sum(x**2, axis=-1) in every memory layout
    rng = np.random.default_rng(13)
    for n in (2, 3):
        x = rng.standard_normal((20000, n))
        for view in (x, np.asfortranarray(x), x[::3], x[:, ::-1]):
            assert np.array_equal(bm._squared_norms(view), np.sum(view**2, axis=-1))


def _component_major(x):
    """The same rows as ``x``, stored one component after another."""
    return np.ascontiguousarray(x.T).T


def _layout_points(n):
    # rows in every regime of both maps, up to a hair inside R_IDENTITY
    rng = np.random.default_rng(14 + n)
    radii = np.concatenate([[0.0, 0.2, bm.BRIDGE_LO], np.linspace(0.37, 0.62, 6),
                            [0.64, 0.7, 0.78, bm.R_IDENTITY * (1 - 1e-9)]])
    direction = rng.normal(size=(radii.shape[0], n))
    return radii[:, None] * direction / np.linalg.norm(direction, axis=1)[:, None]


@pytest.mark.parametrize("n", [2, 3])
def test_radial_maps_move_no_bit_with_the_input_layout(n):
    points = _layout_points(n)
    for fn in (bm._compress_with_jacobian, bm._expand_with_jacobian):
        rows, factors = fn(points)
        cols, col_factors = fn(_component_major(points))
        assert np.array_equal(rows, cols)
        assert all(np.array_equal(a, b) for a, b in zip(factors, col_factors))


@pytest.mark.parametrize("n", [2, 3])
def test_shift_blocks_move_no_bit_with_the_input_layout(n):
    points = _layout_points(n)
    shifts = np.random.default_rng(n).normal(size=(9, n)) * 0.1
    rows = list(bm._shift_blocks(points, shifts))
    cols = list(bm._shift_blocks(_component_major(points), shifts))
    assert len(rows) == len(cols) == 1
    for a, b in zip(rows[0], cols[0]):
        assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


def test_maps_and_shift_blocks_store_points_component_major():
    # one contiguous row per component, as the metric quadrature reads it;
    # the maps' results own their memory, so the next product can reuse it
    points = _layout_points(2)
    for fn in (bm.ball_compress, bm.ball_expand):
        out = fn(points)
        assert out.flags.f_contiguous and out.flags.owndata
    for _, moved, chain in bm._shift_blocks(points, np.full((5, 2), 0.05)):
        assert np.moveaxis(moved, -1, 0).flags.c_contiguous
        assert chain.flags.c_contiguous


def test_inverse_rejects_values_past_the_profile_range():
    # past the profile's value just below R_OVERFLOW the inverse would land
    # where the profile itself overflows
    for s in (1e300, np.inf, np.nan, np.nextafter(bm._PROFILE_MAX, np.inf)):
        for derivative in (False, True):
            with pytest.raises(bm.BallDomainError,
                               match=r"radial_profile_inverse.*2\.71676e\+271"):
                bm.radial_profile_inverse(np.array([1.0, s]), derivative=derivative)
    r = bm.radial_profile_inverse(bm._PROFILE_MAX)
    assert r < bm.R_OVERFLOW
    assert bm.radial_profile(r) == pytest.approx(bm._PROFILE_MAX, rel=1e-12)


# the step's and the bridge's formulas before they went mask-free, kept
# here as the bit-for-bit oracle; the step's derivative is zero wherever an
# exponential underflows
def _masked_flat_exp(u):
    out = np.zeros(u.shape)
    pos = u > 0.0
    # -1/u overflows to -inf for subnormal u; exp(-inf) is the exact 0
    with np.errstate(over="ignore"):
        out[pos] = np.exp(-1.0 / u[pos])
    return out


def _masked_step(u):
    a = _masked_flat_exp(u)
    b = _masked_flat_exp(1.0 - u)
    w = np.where(u >= 1.0, 1.0, np.where(u <= 0.0, 0.0, a / np.where(a + b > 0, a + b, 1.0)))
    with np.errstate(divide="ignore", invalid="ignore"):
        dw = (a / u ** 2 * b + a * (b / (1.0 - u) ** 2)) / (a + b) ** 2
    return w, np.where((a > 0.0) & (b > 0.0), dw, 0.0)


def _masked_bridge(r):
    w, dw = _masked_step((r - bm.BRIDGE_LO) / (bm.BRIDGE_HI - bm.BRIDGE_LO))
    outer = np.exp(1.0 / (1.0 - r) ** 2)
    dw /= bm.BRIDGE_HI - bm.BRIDGE_LO
    return ((1.0 - w) * r + w * outer,
            (1.0 - w) + w * (outer * 2.0 / (1.0 - r) ** 3) + dw * (outer - r))


def test_mask_free_bridge_sweep_matches_the_masked_formulas():
    ends = np.array([0.0, 1.0])[:, None] + np.arange(-4.0, 5.0) * np.spacing(1.0)
    u = np.concatenate([np.linspace(-2.0, 3.0, 100001), ends.ravel(), [0.0, 1.0],
                        [-np.inf, np.inf, -1e300, 1e300, 5e-324, 1e-200, 1.0 - 1e-16]])
    flat = np.concatenate([u, [np.nan]])
    assert np.array_equal(bm._flat_exp(flat), _masked_flat_exp(flat))
    with np.errstate(over="ignore"):  # the squares of +-1e300
        w, dw = bm._step(u, True)
        w_ref, dw_ref = _masked_step(u)
    np.testing.assert_array_equal(w, w_ref)
    np.testing.assert_array_equal(dw, dw_ref)
    assert np.array_equal(bm._step(u, False)[0], w_ref)
    r = np.concatenate([WINDOW, np.random.default_rng(11).uniform(
        bm.BRIDGE_LO, bm.BRIDGE_HI, 100000)])
    value, slope = bm._bridge(r, derivative=True)
    value_ref, slope_ref = _masked_bridge(r)
    assert np.array_equal(value, value_ref)
    assert np.array_equal(slope, slope_ref)
    assert np.array_equal(bm._bridge(r), value_ref)


# the bridge Newton as it stood before its first step was shared, its
# evaluation went in place and its compaction was amortized, kept here as
# the bit-for-bit oracle; ``bisected`` collects the rows each sweep sends
# to the bisection fallback
def _oracle_flat_exp(u):
    with np.errstate(divide="ignore", over="ignore"):
        out = np.divide(-1.0, u)
        np.exp(out, out=out)
    out[~(u > 0.0)] = 0.0
    return out


def _oracle_step(u, derivative):
    a = _oracle_flat_exp(u)
    b = _oracle_flat_exp(1.0 - u)
    total = a + b
    w = a / total
    if not derivative:
        return w, None
    with np.errstate(divide="ignore", invalid="ignore"):
        dw = (a / u ** 2 * b + a * (b / (1.0 - u) ** 2)) / total ** 2
    return w, np.where((a > 0.0) & (b > 0.0), dw, 0.0)


def _oracle_bridge(r, derivative=False):
    w, dw = _oracle_step((r - bm.BRIDGE_LO) / (bm.BRIDGE_HI - bm.BRIDGE_LO), derivative)
    outer = np.exp(1.0 / (1.0 - r) ** 2)
    rest = 1.0 - w
    value = rest * r
    value += w * outer
    if not derivative:
        return value
    dw /= bm.BRIDGE_HI - bm.BRIDGE_LO
    rest += w * (outer * 2.0 / (1.0 - r) ** 3)
    outer -= r
    outer *= dw
    rest += outer
    return value, rest


def _oracle_invert_bridge(s, bisected=None):
    out = np.empty(s.shape)
    out_slope = np.empty(s.shape)
    rows = np.arange(s.shape[0])
    bound = bm._INVERSE_TOLERANCE * np.maximum(1.0, np.abs(s))
    lo = np.full(s.shape, bm.BRIDGE_LO)
    hi = np.full(s.shape, bm.BRIDGE_HI)
    r = 0.5 * (lo + hi)
    f, d = _oracle_bridge(r, derivative=True)
    f -= s
    for _ in range(bm._INVERSE_ITERATIONS):
        done = np.abs(f) <= bound
        if np.any(done):
            out[rows[done]] = r[done]
            out_slope[rows[done]] = d[done]
            live = ~done
            if not np.any(live):
                break
            rows, r, f, d, lo, hi, s, bound = (
                v[live] for v in (rows, r, f, d, lo, hi, s, bound))
        np.copyto(lo, r, where=f < 0.0)
        np.copyto(hi, r, where=f > 0.0)
        f /= d
        r -= f
        outside = (r <= lo) | (r >= hi)
        if bisected is not None:
            bisected.extend(rows[outside])
        np.copyto(r, 0.5 * (lo + hi), where=outside)
        f, d = _oracle_bridge(r, derivative=True)
        f -= s
    else:
        raise AssertionError("oracle did not converge")
    return out, out_slope


def _ulps(x, count=4):
    return x + np.arange(-count, count + 1.0) * np.spacing(x)


def _assert_newton_matches_the_oracle(s):
    # roots, slopes, and the bridge at the roots, each bit for bit
    rho, slope = bm._invert_bridge(s)
    rho_ref, slope_ref = _oracle_invert_bridge(s)
    np.testing.assert_array_equal(rho, rho_ref)
    np.testing.assert_array_equal(slope, slope_ref)
    for got, want in zip(bm._bridge(rho, True), _oracle_bridge(rho, True)):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(bm._bridge(rho), _oracle_bridge(rho))


def test_bridge_newton_matches_the_frozen_oracle_at_the_branch_ends():
    # the ulp neighbours of the window's ends and of the exp branch's start,
    # as values to invert and as radii to evaluate
    s = np.concatenate([_ulps(bm.BRIDGE_LO)[5:], _ulps(bm.BRIDGE_HI), _ulps(bm._OUTER_AT_HI)])
    _assert_newton_matches_the_oracle(s)
    r = np.concatenate([_ulps(bm.BRIDGE_LO)[4:], _ulps(bm.BRIDGE_HI)[:5], WINDOW])
    for got, want in zip(bm._bridge(r, True), _oracle_bridge(r, True)):
        np.testing.assert_array_equal(got, want)


def test_bridge_newton_matches_the_frozen_oracle_where_it_bisects():
    s = np.geomspace(bm.BRIDGE_LO * (1 + 1e-15), bm._OUTER_AT_HI * (1 - 1e-15), 4000)
    bisected = []
    _oracle_invert_bridge(s, bisected)
    assert len(set(bisected)) > 100
    _assert_newton_matches_the_oracle(s[np.unique(bisected)])
    _assert_newton_matches_the_oracle(s)


def test_bridge_newton_matches_the_frozen_oracle_where_an_exponential_underflows():
    # exp(-1/u) underflows for u below about 1/745, exp(-1/(1 - u)) for u
    # above 1 - 1/745: radii within 3e-4 of either window end
    width = bm.BRIDGE_HI - bm.BRIDGE_LO
    r = np.concatenate([bm.BRIDGE_LO + width * np.geomspace(1e-300, 2e-3, 500),
                        bm.BRIDGE_HI - width * np.geomspace(1e-16, 2e-3, 500)])
    u = bm._window(r)
    with np.errstate(divide="ignore", under="ignore"):
        assert np.any(np.exp(-1.0 / u) == 0.0) and np.any(np.exp(-1.0 / (1.0 - u)) == 0.0)
    for got, want in zip(bm._bridge(r, True), _oracle_bridge(r, True)):
        np.testing.assert_array_equal(got, want)
    _assert_newton_matches_the_oracle(np.unique(_oracle_bridge(r)))


def test_one_row_bridge_is_the_batch_bridge_row_by_row():
    # the shared first step evaluates one row and broadcasts it
    r = np.concatenate([[0.5 * (bm.BRIDGE_LO + bm.BRIDGE_HI)], WINDOW[::97]])
    batch = _oracle_bridge(r, True)
    for i in range(r.shape[0]):
        one = bm._bridge(r[i:i + 1], True)
        assert one[0][0] == batch[0][i] and one[1][0] == batch[1][i]


@settings(max_examples=60, deadline=None)
@given(st.lists(bridge_values, min_size=1, max_size=40))
def test_bridge_newton_matches_the_frozen_oracle(values):
    _assert_newton_matches_the_oracle(np.array(values))


def _extended_jacobians(t, e, u):
    """``_radial_jacobians`` in extended precision, from the same factors."""
    t, e, unit = (np.asarray(v, dtype=np.longdouble) for v in (t, e, u.T))
    eye = np.eye(unit.shape[1], dtype=np.longdouble)
    return t[:, None, None] * eye + e[:, None, None] * unit[:, :, None] * unit[:, None, :]


@pytest.mark.parametrize("n", [2, 3])
def test_closed_form_chain_matches_the_dense_product(n):
    # points in every regime of the expansion, down to a hair inside
    # R_IDENTITY, and shifts that land the compression in every regime too
    rng = np.random.default_rng(12 + n)
    radii = np.concatenate([[0.0, 0.2, bm.BRIDGE_LO], np.linspace(0.37, 0.62, 6),
                            [0.64, 0.7, 0.78, bm.R_IDENTITY * (1 - 1e-9)]])
    direction = rng.normal(size=(radii.shape[0], n))
    points = radii[:, None] * direction / np.linalg.norm(direction, axis=1)[:, None]
    scales = np.array([0.0, 1e-6, 0.01, 0.1, 0.5, 3.0, 1e3, 1e9])
    shift_dirs = rng.normal(size=(scales.shape[0], n))
    shifts = scales[:, None] * shift_dirs / np.linalg.norm(shift_dirs, axis=1)[:, None]
    expanded, expand_factors = bm._expand_with_jacobian(points)
    jac_expand = bm._radial_jacobians(*expand_factors)
    translated = expanded[None, :, :] + shifts[:, None, :]
    moved, (t, e, u) = bm._compress_with_jacobian(translated.reshape(-1, n))
    shape = (scales.shape[0], radii.shape[0], n, n)
    dense = bm._radial_jacobians(t, e, u).reshape(shape) @ jac_expand
    (part, out, chain), = bm._shift_blocks(points, shifts)
    assert part == slice(0, radii.shape[0])
    assert np.array_equal(out.reshape(-1, n), moved)
    chain = np.moveaxis(chain, (0, 1), (2, 3))
    # the dense product of the same factors agrees to 1e-14 per row
    scale = np.max(np.abs(dense), axis=(2, 3))
    assert np.all(np.max(np.abs(chain - dense), axis=(2, 3)) <= 1e-14 * scale)
    # the exact product of the same factors, and the size of the terms the
    # sums add: sum_a (|e| |u_i| |u_a| + [a = i] t) |Je[a, c]|
    exact = np.einsum("bmia,mac->bmic", _extended_jacobians(t, e, u).reshape(shape),
                      _extended_jacobians(*expand_factors))
    unit = np.abs(u.T).reshape(shape[:3])
    radial = (np.abs(e).reshape(shape[:2])[..., None]
              * np.einsum("bma,mac->bmc", unit, np.abs(jac_expand)))
    terms = (t.reshape(shape[:2])[..., None, None] * np.abs(jac_expand)
             + unit[..., :, None] * radial[..., None, :])
    assert np.all(np.abs(chain - exact) <= (n + 3) * np.finfo(float).eps * terms)
    # rows the compression passes through take the expansion Jacobian as is
    radius = np.linalg.norm(translated, axis=2)
    through = radius <= bm.BRIDGE_LO
    assert through.any() and (radius >= bm.BRIDGE_HI).any()
    assert np.array_equal(chain[through], np.broadcast_to(jac_expand, shape)[through])


@pytest.mark.parametrize("count", [1, 2, 3, 61, 3001])
def test_shift_blocks_cover_every_point_once_in_contiguous_slices(monkeypatch, count):
    rng = np.random.default_rng(count)
    points = rng.uniform(-0.5, 0.5, size=(count, 2))
    shifts = rng.normal(size=(9, 2)) * 0.05
    monkeypatch.setattr(bm, "_MAX_ROWS", 1 << 30)
    (_, whole_moved, whole_chain), = bm._shift_blocks(points, shifts)
    # every cap below two points' rows (18) gives the same two-point chunks
    for cap in (1, 30, 300, 1 << 17):
        monkeypatch.setattr(bm, "_MAX_ROWS", cap)
        chunks = list(bm._shift_blocks(points, shifts))
        # slices in input order, sized as np.array_split sizes them
        parts = [part for part, _, _ in chunks]
        assert all(isinstance(part, slice) for part in parts)
        assert np.array_equal(np.concatenate([np.arange(count)[part] for part in parts]),
                              np.arange(count))
        assert [part.stop - part.start for part in parts] == [
            len(block) for block in np.array_split(np.arange(count), len(parts))]
        for part, moved, chain in chunks:
            # every node, at least two points, and at most the cap plus one
            # point's rows, or three points' rows where the cap is smaller
            assert moved.shape[0] == chain.shape[2] == 9
            assert min(2, count) <= moved.shape[1] and moved.size // 2 <= max(cap + 9, 27)
            assert np.array_equal(moved, whole_moved[:, part])
            assert np.array_equal(chain, whole_chain[..., part])
