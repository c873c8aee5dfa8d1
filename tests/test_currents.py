"""Pairings, pushforwards and the smoothing operators on currents.

The square-loop line integrals are pinned against adaptive quadrature on
explicit edge parametrizations (scripts/make_fixtures.py), with closed
forms double-checking two of them.  Everything sharing a tolerance with
those fixtures is a genuine dual route: the library integrates with its
own composite Gauss rule and never calls the adaptive integrator.
"""

from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqmollify import ballmap, currents, scenarios
from eqmollify.ballmap import R_IDENTITY, _shift_blocks, shift_points, shift_with_jacobian
from eqmollify.currents import (
    CurrentError,
    DiracCurrent,
    PolyhedralCurrent,
    TestForm,
    WeightedSample,
    equivariant_sample,
    evaluate,
    invariance_residual,
    localize,
    mollified_sample,
)
from eqmollify.kernel import MollifierKernel
from eqmollify.maps import (AffineChart, ChartCutoff, GroupAction, cyclic_rotation_group,
                           smooth_step, trivial_group)

# frozen oracle values, scripts/make_fixtures.py section "currents"
LOOP_PAIRING_A = -0.16106880203287527
LOOP_PAIRING_B = 0.23760565018549065
LOOP_PAIRING_C = 0.0064000000000000055
LOOP_A_CLOSED = -0.16106880203287521
LOOP_C_CLOSED = 0.006400000000000002
KERNEL_SECOND_MOMENT_2D = 0.26131120342055403

LOOP_VERTICES = np.array([[0.2, 0.2], [-0.2, 0.2], [-0.2, -0.2], [0.2, -0.2]])


def square_loop(**kw):
    segments = np.stack(
        [np.stack([LOOP_VERTICES[i], LOOP_VERTICES[(i + 1) % 4]]) for i in range(4)]
    )
    return PolyhedralCurrent(segments, **kw)


def form_a():
    return TestForm(1, 2, {(0,): lambda x: np.exp(x[:, 1])}, 0.9, 0.5)


def form_b():
    return TestForm(
        1, 2, {(1,): lambda x: np.sin(3.0 * x[:, 0] + 1.0) * np.cos(2.0 * x[:, 1])}, 0.9, 0.5
    )


def form_c():
    return TestForm(
        1,
        2,
        {(0,): lambda x: x[:, 0] * x[:, 1], (1,): lambda x: x[:, 0] ** 3 + 0.5 * x[:, 1]},
        0.9,
        0.5,
    )


def scalar_form(fn, support=0.9, flat=0.5, center=None, dimension=2):
    return TestForm(0, dimension, {(): fn}, support, flat, center)


ONE = scalar_form(lambda x: np.ones(x.shape[0]))


def pushforward(sample, mapping):
    """The sample pushed forward under a map with .apply and .jacobian."""
    frames = np.einsum("kij,kaj->kai", mapping.jacobian(sample.points), sample.frames)
    return WeightedSample(mapping.apply(sample.points), frames, sample.weights)


class ShiftMap:
    """The shift s_y as a map with .apply and .jacobian for pushforwards."""

    def __init__(self, y):
        self.y = np.asarray(y, dtype=float)

    def apply(self, x):
        return shift_points(x, self.y)

    def jacobian(self, x):
        return shift_with_jacobian(x, self.y)[1]


def _masked_values(form, sample):
    """A form's values at a sample's rows through the gather of the rows
    where its cutoff is nonzero and the scatter back, whatever the rows."""
    bump = form.cutoff(sample.points)
    live = bump > 0.0
    pts, frames = sample.points[live], sample.frames[live]
    total = np.zeros(pts.shape[0])
    for index, fn in form.coefficients.items():
        coef = np.asarray(fn(pts), dtype=float)
        if form.degree == 0:
            total += coef
        elif form.degree == 1:
            total += coef * frames[:, 0, index[0]]
        else:
            total += coef * np.linalg.det(frames[:, :, list(index)])
    out = np.zeros(live.shape[0])
    out[live] = bump[live] * total
    return out


def _masked_pairing(form, sample):
    return float(np.dot(sample.weights, _masked_values(form, sample)))


class TestEvaluate:
    def test_dirac_mass_pairing(self):
        current = DiracCurrent(np.zeros((1, 2)))
        form = scalar_form(lambda x: np.full(x.shape[0], 3.0))
        assert evaluate(current, form) == 3.0

    def test_unit_segment_against_dx1(self):
        segment = PolyhedralCurrent(np.array([[[0.0, 0.0], [1.0, 0.0]]]))
        form = TestForm(1, 2, {(0,): lambda x: np.ones(x.shape[0])}, 2.0, 1.5)
        assert evaluate(segment, form) == pytest.approx(1.0, rel=1e-14)

    def test_zero_form_pairs_to_zero(self):
        form = TestForm(1, 2, {}, 0.9, 0.5)
        assert evaluate(square_loop(), form) == 0.0

    def test_degree_mismatch_raises(self):
        with pytest.raises(CurrentError):
            evaluate(square_loop(), ONE)

    def test_loop_pairings_match_adaptive_quadrature(self):
        loop = square_loop()
        assert evaluate(loop, form_a()) == pytest.approx(LOOP_PAIRING_A, rel=1e-12)
        assert evaluate(loop, form_b()) == pytest.approx(LOOP_PAIRING_B, rel=1e-12)
        assert evaluate(loop, form_c()) == pytest.approx(LOOP_PAIRING_C, abs=1e-14)
        assert LOOP_PAIRING_A == pytest.approx(LOOP_A_CLOSED, rel=1e-13)
        assert LOOP_PAIRING_C == pytest.approx(LOOP_C_CLOSED, abs=1e-15)

    def test_dirac_with_frame(self):
        point = np.array([[0.1, -0.05]])
        frame = np.array([[[2.0, 1.0]]])
        current = DiracCurrent(point, np.array([1.5]), frame)
        form = TestForm(1, 2, {(1,): lambda x: x[:, 0]}, 0.9, 0.5)
        # 1.5 * coefficient(p) * frame component = 1.5 * 0.1 * 1.0
        assert evaluate(current, form) == pytest.approx(0.15, rel=1e-14)

    def test_triangle_pairing(self):
        triangle = np.array([[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]])
        current = PolyhedralCurrent(triangle)
        form = TestForm(2, 3, {(0, 1): lambda x: x[:, 0]}, 3.0, 2.0)
        assert evaluate(current, form) == pytest.approx(1.0 / 6.0, rel=1e-12)

    @pytest.mark.parametrize("center", [[0.1, 0.2, 0.3], [0.5], [[0.0, 0.0]]],
                             ids=["long", "short", "nested"])
    def test_center_of_another_dimension_rejected(self, center):
        with pytest.raises(CurrentError, match="center must have 2 coordinates"):
            TestForm(0, 2, {(): lambda x: x[:, 0]}, 0.9, 0.5, center)

    def test_degenerate_simplex_rejected(self):
        with pytest.raises(CurrentError):
            PolyhedralCurrent(np.array([[[0.0, 0.0], [0.0, 0.0]]]))

    @pytest.mark.parametrize("index", [0, 1, 2], ids=["masses", "tangents", "loop"])
    def test_bank_pairing_shares_the_cutoff_bit_for_bit(self, monkeypatch, index):
        # the orbit bank's current smoothed by shifts, paired with its forms
        # of equal degree plus one form under a narrower cutoff in between;
        # the bank's plateau is pulled in so that its cutoff is computed at
        # all, which it is not where every row lies on the plateau
        scenario = scenarios.build_scenario("orbit_currents")
        current = scenario.currents[index]
        sample = mollified_sample(current, MollifierKernel.create(2, 0.1, level=1),
                                  ball_shifts=True)
        bank = [replace(f, flat_radius=0.4) for f in scenario.forms
                if f.degree == current.degree]
        assert np.max(np.linalg.norm(sample.points, axis=1)) > 0.4
        # the narrow form copies the bank form that pairs largest, so a
        # pairing served from the wrong cutoff would show
        largest = max(bank, key=lambda form: abs(sample.pair(form)))
        narrow = TestForm(current.degree, 2, largest.coefficients, 0.6, 0.3)
        forms = bank[:2] + [narrow] + bank[2:]
        one_by_one = np.array([sample.pair(form) for form in forms])
        assert sample.pair(narrow) != sample.pair(largest)
        cutoffs = []
        original = TestForm._cutoff_at
        monkeypatch.setattr(TestForm, "_cutoff_at",
                            lambda form, radii: cutoffs.append(form) or original(form, radii))
        together = sample.pair_many(forms)
        assert np.array_equal(together, one_by_one)
        # one cutoff for the whole bank, one for the narrow form
        assert len(cutoffs) == 2 and cutoffs[0] is bank[0] and cutoffs[1] is narrow

    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_all_live_cutoff_pairs_as_the_masked_path(self, degree):
        # a cutoff nonzero at every point hands the rows over as given, with
        # no mask; every pairing must equal the masked gather and scatter
        bank = [f for f in scenarios.standard_form_bank() if f.degree == degree]
        if degree == 2:
            bank = [TestForm(2, 2, {(0, 1): lambda x: np.cos(x[:, 0]) + x[:, 1]}, 1.6, 1.2)]
        rng = np.random.default_rng(degree)
        angles = rng.uniform(0.0, 2.0 * np.pi, 400)
        radii = rng.uniform(0.3, 1.0, 400)
        points = radii[:, None] * np.stack([np.cos(angles), np.sin(angles)], 1)
        frames = rng.normal(size=(400, degree, 2))
        weights = rng.normal(size=400)
        for scale, live in ((1.0, "all"), (2.0, "some"), (6.0, "none")):
            sample = WeightedSample(points * scale, frames, weights)
            rows = currents._cutoff_rows(bank[0], sample.points, sample.frames)
            inside = radii * scale < bank[0].support_radius
            assert (rows[1] is None) == (live == "all")
            assert inside.any() == (live != "none") and inside.all() == (live == "all")
            for form in bank:
                masked = _masked_pairing(form, sample)
                assert sample.pair(form) == masked
                assert form.evaluate(sample.points, sample.frames).tolist() == \
                    _masked_values(form, sample).tolist()


def former_gauss_panels(panels, order):
    x, w = np.polynomial.legendre.leggauss(order)
    width = 1.0 / panels
    starts = width * np.arange(panels)
    nodes = (starts[:, None] + 0.5 * width * (x[None, :] + 1.0)).ravel()
    return nodes, np.tile(0.5 * width * w, panels)


def former_polyhedral_rows(simplices, multiplicities, panels, order):
    """Frozen copy of the rows a PolyhedralCurrent's sample was built from
    while currents were not samples themselves: (points, frames, weights)."""
    count, degree, dimension = simplices.shape[0], simplices.shape[1] - 1, simplices.shape[2]
    if count == 0:
        return np.zeros((0, dimension)), np.zeros((0, degree, dimension)), np.zeros(0)
    base, roots = simplices[:, 0, :], simplices[:, 1:, :]
    edges = roots - base[:, None, :]
    t, w = former_gauss_panels(panels, order)
    if degree == 1:
        params = t[None, :, None]
        node_w = w
    else:
        u, v = np.meshgrid(t, t, indexing="ij")
        params = np.stack([u.ravel(), (v * (1.0 - u)).ravel()], axis=1)[None, :, :]
        node_w = (np.outer(w, w) * (1.0 - u)).ravel()
    pts = base[:, None, :] + np.einsum(
        "sqm,smn->sqn", np.broadcast_to(params, (count,) + params.shape[1:]), edges)
    q = pts.shape[1]
    frames = np.broadcast_to(edges[:, None, :, :], (count, q, degree, dimension))
    weights = multiplicities[:, None] * node_w[None, :]
    return (pts.reshape(-1, dimension), frames.reshape(-1, degree, dimension),
            weights.ravel())


def assert_same_rows(current, rows):
    assert isinstance(current, WeightedSample)
    for new, old in zip((current.points, current.frames, current.weights), rows):
        assert new.shape == old.shape and new.dtype == old.dtype
        assert new.tobytes() == old.tobytes()


class TestConstruction:
    @pytest.mark.parametrize("panels,order", [(8, 10), (1, 1), (2, 3), (5, 7)])
    @pytest.mark.parametrize("shape", [(3, 2, 2), (2, 2, 3), (3, 3, 2), (2, 3, 3)],
                             ids=["segments2d", "segments3d", "triangles2d", "triangles3d"])
    def test_simplex_rows_match_the_former_construction(self, shape, panels, order):
        rng = np.random.default_rng(sum(shape) + 10 * panels + order)
        simplices = rng.normal(size=shape)
        multiplicities = rng.normal(size=shape[0])
        current = PolyhedralCurrent(simplices, multiplicities, panels=panels, order=order)
        assert_same_rows(current, former_polyhedral_rows(simplices, multiplicities,
                                                         panels, order))
        assert current.degree == shape[1] - 1 and current.dimension == shape[2]

    @pytest.mark.parametrize("shape", [(0, 2, 2), (0, 3, 3)])
    def test_no_simplex_is_an_empty_sample(self, shape):
        current = PolyhedralCurrent(np.zeros(shape))
        assert_same_rows(current, former_polyhedral_rows(np.zeros(shape), np.ones(0), 8, 10))
        kernel = MollifierKernel.create(shape[2], 0.1)
        cutoff = ChartCutoff(AffineChart(np.zeros(shape[2]), 1.0))
        assert mollified_sample(current, kernel) is current
        assert equivariant_sample(current, kernel, cutoff, trivial_group(shape[2])) is current

    def test_dirac_rows_are_the_atoms(self):
        points = np.array([[0.1, -0.2], [0.4, 0.3], [-0.5, 0.05]])
        frames = np.array([[[1.0, 0.5]], [[-0.2, 1.0]], [[0.3, 0.3]]])
        weights = np.array([1.5, -2.0, 0.25])
        assert_same_rows(DiracCurrent(points), (points, np.zeros((3, 0, 2)), np.ones(3)))
        assert_same_rows(DiracCurrent(points, weights, frames), (points, frames, weights))
        assert_same_rows(DiracCurrent([0.1, -0.2]), (points[:1], np.zeros((1, 0, 2)), np.ones(1)))

    @pytest.mark.parametrize("multiplicities", [[1.0, 2.0, 3.0], [1.0], 2.0],
                             ids=["three", "one", "scalar"])
    def test_one_multiplicity_per_simplex(self, multiplicities):
        two_segments = np.array([[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]])
        with pytest.raises(CurrentError, match="one multiplicity per simplex"):
            PolyhedralCurrent(two_segments, multiplicities)

    @pytest.mark.parametrize("weights", [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0], 2.0],
                             ids=["two", "four", "scalar"])
    def test_one_weight_per_point(self, weights):
        with pytest.raises(CurrentError, match="one weight per point"):
            DiracCurrent(np.zeros((3, 2)), weights=weights)

    @pytest.mark.parametrize("points, frames", [
        (np.zeros((3, 2)), np.zeros((3, 2))),
        (np.zeros((3, 2)), np.zeros((3, 1, 2, 1))),
        (np.zeros((3, 2, 2)), None),
    ], ids=["frames_of_ndim_2", "frames_of_ndim_4", "points_of_ndim_3"])
    def test_malformed_shapes_are_a_current_error(self, points, frames):
        with pytest.raises(CurrentError,
                           match=r"frame stack must be \(points, degree, dimension\)"):
            DiracCurrent(points, frames=frames)

    @pytest.mark.parametrize("name", ["panels", "order"])
    @pytest.mark.parametrize("value", [0, -1, 2.7, 2.0])
    def test_panels_and_order_are_integers_of_at_least_one(self, name, value):
        segment = np.array([[[0.0, 0.0], [1.0, 0.0]]])
        with pytest.raises(CurrentError, match=name):
            PolyhedralCurrent(segment, **{name: value})


class TestPushforward:
    def test_translation_moves_dirac(self):
        p = np.array([0.1, 0.2])
        y = np.array([0.05, -0.1])
        current = DiracCurrent(p[None, :])
        form = scalar_form(lambda x: np.cos(x[:, 0]) + x[:, 1])

        class Translate:
            def apply(self, x):
                return x + y

            def jacobian(self, x):
                return np.broadcast_to(np.eye(2), (x.shape[0], 2, 2)).copy()

        moved = pushforward(current, Translate()).pair(form)
        assert moved == float(form.evaluate((p + y)[None, :])[0])

    def test_identity_map_is_plain_pairing(self):
        class Identity:
            def apply(self, x):
                return x

            def jacobian(self, x):
                return np.broadcast_to(np.eye(2), (x.shape[0], 2, 2)).copy()

        loop = square_loop()
        assert pushforward(loop, Identity()).pair(form_b()) == evaluate(loop, form_b())

    def test_shift_equals_translation_on_inner_ball(self):
        # both the point and its translate stay where the compression is
        # the identity, so the shift is bit for bit a translation
        p = np.array([0.15, -0.1])
        y = np.array([0.08, 0.05])
        current = DiracCurrent(p[None, :])
        form = scalar_form(lambda x: np.sin(x[:, 0] * x[:, 1] + 0.3))
        value = pushforward(current, ShiftMap(y)).pair(form)
        assert value == float(form.evaluate((p + y)[None, :])[0])


class TestTranslationSmoothing:
    def test_mass_preserved(self):
        kernel = MollifierKernel.create(2, 0.1)
        current = DiracCurrent(np.zeros((1, 2)))
        assert mollified_sample(current, kernel).pair(ONE) == pytest.approx(1.0, abs=1e-9)

    def test_odd_moment_vanishes(self):
        kernel = MollifierKernel.create(2, 0.1)
        current = DiracCurrent(np.zeros((1, 2)))
        form = scalar_form(lambda x: x[:, 0])
        assert abs(mollified_sample(current, kernel).pair(form)) <= 1e-8

    def test_second_moment_against_polar_oracle(self):
        epsilon = 0.1
        kernel = MollifierKernel.create(2, epsilon)
        current = DiracCurrent(np.zeros((1, 2)))
        form = scalar_form(lambda x: x[:, 0] ** 2 + x[:, 1] ** 2)
        value = mollified_sample(current, kernel).pair(form)
        assert value == pytest.approx(KERNEL_SECOND_MOMENT_2D * epsilon**2, rel=2e-7)

    def test_disjoint_support_is_exactly_zero(self):
        kernel = MollifierKernel.create(2, 0.05)
        form = scalar_form(lambda x: np.ones(x.shape[0]), support=0.5, flat=0.25,
                           center=np.array([2.0, 0.0]))
        assert mollified_sample(DiracCurrent(np.zeros((1, 2))), kernel).pair(form) == 0.0

    def test_linearity(self):
        kernel = MollifierKernel.create(2, 0.08)
        seg1 = PolyhedralCurrent(np.array([[[0.0, 0.0], [0.3, 0.1]]]), np.array([2.5]))
        seg2 = PolyhedralCurrent(np.array([[[-0.2, 0.1], [0.1, -0.2]]]), np.array([-1.25]))
        combined = WeightedSample.concatenate([seg1, seg2])
        form = form_b()
        total = mollified_sample(combined, kernel).pair(form)
        parts = (mollified_sample(seg1, kernel).pair(form)
                 + mollified_sample(seg2, kernel).pair(form))
        assert total == pytest.approx(parts, abs=1e-10)

    def test_dirac_family_has_bounded_derivatives(self):
        # smoothness proxy: the map p -> smoothed pairing admits finite
        # difference quotients of orders one to three with tame size
        kernel = MollifierKernel.create(2, 0.1)
        form = scalar_form(lambda x: np.exp(x[:, 0]) * np.cos(2.0 * x[:, 1]))
        h = 0.02
        offsets = np.arange(-2, 3)

        def pairing(shift):
            current = DiracCurrent(np.array([[0.05 + shift, 0.02]]))
            return mollified_sample(current, kernel).pair(form)

        values = np.array([pairing(k * h) for k in offsets])
        d1 = (values[3] - values[1]) / (2 * h)
        d2 = (values[3] - 2 * values[2] + values[1]) / h**2
        d3 = (values[4] - 2 * values[3] + 2 * values[1] - values[0]) / (2 * h**3)
        assert np.isfinite([d1, d2, d3]).all()
        assert abs(d1) < 10.0 and abs(d2) < 100.0 and abs(d3) < 1e3


class TestShiftSmoothing:
    def test_outside_ball_is_bit_exact_identity(self):
        outer = PolyhedralCurrent(np.array([[[1.2, -0.5], [1.3, 0.8]]]))
        kernel = MollifierKernel.create(2, 0.1)
        form = TestForm(1, 2, {(0,): lambda x: x[:, 1] ** 2}, 2.5, 2.0)
        assert mollified_sample(outer, kernel, ball_shifts=True).pair(form) == evaluate(outer, form)

    def test_part_past_the_identity_radius_passes_through(self):
        # every Gauss node lies at radius >= 0.9 > R_IDENTITY, although the
        # segment itself reaches inside the unit ball
        segment = PolyhedralCurrent(np.array([[[0.9, -0.3], [0.9, 0.3]]]))
        kernel = MollifierKernel.create(2, 0.1)
        assert currents._shift_product(segment, kernel) is segment
        form = TestForm(1, 2, {(1,): lambda x: np.cos(x[:, 1]) + x[:, 0]}, 2.5, 2.0)
        smoothed = mollified_sample(segment, kernel, ball_shifts=True).pair(form)
        assert smoothed == evaluate(segment, form)

    def test_inner_ball_matches_translation_smoothing(self):
        kernel = MollifierKernel.create(2, 0.05)
        current = DiracCurrent(np.array([[0.1, -0.05]]))
        form = scalar_form(lambda x: np.cos(3.0 * x[:, 0]) + x[:, 1])
        by_shift = mollified_sample(current, kernel, ball_shifts=True).pair(form)
        by_translation = mollified_sample(current, kernel).pair(form)
        assert by_shift == by_translation

    def test_far_form_pairs_to_exact_zero(self):
        # shifts keep the loop inside the unit ball, so a form supported
        # beyond it never sees a sample point
        kernel = MollifierKernel.create(2, 0.1)
        form = scalar_form(lambda x: np.ones(x.shape[0]), support=0.4, flat=0.2,
                           center=np.array([1.8, -0.7]))
        vertex_masses = DiracCurrent(LOOP_VERTICES)
        assert mollified_sample(vertex_masses, kernel, ball_shifts=True).pair(form) == 0.0

    def test_halving_sweep_converges(self):
        loop = square_loop(panels=4)
        form = form_b()
        target = evaluate(loop, form)
        errors = []
        for epsilon in (0.1, 0.05, 0.025):
            kernel = MollifierKernel.create(2, epsilon)
            smoothed = mollified_sample(loop, kernel, ball_shifts=True).pair(form)
            errors.append(abs(smoothed - target))
        assert errors[0] > errors[1] > errors[2]
        assert errors[0] / errors[1] >= 1.3
        assert errors[1] / errors[2] >= 1.3


def former_translation_product(sample, kernel):
    """Frozen copy of the row-major translation product, the oracle of the
    component-major one."""
    nodes, node_w = kernel.convex_weights()
    rows = nodes.shape[0] * sample.points.shape[0]
    pts = (nodes[:, None, :] + sample.points[None, :, :]).reshape(rows, sample.dimension)
    frames = np.broadcast_to(
        sample.frames[None], (nodes.shape[0],) + sample.frames.shape
    ).reshape(rows, sample.degree, sample.dimension)
    weights = (node_w[:, None] * sample.weights[None, :]).ravel()
    return WeightedSample(pts, frames, weights)


def former_shift_product(sample, kernel):
    """Frozen copy of the row-major shift product, the oracle of the
    component-major one."""
    inner = np.flatnonzero(np.linalg.norm(sample.points, axis=1) < R_IDENTITY)
    if inner.size == 0:
        return sample
    nodes, node_w = kernel.convex_weights()
    k = sample.points.shape[0]
    m = nodes.shape[0]
    dim, deg = sample.dimension, sample.degree
    pts_out = np.broadcast_to(sample.points, (m, k, dim)).copy()
    frames_out = np.broadcast_to(sample.frames, (m, k, deg, dim)).copy()
    frames_in = sample.frames[inner]
    for part, moved, chain in _shift_blocks(sample.points[inner], nodes):
        rows = inner[part]
        pts_out[:, rows] = moved
        frames_out[:, rows] = np.einsum("ijbk,kaj->bkai", chain, frames_in[part])
    weights = (node_w[:, None] * sample.weights[None, :]).ravel()
    return WeightedSample(pts_out.reshape(m * k, dim),
                          frames_out.reshape(m * k, deg, dim), weights)


def product_cases():
    """(name, current, forms): every built-in current with its bank and one
    form whose ramp the smoothed rows reach, a loop with corners past
    R_IDENTITY, atoms with no row inside it and a triangle in R^3."""
    scenario = scenarios.build_scenario("orbit_currents")
    cases = []
    for index, current in enumerate(scenario.currents):
        bank = [f for f in scenario.forms if f.degree == current.degree]
        narrow = TestForm(current.degree, 2, bank[-1].coefficients, 0.6, 0.3)
        cases.append(("orbit%d" % index, current, bank + [narrow]))
    corners = 0.7 / 0.2 * LOOP_VERTICES
    wide = PolyhedralCurrent(np.stack([np.stack([corners[i], corners[(i + 1) % 4]])
                                       for i in range(4)]), panels=2)
    cases.append(("past_identity", wide, [form_a(), form_b(), form_c()]))
    outer = DiracCurrent(np.array([[0.9, 0.1], [-0.2, -0.95]]), np.array([1.5, -0.5]),
                         np.array([[[0.3, 1.0]], [[1.0, -0.2]]]))
    cases.append(("no_inner_row", outer, [form_a(), form_b(), form_c()]))
    triangle = PolyhedralCurrent(np.array([[[0.1, 0.0, -0.2], [0.4, 0.1, 0.0],
                                            [0.0, 0.3, 0.2]]]), panels=2, order=4)
    cases.append(("triangle_3d", triangle, [
        TestForm(2, 3, {(0, 1): lambda x: x[:, 2] + 1.0,
                        (1, 2): lambda x: np.cos(x[:, 0])}, 1.6, 1.2),
        TestForm(2, 3, {(0, 2): lambda x: x[:, 1] ** 2}, 0.6, 0.3)]))
    return cases


PRODUCT_CASES = product_cases()


class TestProductLayout:
    @pytest.mark.parametrize("level", [1, 2])
    @pytest.mark.parametrize("name, current, forms", PRODUCT_CASES,
                             ids=[case[0] for case in PRODUCT_CASES])
    @pytest.mark.parametrize("product, former", [
        (currents._translation_product, former_translation_product),
        (currents._shift_product, former_shift_product)], ids=["translation", "shift"])
    def test_rows_and_pairings_match_the_row_major_product(self, product, former, level,
                                                           name, current, forms):
        kernel = MollifierKernel.create(current.dimension, 0.1, level=level)
        sample, oracle = product(current, kernel), former(current, kernel)
        for got, want in ((sample.points, oracle.points), (sample.frames, oracle.frames),
                          (sample.weights, oracle.weights)):
            assert np.array_equal(np.ascontiguousarray(got), want)
        # the oracle pairs through the full cutoff, gathered and scattered
        assert sample.pair_many(forms).tolist() == [_masked_pairing(f, oracle) for f in forms]

    @pytest.mark.parametrize("level", [1, 2])
    @pytest.mark.parametrize("index", [0, 1, 2], ids=["masses", "tangents", "loop"])
    def test_equivariant_sample_matches_the_row_major_product(self, monkeypatch, index, level):
        scenario = scenarios.build_scenario("orbit_currents")
        current = scenario.currents[index]
        forms = [f for f in scenario.forms if f.degree == current.degree]
        kernel = MollifierKernel.create(2, 0.05, level=level)
        results = []
        for product in (currents._shift_product, former_shift_product):
            monkeypatch.setattr(currents, "_shift_product", product)
            sample = equivariant_sample(current, kernel, scenario.atlas[0], scenario.group)
            results.append((sample, sample.pair_many(forms).tolist(),
                            invariance_residual(sample, scenario.group, forms)))
        (sample, pairs, residual), (oracle, oracle_pairs, oracle_residual) = results
        for got, want in ((sample.points, oracle.points), (sample.frames, oracle.frames),
                          (sample.weights, oracle.weights)):
            assert np.array_equal(got, want)
        assert pairs == oracle_pairs and residual == oracle_residual

    @pytest.mark.parametrize("product", [currents._translation_product,
                                         currents._shift_product,
                                         partial(currents._shift_product, fold=True)],
                             ids=["translation", "shift", "folded_shift"])
    def test_coordinates_and_frame_components_are_contiguous(self, product):
        # each coordinate and each frame component over all rows is one
        # contiguous run, which is what the pairings read
        loop = square_loop(panels=2)
        sample = product(loop, MollifierKernel.create(2, 0.1, level=1))
        assert sample.points.T.flags.c_contiguous
        assert sample.frames.transpose(1, 2, 0).flags.c_contiguous


# folded and unfolded shift products differ by rounding only; the largest
# gap over PRODUCT_CASES at levels 1 and 2 reads 1.7e-16
FOLD_BOUND = 1e-14


def _signed_node(point, node):
    """S y for the signed permutation S with S sort(|x|) = x, a negative
    zero counting as negative: (S y)_i = sign(x_i) y_(rank_i)."""
    rank = np.argsort(np.argsort(np.abs(point), kind="stable"))
    return np.copysign(1.0, point) * node[rank]


class TestShiftFold:
    @staticmethod
    def _recorded_rows(monkeypatch):
        rows = []
        blocks = currents._shift_blocks
        monkeypatch.setattr(currents, "_shift_blocks",
                            lambda pts, nodes: rows.append(pts.copy()) or blocks(pts, nodes))
        return rows

    @pytest.mark.parametrize("level", [1, 2])
    @pytest.mark.parametrize("name, current, forms", PRODUCT_CASES,
                             ids=[case[0] for case in PRODUCT_CASES])
    def test_folded_pairings_agree_with_the_unfolded_product(self, level, name, current,
                                                            forms):
        kernel = MollifierKernel.create(current.dimension, 0.1, level=level)
        folded = mollified_sample(current, kernel, ball_shifts=True)
        unfolded = currents._shift_product(current, kernel)
        assert np.array_equal(folded.weights, unfolded.weights)
        want = unfolded.pair_many(forms)
        gap = np.abs(folded.pair_many(forms) - want)
        assert np.all(gap <= FOLD_BOUND * np.maximum(1.0, np.abs(want)))

    def test_the_loop_shifts_one_row_per_orbit_by_the_image_nodes(self, monkeypatch):
        loop = scenarios.build_scenario("orbit_currents").currents[2]
        kernel = MollifierKernel.create(2, 0.1, level=2)
        rows = self._recorded_rows(monkeypatch)
        folded = mollified_sample(loop, kernel, ball_shifts=True)
        orbits = np.unique(np.sort(np.abs(loop.points), axis=1), axis=0)
        assert [len(r) for r in rows] == [len(orbits)] == [56]
        # row (j, x) is x shifted by S y_j
        nodes = kernel.convex_weights()[0]
        k = loop.points.shape[0]
        for r in (0, 37, 150, 301):
            x = loop.points[r]
            images = np.array([_signed_node(x, y) for y in nodes])
            shifted, jac = shift_with_jacobian(np.broadcast_to(x, images.shape), images)
            assert np.max(np.abs(folded.points[r::k] - shifted)) <= 1e-15
            frames = np.einsum("jab,b->ja", jac, loop.frames[r, 0])
            assert np.max(np.abs(folded.frames[r::k, 0] - frames)) <= 1e-15

    def test_orbits_split_over_several_chunks_agree(self, monkeypatch):
        # 400 generic atoms are 400 orbits, 204,800 rows over 512 nodes
        rng = np.random.default_rng(5)
        atoms = DiracCurrent(rng.uniform(-0.6, 0.6, size=(400, 2)), rng.uniform(0.5, 1.5, 400),
                             rng.normal(size=(400, 1, 2)))
        kernel = MollifierKernel.create(2, 0.1, level=2)
        assert 400 * kernel.convex_weights()[0].shape[0] > 1.5 * ballmap._MAX_ROWS
        chunks = []
        blocks = ballmap._shift_blocks
        monkeypatch.setattr(currents, "_shift_blocks",
                            lambda pts, nodes: (chunks.append(part) or (part, moved, chain)
                                                for part, moved, chain in blocks(pts, nodes)))
        folded = mollified_sample(atoms, kernel, ball_shifts=True)
        assert len(chunks) == 2
        forms = [form_a(), form_b(), form_c()]
        want = currents._shift_product(atoms, kernel).pair_many(forms)
        assert np.all(np.abs(folded.pair_many(forms) - want)
                      <= FOLD_BOUND * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("index", [0, 1], ids=["masses", "tangents"])
    def test_a_lone_orbit_is_shifted_once(self, monkeypatch, index):
        # the four atoms are one Z4 orbit of sort(|x|)
        scenario = scenarios.build_scenario("orbit_currents")
        current = scenario.currents[index]
        forms = [f for f in scenario.forms if f.degree == current.degree]
        kernel = MollifierKernel.create(2, 0.05, level=1)
        rows = self._recorded_rows(monkeypatch)
        folded = mollified_sample(current, kernel, ball_shifts=True)
        assert [len(r) for r in rows] == [1]
        want = currents._shift_product(current, kernel).pair_many(forms)
        assert np.all(np.abs(folded.pair_many(forms) - want)
                      <= FOLD_BOUND * np.maximum(1.0, np.abs(want)))
        # an atom at its own c = sort(|x|) has S = I: its rows are the shifts
        canonical = DiracCurrent(np.sort(np.abs(current.points[:1]), axis=1),
                                 frames=current.frames[:1] if index else None)
        assert np.array_equal(mollified_sample(canonical, kernel, ball_shifts=True).points,
                              currents._shift_product(canonical, kernel).points)

    def test_signed_zeros_on_an_axis_mirror_their_rows(self):
        points = np.array([[0.2, 0.0], [0.2, -0.0], [0.0, -0.15], [-0.0, -0.15]])
        frames = np.array([[[0.6, -0.8]], [[0.6, 0.8]], [[1.0, 0.5]], [[-1.0, 0.5]]])
        current = DiracCurrent(points, frames=frames)
        kernel = MollifierKernel.create(2, 0.1, level=1)
        folded = mollified_sample(current, kernel, ball_shifts=True)
        pts = folded.points.reshape(-1, 4, 2)
        frs = folded.frames.reshape(-1, 4, 2)
        flip = np.array([1.0, -1.0]), np.array([-1.0, 1.0])
        # x -> (x0, -x1) and x -> (-x0, x1) mirror the pairs, bit for bit
        for (a, b), mirror in zip(((0, 1), (2, 3)), flip):
            assert np.array_equal(pts[:, b], pts[:, a] * mirror)
            assert np.array_equal(np.signbit(pts[:, b]), np.signbit(pts[:, a] * mirror))
            assert np.array_equal(frs[:, b], frs[:, a] * mirror)
        # every row stays inside BRIDGE_LO, so it moves by its image node exactly
        nodes = kernel.convex_weights()[0]
        for r, x in enumerate(points):
            images = np.array([_signed_node(x, y) for y in nodes])
            assert np.array_equal(pts[:, r], x + images)
        forms = [form_a(), form_b(), form_c()]
        want = currents._shift_product(current, kernel).pair_many(forms)
        assert np.all(np.abs(folded.pair_many(forms) - want) <= FOLD_BOUND)

    @pytest.mark.parametrize("level", [1, 2])
    def test_rows_past_the_identity_radius_stay_bit_for_bit(self, level):
        name, wide, forms = PRODUCT_CASES[3]
        assert name == "past_identity"
        kernel = MollifierKernel.create(2, 0.1, level=level)
        folded = mollified_sample(wide, kernel, ball_shifts=True)
        outer = np.linalg.norm(wide.points, axis=1) >= R_IDENTITY
        assert 0 < outer.sum() < len(outer)
        m = kernel.convex_weights()[0].shape[0]
        pts = folded.points.reshape(m, -1, 2)
        frames = folded.frames.reshape(m, -1, 1, 2)
        assert np.array_equal(pts[:, outer], np.broadcast_to(wide.points[outer], pts[:, outer].shape))
        assert np.array_equal(frames[:, outer],
                              np.broadcast_to(wide.frames[outer], frames[:, outer].shape))
        assert not np.array_equal(folded.points, currents._shift_product(wide, kernel).points)

    @pytest.mark.parametrize("level", [1, 2])
    def test_a_three_dimensional_kernel_never_folds(self, monkeypatch, level):
        # the azimuthal rule is not closed under x <-> z
        name, triangle, forms = PRODUCT_CASES[-1]
        assert name == "triangle_3d"
        kernel = MollifierKernel.create(3, 0.1, level=level)
        assert not kernel._signed_symmetric
        rows = self._recorded_rows(monkeypatch)
        folded = mollified_sample(triangle, kernel, ball_shifts=True)
        assert [len(r) for r in rows] == [triangle.points.shape[0]]
        unfolded = currents._shift_product(triangle, kernel)
        for got, want in ((folded.points, unfolded.points), (folded.frames, unfolded.frames),
                          (folded.weights, unfolded.weights)):
            assert np.array_equal(got, want)
        assert folded.pair_many(forms).tolist() == unfolded.pair_many(forms).tolist()


class TestCutoffPlateau:
    FORM = TestForm(1, 2, {(0,): lambda x: np.exp(x[:, 1]),
                           (1,): lambda x: np.sin(3.0 * x[:, 0])}, 0.9, 0.5)

    @pytest.mark.parametrize("radius, plateau", [
        (0.5, True), (np.nextafter(0.5, 1.0), False), (0.6, False)],
        ids=["flat_radius", "next_above", "ramp"])
    def test_plateau_pairs_as_the_full_cutoff(self, monkeypatch, radius, plateau):
        # rows inside the plateau plus one row at the given radius
        angles = np.linspace(0.0, 2.0 * np.pi, 9)[:-1]
        inside = 0.3 * np.stack([np.cos(angles), np.sin(angles)], 1)
        points = np.concatenate([inside, [[0.0, radius]]])
        frames = np.stack([np.cos(3.0 * angles + 1.0), np.sin(angles - 0.5)], 1)
        frames = np.concatenate([frames, [[0.7, -0.4]]])[:, None, :]
        sample = WeightedSample(points, frames, np.linspace(-1.0, 2.0, 9))
        radii = []
        norms = currents._norms
        monkeypatch.setattr(currents, "_norms", lambda x: radii.append(x) or norms(x))
        rows = currents._cutoff_rows(self.FORM, sample.points, sample.frames)
        assert (rows[0] is None) == plateau
        # one norm pass, on the ramp the former cutoff's bits
        assert len(radii) == 1
        if not plateau:
            former = smooth_step((0.9 - np.linalg.norm(points, axis=1)) / (0.9 - 0.5))
            assert rows[0].tobytes() == former.tobytes()
            assert rows[0].tobytes() == self.FORM.cutoff(points).tobytes()
        assert self.FORM.evaluate(points, frames).tobytes() == \
            _masked_values(self.FORM, sample).tobytes()
        assert sample.pair(self.FORM) == _masked_pairing(self.FORM, sample)

    def test_no_cutoff_is_computed_on_the_plateau(self, monkeypatch):
        monkeypatch.setattr(TestForm, "_cutoff_at", lambda form, radii: pytest.fail("cutoff"))
        sample = mollified_sample(square_loop(), MollifierKernel.create(2, 0.1),
                                  ball_shifts=True)
        assert np.isfinite(sample.pair_many([form_a(), form_b(), form_c()])).all()


def centered_cutoff(radius=1.0):
    return ChartCutoff(AffineChart(np.zeros(2), radius))


class TestLocalize:
    def test_dirac_fully_inside(self):
        cutoff = centered_cutoff()
        current = DiracCurrent(np.array([[0.1, 0.1]]), np.array([2.0]))
        inside, outside = localize(current, cutoff)
        assert inside.weights[0] == 2.0
        assert outside.weights[0] == 0.0

    def test_dirac_fully_outside(self):
        cutoff = centered_cutoff(0.25)
        current = DiracCurrent(np.array([[0.4, 0.4]]), np.array([2.0]))
        inside, outside = localize(current, cutoff)
        assert inside.weights[0] == 0.0
        assert outside.weights[0] == 2.0

    def test_crossing_loop_additivity(self):
        chart = AffineChart(np.array([0.1, 0.0]), 0.35)
        cutoff = ChartCutoff(chart)
        # the loop, a segment from the chart centre out past both levels of
        # the bump, and a triangle around the centre reaching past them
        segment = PolyhedralCurrent(np.array([[[0.1, 0.0], [0.6, 0.1]]]), np.array([1.5]))
        triangle = PolyhedralCurrent(np.array([[[-0.3, -0.2], [0.5, 0.0], [0.0, 0.4]]]))
        area = TestForm(2, 2, {(0, 1): lambda x: np.exp(x[:, 0]) + x[:, 1]}, 0.9, 0.5)
        line_forms = (form_a(), form_b(), form_c())
        for current, forms in ((square_loop(), line_forms), (segment, line_forms),
                               (triangle, (area,))):
            h = cutoff.value(current.points)
            assert h.max() == 1.0 and h.min() == 0.0 and np.any((h > 0.0) & (h < 1.0))
            inside, outside = localize(current, cutoff)
            for form in forms:
                split = evaluate(inside, form) + evaluate(outside, form)
                assert split == pytest.approx(evaluate(current, form), abs=1e-8)

    def test_inside_part_stays_in_chart_domain(self):
        chart = AffineChart(np.array([0.1, 0.0]), 0.35)
        cutoff = ChartCutoff(chart)
        inside, _ = localize(square_loop(), cutoff)
        live = np.abs(inside.weights) > 0
        rho = chart.chart_radius(inside.points[live])
        assert np.all(rho <= 1.0 + 1e-12)

    def test_sample_input_splits_its_weights(self):
        sample = DiracCurrent(np.array([[0.1, 0.1], [0.8, 0.0], [2.0, 0.0]]),
                              np.array([1.5, -2.0, 3.0]))
        cutoff = centered_cutoff()
        h = cutoff.value(sample.points)
        assert 0.0 < h[1] < 1.0
        inside, outside = localize(sample, cutoff)
        for half, weights in ((inside, sample.weights * h), (outside, sample.weights * (1.0 - h))):
            assert isinstance(half, WeightedSample)
            assert np.array_equal(half.points, sample.points)
            assert np.array_equal(half.frames, sample.frames)
            assert np.array_equal(half.weights, weights)

    def test_triangles_multiply_by_the_bump(self):
        triangles = PolyhedralCurrent(np.array([[[0.0, 0.0], [0.9, 0.1], [0.2, 0.7]]]),
                                      np.array([2.0]), panels=2, order=4)
        cutoff = centered_cutoff()
        h = cutoff.value(triangles.points)
        inside, outside = localize(triangles, cutoff)
        assert np.array_equal(inside.points, triangles.points)
        assert np.array_equal(inside.frames, triangles.frames)
        assert np.array_equal(inside.weights, triangles.weights * h)
        assert np.array_equal(outside.weights, triangles.weights * (1.0 - h))


class TestEquivariant:
    def orbit_current(self):
        base = np.array([0.2, 0.0])
        group = cyclic_rotation_group(4)
        points = np.stack([m @ base for m in group.matrices])
        return DiracCurrent(points), group

    def test_trivial_group_matches_localized_smoothing(self):
        kernel = MollifierKernel.create(2, 0.05)
        cutoff = centered_cutoff()
        current, _ = self.orbit_current()
        form = scalar_form(lambda x: np.cos(x[:, 0] + 2.0 * x[:, 1]))
        averaged = equivariant_sample(current, kernel, cutoff, trivial_group(2)).pair(form)
        inside, outside = localize(current, cutoff)
        chart_part = mollified_sample(inside, kernel, ball_shifts=True).pair(form)
        plain_part = evaluate(outside, form)
        assert averaged == pytest.approx(chart_part + plain_part, abs=1e-13)

    def test_orbit_mass_preserved(self):
        kernel = MollifierKernel.create(2, 0.05)
        cutoff = centered_cutoff()
        current, group = self.orbit_current()
        value = equivariant_sample(current, kernel, cutoff, group).pair(ONE)
        assert value == pytest.approx(4.0, abs=1e-6)

    def test_orbit_value_against_direct_sum(self):
        # independent route: the orbit sits where every shift reduces to a
        # translation, so the answer is a plain convex sum over the four
        # atoms and the kernel nodes, computed here without the operator
        epsilon = 0.05
        kernel = MollifierKernel.create(2, epsilon)
        cutoff = centered_cutoff()
        current, group = self.orbit_current()
        form = scalar_form(lambda x: np.exp(-x[:, 0]) + 0.5 * x[:, 1] ** 2)
        value = equivariant_sample(current, kernel, cutoff, group).pair(form)
        nodes, weights = kernel.convex_weights()
        direct = 0.0
        for rot in group.matrices:
            for atom in current.points:
                shifted = atom[None, :] + nodes
                direct += 0.25 * float(weights @ form.evaluate(shifted @ rot.T))
        assert value == pytest.approx(direct, rel=1e-12)

    def test_output_is_group_invariant(self):
        kernel = MollifierKernel.create(2, 0.05)
        cutoff = centered_cutoff()
        current, group = self.orbit_current()
        form = scalar_form(lambda x: np.sin(x[:, 0]) + x[:, 1] ** 3)
        sample = equivariant_sample(current, kernel, cutoff, group)
        base = sample.pair(form)
        for rot in group.matrices:
            assert sample.rotated(rot).pair(form) == pytest.approx(base, abs=1e-10)

    def test_non_invariant_input_rejected(self, monkeypatch):
        # the averaging assumes an invariant input; building a scenario is
        # what guards every current an experiment smooths
        lopsided = DiracCurrent(np.array([[0.2, 0.1]]))
        base = scenarios._BUILDERS["euclid_z4"]
        monkeypatch.setitem(scenarios._BUILDERS, "euclid_z4",
                            lambda quadrature: replace(base(quadrature), currents=(lopsided,)))
        with pytest.raises(scenarios.ScenarioError, match="not group invariant"):
            scenarios.build_scenario("euclid_z4")


class TestInvarianceResidual:
    def test_orbit_under_own_group(self):
        base = np.array([0.2, 0.0])
        group = cyclic_rotation_group(4)
        points = np.stack([m @ base for m in group.matrices])
        current = DiracCurrent(points)
        forms = [scalar_form(lambda x: x[:, 0] ** 2), scalar_form(lambda x: x[:, 1])]
        assert invariance_residual(current, group, forms) <= 1e-12

    def test_reflection_detects_asymmetry(self):
        group = GroupAction(np.array([np.eye(2), np.diag([1.0, -1.0])]))
        current = DiracCurrent(np.array([[0.1, 0.2]]))
        probe = scalar_form(lambda x: x[:, 1])
        assert invariance_residual(current, group, [probe]) > 0.1

    def test_trivial_group_is_silent(self):
        current = DiracCurrent(np.array([[0.3, -0.2]]))
        probe = scalar_form(lambda x: np.exp(x[:, 0]))
        assert invariance_residual(current, trivial_group(2), [probe]) == 0.0

    def test_nan_weight_gives_a_nan_residual(self):
        current = DiracCurrent(np.array([[0.2, 0.0], [-0.2, 0.0]]), weights=[1.0, np.nan])
        probe = scalar_form(lambda x: x[:, 0] ** 2)
        assert np.isnan(invariance_residual(current, cyclic_rotation_group(2), [probe]))


@settings(max_examples=25, deadline=None)
@given(
    scale_a=st.floats(-2.0, 2.0),
    scale_b=st.floats(-2.0, 2.0),
)
def test_pairing_is_linear_in_the_current(scale_a, scale_b):
    seg = np.array([[[0.05, -0.1], [0.25, 0.15]]])
    first = PolyhedralCurrent(seg, np.array([scale_a]))
    second = PolyhedralCurrent(seg + 0.1, np.array([scale_b]))
    form = form_c()
    combined = WeightedSample.concatenate([first, second])
    assert evaluate(combined, form) == pytest.approx(
        evaluate(first, form) + evaluate(second, form), abs=1e-12
    )


@settings(max_examples=50, deadline=None)
@given(
    x=st.floats(-3.0, 3.0),
    y=st.floats(-3.0, 3.0),
)
def test_form_support_is_a_hard_zero(x, y):
    form = scalar_form(lambda p: np.full(p.shape[0], 7.0), support=0.9, flat=0.5)
    point = np.array([[x, y]])
    value = float(form.evaluate(point)[0])
    if np.hypot(x, y) >= 0.9:
        assert value == 0.0
    elif np.hypot(x, y) <= 0.5:
        assert value == 7.0
