"""Metric tensor fields and their equivariant mollification.

A metric field is a batched callable returning SPD matrices.  The smoothing
operator averages pullbacks under the ball-preserving shifts against the
mollifier kernel; a chart-localized variant splits the metric with a bump,
smooths the weighted half in chart coordinates and reassembles, and the
group average symmetrizes the result over a compact group of orthogonal
matrices acting by isometries.

The pointwise quadrature runs on the fused shift product of ``ballmap``
and takes each congruence per component, with no BLAS call; points at
radius R_IDENTITY or beyond skip it and reproduce the input bit for bit.
Multi-chart stages are therefore composed exactly and never cached on a
grid: interpolation would break that locality and the finite-difference
curvature taken on top.
"""

from dataclasses import dataclass

import numpy as np

from .ballmap import R_IDENTITY, _shift_blocks
from .maps import GroupAction

__all__ = [
    "MetricError",
    "BoxGrid",
    "MetricField",
    "conformal_metric",
    "constant_metric",
    "radial_conformal_metric",
    "mollify_metric",
    "chart_smooth_metric",
    "haar_average_metric",
    "isometry_residual",
    "sobolev_seminorm",
    "a_nu",
    "EpsilonSelection",
    "EpsilonSelector",
    "select_epsilon_for_k",
    "default_level_schedule",
]


class MetricError(RuntimeError):
    """Loss of positive definiteness or domain abuse."""


def _require_spd(values, points, what):
    """Smallest eigenvalue of a matrix stack; raises MetricError naming the
    worst point when it is not positive."""
    eigs = np.linalg.eigvalsh(values)
    low = float(np.min(eigs)) if eigs.size else np.inf
    if low <= 0.0:
        bad = int(np.argmin(eigs[:, 0]))
        raise MetricError("%s positive definiteness at %s (min eigenvalue %.3e)"
                          % (what, points[bad], eigs[bad, 0]))
    return low


@dataclass(frozen=True)
class BoxGrid:
    """Uniform tensor grid on an axis-aligned box."""

    lo: np.ndarray
    hi: np.ndarray
    counts: tuple

    def __init__(self, lo, hi, counts):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        counts = tuple(int(c) for c in np.atleast_1d(counts))
        if len(counts) == 1 and lo.shape[0] > 1:
            counts = counts * lo.shape[0]
        if any(c < 2 for c in counts):
            raise MetricError("grid needs at least two nodes per axis")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "counts", counts)

    @property
    def dimension(self):
        return self.lo.shape[0]

    @property
    def spacing(self):
        return (self.hi - self.lo) / (np.array(self.counts) - 1.0)

    def axes(self):
        return [np.linspace(self.lo[a], self.hi[a], self.counts[a]) for a in range(self.dimension)]

    def points(self):
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)


@dataclass(frozen=True)
class MetricField:
    """SPD matrix field with optional analytic derivatives.

    ``fn`` maps point batches (N, n) to matrices (N, n, n).  Analytic first
    and second derivatives, when supplied, have shapes (N, n, n, n) for
    d_a g_ij and (N, n, n, n, n) for d_a d_b g_ij.  A field carrying both
    gets analytic curvature jets; any other field, a smoothed one among
    them, gets central differences.
    """

    fn: object
    dimension: int
    first_derivative: object = None
    second_derivative: object = None

    def value(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return np.asarray(self.fn(points), dtype=float)


def constant_metric(matrix):
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    zeros1 = lambda pts: np.zeros((pts.shape[0], n, n, n))
    zeros2 = lambda pts: np.zeros((pts.shape[0], n, n, n, n))
    return MetricField(
        fn=lambda pts: np.broadcast_to(matrix, (pts.shape[0], n, n)).copy(),
        dimension=n,
        first_derivative=zeros1,
        second_derivative=zeros2,
    )


def conformal_metric(factor, grad=None, hessian=None, dimension=2):
    """Metric c(x) * identity from a scalar conformal factor.

    ``factor`` maps (N, n) to (N,); optional ``grad`` to (N, n) and
    ``hessian`` to (N, n, n) supply analytic derivatives of c.
    """
    n = dimension
    eye = np.eye(n)

    def fn(pts):
        return np.asarray(factor(pts), dtype=float)[:, None, None] * eye

    first = None
    second = None
    if grad is not None:
        def first(pts):
            g = np.asarray(grad(pts), dtype=float)
            return g[:, :, None, None] * eye

    if hessian is not None:
        def second(pts):
            h = np.asarray(hessian(pts), dtype=float)
            return h[:, :, :, None, None] * eye

    return MetricField(fn=fn, dimension=n, first_derivative=first,
                       second_derivative=second)


def radial_conformal_metric(profile, dprofile=None, d2profile=None, dimension=2):
    """Conformal metric p(|x|^2) * identity from a radial profile in t = |x|^2.

    Profile derivatives, when given, turn into analytic metric derivatives
    via the chain rule grad c = 2 p'(t) x, hess c = 4 p'' x xT + 2 p' I.
    """
    factor = lambda pts: profile(np.sum(pts**2, axis=-1))
    grad = None
    hessian = None
    if dprofile is not None:
        grad = lambda pts: 2.0 * dprofile(np.sum(pts**2, axis=-1))[:, None] * pts
    if d2profile is not None:
        def hessian(pts):
            t = np.sum(pts**2, axis=-1)
            outer = pts[:, :, None] * pts[:, None, :]
            return (4.0 * d2profile(t))[:, None, None] * outer + (
                2.0 * dprofile(t)
            )[:, None, None] * np.eye(pts.shape[1])

    return conformal_metric(factor, grad=grad, hessian=hessian, dimension=dimension)


def _mollify_values(metric_fn, kernel, points):
    """Fused quadrature of the shifted pullbacks at each point.

    Rows at radius >= R_IDENTITY bypass the quadrature and copy the input
    value; the rest average the congruences over the blocks of the shift
    product.  Each congruence J^T V J is taken per component, T = J^T V
    then T J, as ordered sums over the inner index, and so is the node sum:
    no BLAS call, so reruns and thread counts reproduce it bit for bit.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    count, n = points.shape
    inner = np.linalg.norm(points, axis=1) < R_IDENTITY
    out = np.empty((count, n, n))
    if np.any(~inner):
        out[~inner] = metric_fn(points[~inner])
    if np.any(inner):
        nodes, node_w = kernel.convex_weights()
        acc = np.zeros((n, n, int(np.count_nonzero(inner))))
        for part, block, moved, chain in _shift_blocks(points[inner], nodes):
            b, m = chain.shape[2:]
            vals = metric_fn(moved.reshape(-1, n)).reshape(b, m, n, n)
            row = np.empty((n, b, m))
            work = np.empty((b, m))
            term = np.empty((b, m))
            for i in range(n):
                # row[c] = T_ic = sum_a chain[a, i] V_ac
                for c in range(n):
                    np.multiply(chain[0, i], vals[..., 0, c], out=row[c])
                    for a in range(1, n):
                        row[c] += np.multiply(chain[a, i], vals[..., a, c], out=term)
                # C_ik = sum_a T_ia chain[a, k], summed over the nodes
                for k in range(n):
                    np.multiply(row[0], chain[0, k], out=work)
                    for a in range(1, n):
                        work += np.multiply(row[a], chain[a, k], out=term)
                    acc[i, k, part] += np.einsum("j,jr->r", node_w[block], work)
        out[inner] = np.moveaxis(0.5 * (acc + np.swapaxes(acc, 0, 1)), -1, 0)
    return out


def mollify_metric(metric, kernel):
    """Kernel average of the shift pullbacks of the metric.

    Equals the input bit for bit from R_IDENTITY outward, and in particular
    everywhere outside the closed unit ball.  The output is a convex
    combination of congruent SPD matrices, so positive definiteness is
    checked, not assumed.
    """
    if kernel.dimension != metric.dimension:
        raise MetricError("kernel dimension does not match the metric")

    def fn(pts):
        vals = _mollify_values(metric.value, kernel, pts)
        _require_spd(vals, pts, "mollified metric lost")
        return vals

    return MetricField(fn=fn, dimension=metric.dimension)


def chart_smooth_metric(metric, cutoff, kernel):
    """Chart-localized smoothing: bump-weighted part mollified in chart
    coordinates, remainder untouched.

    Outside the chart domain the result is the input metric, returned bit
    for bit: those rows never enter the quadrature path at all.
    """
    chart = cutoff.chart
    n = metric.dimension

    def weighted_chart_metric(u):
        # the bump-weighted metric pushed to chart coordinates, a congruence
        # by the scalar Jacobian radius; only positive semidefinite where the
        # bump decays, on purpose
        weight = cutoff.profile(np.linalg.norm(u, axis=1))
        vals = metric.value(chart.apply_inverse(u))
        return weight[:, None, None] * ((vals * chart.radius) * chart.radius)

    def fn(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        rho = chart.chart_radius(pts)
        outside = rho >= cutoff.outer
        out = np.empty((pts.shape[0], n, n))
        if np.any(outside):
            out[outside] = metric.value(pts[outside])
        inside = ~outside
        if np.any(inside):
            inner = pts[inside]
            smoothed = _mollify_values(weighted_chart_metric, kernel, chart.apply(inner))
            pulled = (smoothed * chart.scale) * chart.scale
            remainder = 1.0 - cutoff.profile(rho[inside])
            total = pulled + remainder[:, None, None] * metric.value(inner)
            _require_spd(total, inner, "chart smoothing lost")
            out[inside] = total
        return out

    return MetricField(fn=fn, dimension=n)


def _pullback_defects(metric, matrices, points):
    """Per matrix, the largest entry of its pullback defect of g at the
    points; g is evaluated at the points once."""
    base = metric.value(points)
    return [float(np.max(np.abs(
        np.einsum("ji,rjk,kl->ril", mat, metric.value(points @ mat.T), mat) - base)))
        for mat in matrices]


def isometry_residual(metric, group, points):
    """max over group elements and points of the pullback defect of g.

    Measures an input metric or a smoothed field alike; ``group`` is any
    iterable of orthogonal matrices, a GroupAction or a plain list of probes.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return max([0.0] + _pullback_defects(metric, group, points))


def _stage_cosets(metric, cutoff, kernel, group):
    """One representative per right coset of the chart stage's symmetry
    subgroup H, and each coset's total weight.

    H holds the elements that fix the chart centre within 1e-14, map
    each kernel node within 1e-14 * epsilon onto a node of equal convex
    weight (within 1e-14 of the largest) and are isometries of the input
    metric within 1e-8 at fixed probes in the chart ball (the exact
    identity is not probed).  Ball charts, radial cutoffs and
    rotation-equivariant shifts then make the stage S equivariant under
    H, S(hx) = h S(x) h^T, so g = h c gives g^T S(gx) g = c^T S(cx) c.
    H is represented by the identity; any other element c starts a coset
    and takes every remaining element within 1e-14 of some h c, an
    O(|G|^2) match.  H = G gives one coset, H = {e} the full average in
    group order.
    """
    nodes, node_w = kernel.convex_weights()
    center = cutoff.chart.center
    # pair nodes with images by sorting both along one generic direction;
    # at levels 1-3 distinct projections lie >= 1.1e-7 * epsilon apart
    direction = np.sqrt(np.arange(1.0, center.shape[0] + 1.0))
    order = np.argsort(nodes @ direction, kind="stable")
    in_h = np.zeros(len(group), dtype=bool)
    for index, mat in enumerate(group):
        moved = nodes @ mat.T
        image = np.argsort(moved @ direction, kind="stable")
        in_h[index] = (
            np.max(np.abs(mat @ center - center)) <= 1e-14
            and np.max(np.linalg.norm(moved[image] - nodes[order], axis=1))
            <= 1e-14 * kernel.epsilon
            and np.max(np.abs(node_w[image] - node_w[order])) <= 1e-14 * np.max(node_w))
    eye = np.eye(center.shape[0])
    probed = [i for i in np.flatnonzero(in_h) if not np.array_equal(group.matrices[i], eye)]
    if probed:
        # seven fixed generic points in the chart ball, chart radii 0.1-0.9
        u = np.cos(np.outer(np.arange(1.0, 8.0), direction))
        u *= (np.linspace(0.1, 0.9, 7) / np.linalg.norm(u, axis=1))[:, None]
        defects = _pullback_defects(metric, group.matrices[probed], cutoff.chart.apply_inverse(u))
        in_h[probed] = np.array(defects) <= 1e-8
    coset = np.where(in_h, 0, -1)
    reps = [eye]
    for index in range(len(group)):
        if coset[index] < 0:
            products = group.matrices[in_h] @ group.matrices[index]
            gap = np.max(np.abs(products[:, None] - group.matrices[None]), axis=(2, 3))
            coset[(coset < 0) & np.any(gap <= 1e-14, axis=0)] = len(reps)
            coset[index] = len(reps)
            reps.append(group.matrices[index])
    return np.array(reps), np.bincount(coset, weights=group.weights)


def haar_average_metric(metric, cutoff, kernel, group):
    """Group average of the chart-localized smoothing.

    The average runs over one representative per coset of the stage's
    symmetry subgroup (``_stage_cosets``), each weighted by its coset's
    total weight; with a single coset it is the chart stage itself.  For
    finite groups this is the uniform average of pullbacks up to the
    rounding of the permuted quadrature sums; the torus carrier is its
    equispaced-angle quadrature, which is spectrally accurate for the
    smooth integrands at hand.  An element joins the symmetry subgroup
    only if it is an isometry of the input at fixed probes in the chart
    ball, so a group that does not preserve the input gets the full
    average over its elements.
    """
    if not isinstance(group, GroupAction):
        raise MetricError("group must be a GroupAction")
    stage = chart_smooth_metric(metric, cutoff, kernel)
    reps, weights = _stage_cosets(metric, cutoff, kernel, group)
    if len(reps) == 1:
        return stage

    def fn(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        acc = np.zeros((pts.shape[0], metric.dimension, metric.dimension))
        for mat, weight in zip(reps, weights):
            vals = stage.value(pts @ mat.T)
            acc += weight * (mat.T @ vals @ mat)
        return acc

    return MetricField(fn=fn, dimension=metric.dimension)


def _central_differences(values, spacing, spatial_dims):
    """First, pure-second and mixed central differences on the interior."""
    sizes = values.shape[:spatial_dims]

    def at(steps):
        # the interior moved by steps[a] nodes (+1 or -1) along each axis a
        return values[tuple(slice(1 + steps.get(a, 0), s - 1 + steps.get(a, 0))
                            for a, s in enumerate(sizes))]

    firsts, seconds = {}, {}
    for a in range(spatial_dims):
        vp, vm = at({a: 1}), at({a: -1})
        firsts[(a,)] = (vp - vm) / (2.0 * spacing[a])
        seconds[(a, a)] = (vp - 2.0 * at({}) + vm) / spacing[a] ** 2
    for a in range(spatial_dims):
        for b in range(a + 1, spatial_dims):
            seconds[(a, b)] = (at({a: 1, b: 1}) - at({a: 1, b: -1}) - at({a: -1, b: 1})
                               + at({a: -1, b: -1})) / (4.0 * spacing[a] * spacing[b])
    return firsts, seconds


def sobolev_seminorm(metric, grid, reference=None):
    """Second-order sup deviation of a field on a grid, or of its deviation
    from ``reference`` when one is given: the largest entry, in absolute
    value, of the values and of every first, pure-second and mixed central
    difference.  A grid without interior nodes contributes no differences.
    """
    points = grid.points()
    vals = metric.value(points).reshape(grid.counts + (metric.dimension,) * 2)
    if reference is not None:
        vals = vals - reference.value(points).reshape(vals.shape)
    firsts, seconds = _central_differences(vals, grid.spacing, grid.dimension)
    return max(float(np.max(np.abs(d), initial=0.0))
               for d in (vals, *firsts.values(), *seconds.values()))


def a_nu(metric, grid):
    """Smallest metric eigenvalue over the grid points inside the closed
    unit ball: the uniform ellipticity constant of the scenario."""
    pts = grid.points()
    pts = pts[np.linalg.norm(pts, axis=1) <= 1.0]
    if pts.shape[0] == 0:
        raise MetricError("grid has no points inside the closed ball")
    eigs = np.linalg.eigvalsh(metric.value(pts))
    bottom = float(np.min(eigs))
    if bottom <= 0.0:
        raise MetricError("input is not a metric: eigenvalue %.3e" % bottom)
    return bottom


def default_level_schedule(epsilon, dimension=2):
    """Kernel quadrature level matched to the integrand: wide kernels see
    strongly varying shifts and need a finer rule, narrow kernels average
    an almost-linear integrand and the coarse rule already resolves it.
    Cross-level agreement is pinned in the tests (level 1 within 1.5
    percent of level 3 across the sweep range, level 2 within 0.3)."""
    if dimension == 1:
        return 7
    if dimension >= 3:
        return 3 if epsilon > 0.02 else 2
    return 2 if epsilon > 0.02 else 1


@dataclass(frozen=True)
class EpsilonSelection:
    epsilon: float
    achieved: float
    bound: float
    satisfied: bool
    tested: tuple


class EpsilonSelector:
    """Search an epsilon-halving lattice for seminorm bounds.

    ``smoother`` maps epsilon to a MetricField; deviations from the
    reference are measured once per lattice point and cached, so tighter
    bounds reuse earlier stages and the selected epsilon is automatically
    non-increasing as the bound shrinks.
    """

    def __init__(self, smoother, reference, grid, start=0.2, max_halvings=16):
        self.smoother = smoother
        self.reference = reference
        self.grid = grid
        self.start = float(start)
        self.max_halvings = int(max_halvings)
        self._cache = {}

    def ladder(self):
        return [self.start * 0.5**j for j in range(self.max_halvings + 1)]

    def deviation(self, epsilon):
        if epsilon not in self._cache:
            self._cache[epsilon] = sobolev_seminorm(self.smoother(epsilon), self.grid,
                                                    reference=self.reference)
        return self._cache[epsilon]

    def select(self, bound):
        """Largest lattice epsilon whose deviation meets the bound."""
        tested = []
        for epsilon in self.ladder():
            value = self.deviation(epsilon)
            tested.append((epsilon, value))
            if value <= bound:
                return EpsilonSelection(epsilon, value, bound, True, tuple(tested))
        best = min(tested, key=lambda pair: pair[1])
        return EpsilonSelection(best[0], best[1], bound, False, tuple(tested))


def select_epsilon_for_k(selector, k, a_nu_value):
    """Constructive rendering of the per-k bound a_nu / k."""
    if k < 1:
        raise MetricError("k must be at least 1")
    return selector.select(a_nu_value / float(k))
