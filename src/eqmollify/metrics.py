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
curvature taken on top.  The quadrature reads its moved points and the
built-in fields' values in Fortran order, one contiguous row per entry.

Every symmetry shortcut rests on isometries that are declared and exact:
a field states its own (``MetricField.isometry``), and one rule
(``_stage_symmetries``) admits a matrix as a symmetry of a chart stage
when it fixes the chart centre, permutes the kernel nodes onto nodes of
equal weight, and is the identity or declared by the field.  The group
average takes its symmetry subgroup from that rule (``_stage_cosets``).

The quadrature folds onto one point per signed-permutation orbit when
every signed permutation is a symmetry of the stage (``_folds``); signed
coordinate permutations are the ones floating point applies exactly.  So
the value at x = S c, c = sort(|x|), is taken as S V(c) S^T: one shift
product per distinct c, then an index gather and exact sign products.
Otherwise the field is the unfolded quadrature bit for bit.  Folded values
differ from unfolded ones by rounding only, and each depends on its own
point alone.  ``mollify_metric`` folds wherever the rule admits it; the
chart stages fold on request (``fold``), because the invariance
certificate runs them unfolded: folded, its residuals would vanish by
construction.
"""

from dataclasses import dataclass, replace

import numpy as np

from .ballmap import R_IDENTITY, _norms, _shift_blocks, _signed_orbits, _squared_norms
from .kernel import _permutes_nodes, _signed_permutations
from .maps import AffineChart, GroupAction

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
        """Each axis a ``linspace``; one with lo == -hi is 0.5 (x - x[::-1]),
        x[k] == -x[n-1-k] bit for bit, so mirrored points share one orbit."""
        axes = [np.linspace(*box) for box in zip(self.lo, self.hi, self.counts)]
        return [0.5 * (x - x[::-1]) if x[0] == -x[-1] else x for x in axes]

    def points(self):
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)


@dataclass(frozen=True)
class MetricField:
    """SPD matrix field with optional analytic derivatives.

    ``fn`` maps point batches (N, n) to matrices (N, n, n) in any memory
    layout; the quadrature passes points in Fortran order, and the built-in
    fields return values in Fortran order, each entry one contiguous row,
    which it reads fastest.  Analytic first and second derivatives, when
    supplied, have shapes (N, n, n, n) for d_a g_ij and (N, n, n, n, n) for
    d_a d_b g_ij.  A field carrying both gets analytic curvature jets; any
    other field, a smoothed one among them, gets central differences.

    ``isometry``, when supplied, is a predicate on an orthogonal matrix m
    that is true only if m^T g(m x) m = g(x) exactly at every x.  The
    symmetry shortcuts trust it and nothing else: a field without one,
    a smoothed one among them, declares no isometry but the identity.
    """

    fn: object
    dimension: int
    first_derivative: object = None
    second_derivative: object = None
    isometry: object = None

    def value(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return np.asarray(self.fn(points), dtype=float)


def constant_metric(matrix):
    """The constant field A; it declares m an isometry iff m^T A m == A."""
    matrix = np.asarray(matrix, dtype=float)
    n = matrix.shape[0]
    zeros1 = lambda pts: np.zeros((pts.shape[0], n, n, n))
    zeros2 = lambda pts: np.zeros((pts.shape[0], n, n, n, n))
    return MetricField(
        fn=lambda pts: np.broadcast_to(matrix, (pts.shape[0], n, n)).copy(order="F"),
        dimension=n,
        first_derivative=zeros1,
        second_derivative=zeros2,
        isometry=lambda m: np.array_equal(m.T @ matrix @ m, matrix),
    )


def conformal_metric(factor, grad=None, hessian=None, dimension=2):
    """Metric c(x) * identity from a scalar conformal factor.

    ``factor`` maps (N, n) to (N,); optional ``grad`` to (N, n) and
    ``hessian`` to (N, n, n) supply analytic derivatives of c.
    """
    n = dimension
    eye = np.eye(n)

    def fn(pts):
        c = np.asarray(factor(pts), dtype=float)
        return np.multiply(c[:, None, None], eye, out=np.empty((c.shape[0], n, n), order="F"))

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
    """Conformal metric p(|x|^2) * identity from a radial profile in t = |x|^2,
    which declares every orthogonal matrix an isometry.

    Profile derivatives, when given, turn into analytic metric derivatives
    via the chain rule grad c = 2 p'(t) x, hess c = 4 p'' x xT + 2 p' I.
    """
    factor = lambda pts: profile(_squared_norms(pts))
    grad = None
    hessian = None
    if dprofile is not None:
        grad = lambda pts: 2.0 * dprofile(_squared_norms(pts))[:, None] * pts
    if d2profile is not None:
        def hessian(pts):
            t = _squared_norms(pts)
            outer = pts[:, :, None] * pts[:, None, :]
            return (4.0 * d2profile(t))[:, None, None] * outer + (
                2.0 * dprofile(t)
            )[:, None, None] * np.eye(pts.shape[1])

    return replace(conformal_metric(factor, grad=grad, hessian=hessian, dimension=dimension),
                   isometry=lambda m: True)


def _mollify_values(metric_fn, kernel, points, fold=False):
    """Fused quadrature of the shifted pullbacks at each point.

    Rows at radius >= R_IDENTITY bypass the quadrature and copy the input
    value; the rest average the congruences over the chunks of the shift
    product.  Each congruence J^T V J is taken per component, T = J^T V
    then T J, as ordered sums over the inner index, and so is the node sum,
    one sum over every node per point: no BLAS call, so reruns, thread
    counts, the chunk size and the batch a point comes in reproduce it
    bit for bit.

    With ``fold`` set, which only ``_folds`` may allow, the quadrature
    runs once per distinct c = sort(|x|) (``_signed_orbits``) and entry
    (i, k) of row x = S c is the gathered V(c)[rank_i, rank_k] times
    sign_i sign_k, all exact.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    count, n = points.shape
    inner = _norms(points) < R_IDENTITY
    out = np.empty((count, n, n))
    if np.any(~inner):
        out[~inner] = metric_fn(points[~inner])
    if np.any(inner):
        quad = points[inner]
        if fold:
            quad, orbit, rank, sign = _signed_orbits(quad)
        if quad.shape[0] == 1:
            # numpy sums a lone point's node column in another order than a
            # chunk's, so a lone point or orbit is evaluated twice
            quad = np.repeat(quad, 2, axis=0)
        nodes, node_w = kernel.convex_weights()
        acc = np.empty((n, n, quad.shape[0]))
        for part, moved, chain in _shift_blocks(quad, nodes):
            shape = chain.shape[2:]
            vals = metric_fn(moved.reshape(-1, n)).reshape(shape + (n, n))
            row = np.empty((n,) + shape)
            work = np.empty(shape)
            term = np.empty(shape)
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
                    acc[i, k, part] = np.einsum("j,jr->r", node_w, work)
            # free the chunk before the next one is compressed
            del moved, chain, vals, row, work, term
        vals = np.moveaxis(0.5 * (acc + np.swapaxes(acc, 0, 1)), -1, 0)
        if fold:
            vals = vals[orbit.reshape(-1, 1, 1), rank[:, :, None], rank[:, None, :]]
            vals *= sign[:, :, None]
            vals *= sign[:, None, :]
        out[inner] = vals[:np.count_nonzero(inner)]
    return out


def mollify_metric(metric, kernel):
    """Kernel average of the shift pullbacks of the metric.

    Equals the input bit for bit from R_IDENTITY outward, and in particular
    everywhere outside the closed unit ball.  The output is a convex
    combination of congruent SPD matrices, so positive definiteness is
    checked, not assumed.  The quadrature folds onto signed-permutation
    orbits when each one permutes the kernel nodes and is an isometry the
    field declares: declared and exact, never probed.
    """
    if kernel.dimension != metric.dimension:
        raise MetricError("kernel dimension does not match the metric")
    fold = _folds(metric, AffineChart(np.zeros(metric.dimension), 1.0), kernel)

    def fn(pts):
        vals = _mollify_values(metric.value, kernel, pts, fold=fold)
        _require_spd(vals, pts, "mollified metric lost")
        return vals

    return MetricField(fn=fn, dimension=metric.dimension)


def chart_smooth_metric(metric, cutoff, kernel, *, fold=False):
    """Chart-localized smoothing: bump-weighted part mollified in chart
    coordinates, remainder untouched.

    Outside the chart domain the result is the input metric, returned bit
    for bit: those rows never enter the quadrature path at all.  ``fold``
    asks for the signed-permutation fold in chart coordinates.  It runs on
    a chart centred at the origin whose signed permutations permute the
    kernel nodes and are isometries the field declares: declared and
    exact, never probed.
    """
    chart = cutoff.chart
    n = metric.dimension
    fold = fold and _folds(metric, chart, kernel)

    def weighted_chart_metric(u):
        # the bump-weighted metric pushed to chart coordinates, a congruence
        # by the scalar Jacobian radius; only positive semidefinite where the
        # bump decays, on purpose
        weight = cutoff.profile(_norms(u))
        # the same products in the same order, on one fresh array: the first
        # product copies, so the input's own values are never written
        vals = metric.value(chart.apply_inverse(u)) * chart.radius
        vals *= chart.radius
        vals *= weight[:, None, None]
        return vals

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
            smoothed = _mollify_values(weighted_chart_metric, kernel, chart.apply(inner),
                                       fold=fold)
            pulled = (smoothed * chart.scale) * chart.scale
            remainder = 1.0 - cutoff.profile(rho[inside])
            total = pulled + remainder[:, None, None] * metric.value(inner)
            _require_spd(total, inner, "chart smoothing lost")
            out[inside] = total
        return out

    return MetricField(fn=fn, dimension=n)


def isometry_residual(metric, group, points):
    """max over group elements and points of the pullback defect of g.

    Measures an input metric or a smoothed field alike; ``group`` is any
    iterable of orthogonal matrices, a GroupAction or a plain list of probes.
    A NaN defect makes the residual NaN.  The field is evaluated once for
    the points and once per element other than the identity, whose pullback
    is the base itself: ``base - base`` still reads NaN where the field does.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    base = metric.value(points)
    eye = np.eye(points.shape[1])

    def pulled(mat):
        if np.array_equal(mat, eye):
            return base
        return np.einsum("ji,rjk,kl->ril", mat, metric.value(points @ mat.T), mat)

    return float(np.max([0.0] + [np.max(np.abs(pulled(mat) - base)) for mat in group]))


def _stage_symmetries(metric, chart, kernel, matrices):
    """Per matrix m, whether m is a symmetry of the chart stage: m fixes the
    chart centre within 1e-14, permutes the kernel nodes
    (``_permutes_nodes``), and is exactly the identity or an isometry the
    field declares.  The field itself is never evaluated."""
    center = chart.center
    eye = np.eye(metric.dimension)
    declared = metric.isometry or (lambda m: False)
    return np.array([
        bool(permutes) and np.max(np.abs(mat @ center - center)) <= 1e-14
        and (np.array_equal(mat, eye) or bool(declared(mat)))
        for mat, permutes in zip(matrices, _permutes_nodes(kernel, matrices))], dtype=bool)


def _folds(metric, chart, kernel):
    """Whether the quadrature in the chart's coordinates may fold onto one
    point per signed-permutation orbit: every signed permutation is a
    symmetry of the stage (``_stage_symmetries``)."""
    return bool(np.all(_stage_symmetries(metric, chart, kernel,
                                         _signed_permutations(metric.dimension))))


def _stage_cosets(metric, cutoff, kernel, group):
    """One representative per right coset of the chart stage's symmetry
    subgroup H, and each coset's total weight.

    H holds the elements that ``_stage_symmetries`` admits.  Ball charts,
    radial cutoffs and rotation-equivariant shifts make the stage S
    equivariant under h in H, S(hx) = h S(x) h^T, so g = h c gives
    g^T S(gx) g = c^T S(cx) c.  H is represented by the identity; any
    other element c starts a coset and takes every remaining element
    within 1e-14 of some h c, an O(|G|^2) match.  H = G gives one coset,
    H = {e} the full average in group order.
    """
    in_h = _stage_symmetries(metric, cutoff.chart, kernel, group.matrices)
    coset = np.where(in_h, 0, -1)
    reps = [np.eye(metric.dimension)]
    for index in range(len(group)):
        if coset[index] < 0:
            products = group.matrices[in_h] @ group.matrices[index]
            gap = np.max(np.abs(products[:, None] - group.matrices[None]), axis=(2, 3))
            coset[(coset < 0) & np.any(gap <= 1e-14, axis=0)] = len(reps)
            coset[index] = len(reps)
            reps.append(group.matrices[index])
    return np.array(reps), np.bincount(coset, weights=group.weights)


def haar_average_metric(metric, cutoff, kernel, group, *, fold=False):
    """Group average of the chart-localized smoothing.

    The average runs over one representative per coset of the stage's
    symmetry subgroup (``_stage_cosets``), each weighted by its coset's
    total weight; with a single coset it is the chart stage itself.  For
    finite groups this is the uniform average of pullbacks up to the
    rounding of the permuted quadrature sums; the torus carrier is its
    equispaced-angle quadrature, which is spectrally accurate for the
    smooth integrands at hand.  An element joins the symmetry subgroup
    only if it is the identity or an isometry the input declares: declared
    and exact, never probed.  A field that declares nothing gets the full
    average over the group's elements.  ``fold`` is passed to the chart
    stage.
    """
    if not isinstance(group, GroupAction):
        raise MetricError("group must be a GroupAction")
    stage = chart_smooth_metric(metric, cutoff, kernel, fold=fold)
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
