"""Finitely represented currents and their mollification.

A current of degree m is paired weakly with compactly supported test forms,
and every current here is a weighted sample (``WeightedSample``): points,
tangent frames and weights such that T(w) = sum_k weight_k *
w(point_k; frame_k).  ``DiracCurrent`` and ``PolyhedralCurrent`` only build
those rows from atoms or simplices.  Pushforwards are realized as pullbacks
on forms: the points are mapped and the frames multiplied by Jacobians,
which is exact for the pairing and never re-meshes geometry.  A form's
cutoff is exactly 1.0 on its plateau |x - center| <= flat_radius, so rows
all on it skip the cutoff (``_cutoff_rows``).

Two smoothing operators act on a sample, both through ``mollified_sample``:
translation smoothing averages the pushforwards under tau_y over the
mollifier ball, and shift smoothing (``ball_shifts``) uses the ball-preserving
maps from ``ballmap`` instead, which fix everything from R_IDENTITY outward:
sample rows there pass through bit for bit, and a sample with no row inside
is not copied at all.  Both build one node-major copy of the rows per
kernel node, stored component-major so that each coordinate is contiguous.
Where the signed permutations S permute the kernel nodes, the shifts fold
onto orbits, s_{Sy}(Sx) = S s_y(x): they run once per c = sort(|x|).
Unfolded, each row is its own orbit, and the same gathers copy its shifts.
The equivariant operator (``equivariant_sample``) splits the weights with a
chart cutoff (``localize``), smooths the chart half by shifts in chart
coordinates, unfolded, since folding would make the invariance residual
vanish by construction, and averages over a group of orthogonal matrices.
"""

from dataclasses import dataclass
from numbers import Integral

import numpy as np
# by name, so that numpy loads the submodule at import, not inside a run
from numpy.polynomial.legendre import leggauss

from .ballmap import R_IDENTITY, _norms, _shift_blocks, _signed_orbits
from .maps import GroupAction, _worst_defect, smooth_step

__all__ = [
    "CurrentError",
    "TestForm",
    "WeightedSample",
    "DiracCurrent",
    "PolyhedralCurrent",
    "evaluate",
    "mollified_sample",
    "localize",
    "equivariant_sample",
    "invariance_residual",
]


class CurrentError(ValueError):
    """Degree or dimension mismatch, or degenerate current data."""


def _gauss_panels(panels, order):
    """Nodes and weights of a composite Gauss rule on [0, 1]."""
    x, w = leggauss(order)
    width = 1.0 / panels
    starts = width * np.arange(panels)
    nodes = (starts[:, None] + 0.5 * width * (x[None, :] + 1.0)).ravel()
    weights = np.tile(0.5 * width * w, panels)
    return nodes, weights


@dataclass(frozen=True)
class TestForm:
    """Compactly supported smooth m-form with polynomial-style coefficients.

    ``coefficients`` maps increasing multi-indices (tuples of axis numbers)
    to callables on point batches.  The whole form is multiplied by a smooth
    radial cutoff that is exactly one for |x| <= flat_radius and exactly
    zero for |x| >= support_radius, so pairings with far-away currents
    vanish as sums of exact zeros, not merely small numbers.
    """

    degree: int
    dimension: int
    coefficients: dict
    support_radius: float
    flat_radius: float = None
    center: np.ndarray = None

    # not a test case, despite what collectors assume about the name
    __test__ = False

    def __post_init__(self):
        if not 0 <= self.degree <= self.dimension:
            raise CurrentError("form degree must lie between 0 and the dimension")
        if self.flat_radius is None:
            object.__setattr__(self, "flat_radius", 0.5 * self.support_radius)
        if self.center is None:
            object.__setattr__(self, "center", np.zeros(self.dimension))
        else:
            object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if self.center.shape != (self.dimension,):
            raise CurrentError("form center must have %d coordinates" % self.dimension)
        if not 0.0 < self.flat_radius < self.support_radius:
            raise CurrentError("need 0 < flat_radius < support_radius")
        for index in self.coefficients:
            if len(index) != self.degree:
                raise CurrentError("multi-index %r does not match degree %d" % (index, self.degree))
            if list(index) != sorted(set(index)):
                raise CurrentError("multi-index %r is not strictly increasing" % (index,))
            if index and (index[0] < 0 or index[-1] >= self.dimension):
                raise CurrentError("multi-index %r leaves dimension %d" % (index, self.dimension))

    def cutoff(self, points):
        return self._cutoff_at(_norms(np.atleast_2d(points) - self.center))

    def _cutoff_at(self, radii):  # radii |x - center|
        return smooth_step((self.support_radius - radii) / (self.support_radius - self.flat_radius))

    def evaluate(self, points, frames=None):
        """Batched w(x; v_1, ..., v_m): points (N, n), frames (N, m, n)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return self._times_cutoff(_cutoff_rows(self, points, frames))

    def _times_cutoff(self, rows):
        """The form at the points whose ``_cutoff_rows`` are given."""
        bump, live, pts, frames = rows
        if pts.shape[0] == 0 or not self.coefficients:
            return np.zeros(pts.shape[0] if live is None else live.shape[0])
        total = np.zeros(pts.shape[0])
        for index, fn in self.coefficients.items():
            coef = np.asarray(fn(pts), dtype=float)
            if self.degree == 0:
                total += coef
            elif self.degree == 1:
                total += coef * frames[:, 0, index[0]]
            else:
                total += coef * np.linalg.det(frames[:, :, list(index)])
        if live is None:
            return total
        out = np.zeros(live.shape[0])
        out[live] = bump[live] * total
        return out


def _cutoff_rows(form, points, frames):
    """The form's radial cutoff at the points, the mask of rows where it is
    nonzero, and the points and frames of those rows; both are None, and
    the rows those given, on the plateau, where the cutoff is exactly 1.0.
    Depends on the form only through its cutoff, so forms sharing one can
    share the result."""
    if form.degree > 0:
        frames = np.asarray(frames, dtype=float)
    radii = _norms(points - form.center)
    if np.all(radii <= form.flat_radius):
        return None, None, points, frames
    bump = form._cutoff_at(radii)
    live = bump > 0.0
    return bump, live, points[live], frames[live] if form.degree > 0 else frames


@dataclass(frozen=True)
class WeightedSample:
    """Discrete pairing data: T(w) = sum_k weights_k * w(points_k; frames_k)."""

    points: np.ndarray
    frames: np.ndarray
    weights: np.ndarray

    @property
    def degree(self):
        return self.frames.shape[1]

    @property
    def dimension(self):
        return self.points.shape[1]

    def pair(self, form):
        return self._pairings([form])[0]

    def pair_many(self, forms):
        return np.array(self._pairings(forms))

    def _pairings(self, forms):
        """``pair`` of each form.  The cutoff rows are computed once per
        distinct cutoff (support, flat radius, center), which a bank of
        forms usually shares; no value depends on the other forms."""
        shared = {}
        values = []
        for form in forms:
            if form.degree != self.degree:
                raise CurrentError("form degree %d != current degree %d"
                                   % (form.degree, self.degree))
            if form.dimension != self.dimension:
                raise CurrentError("ambient dimensions differ")
            if self.points.shape[0] == 0:
                values.append(0.0)
                continue
            key = (form.support_radius, form.flat_radius, form.center.tobytes())
            if key not in shared:
                shared[key] = _cutoff_rows(form, self.points, self.frames)
            values.append(float(np.dot(self.weights, form._times_cutoff(shared[key]))))
        return values

    def rotated(self, matrix, weight=1.0):
        matrix = np.asarray(matrix, dtype=float)
        return WeightedSample(
            self.points @ matrix.T, self.frames @ matrix.T, self.weights * weight
        )

    @staticmethod
    def concatenate(samples):
        samples = [s for s in samples if s.points.shape[0] > 0]
        if not samples:
            raise CurrentError("cannot concatenate empty sample list")
        return WeightedSample(
            np.concatenate([s.points for s in samples]),
            np.concatenate([s.frames for s in samples]),
            np.concatenate([s.weights for s in samples]),
        )


class DiracCurrent(WeightedSample):
    """Weighted point masses, each carrying an ordered m-frame (empty for m=0)."""

    def __init__(self, points, weights=None, frames=None):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        count, dim = points.shape[0], points.shape[-1]
        if weights is None:
            weights = np.ones(count)
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (count,):
            raise CurrentError("need one weight per point")
        if frames is None:
            frames = np.zeros((count, 0, dim))
        frames = np.asarray(frames, dtype=float)
        if points.ndim != 2 or frames.ndim != 3 or frames.shape[::2] != (count, dim):
            raise CurrentError("frame stack must be (points, degree, dimension)")
        m = frames.shape[1]
        if m > dim:
            raise CurrentError("degree exceeds ambient dimension")
        if m > 0:
            for fr in frames:
                if np.linalg.matrix_rank(fr) < m:
                    raise CurrentError("frame does not span an m-plane")
        super().__init__(points, frames, weights)


class PolyhedralCurrent(WeightedSample):
    """Oriented m-simplices with multiplicities.

    The pairing integrates the form against the constant edge frame of each
    simplex over barycentric parameters, with a composite Gauss rule per
    simplex (tensorized through a collapsed square for triangles); the
    rows are those Gauss nodes, built once here.
    """

    def __init__(self, simplices, multiplicities=None, panels=8, order=10):
        simplices = np.asarray(simplices, dtype=float)
        if simplices.ndim != 3:
            raise CurrentError("simplices must be (count, degree + 1, dimension)")
        count = simplices.shape[0]
        if multiplicities is None:
            multiplicities = np.ones(count)
        multiplicities = np.asarray(multiplicities, dtype=float)
        if multiplicities.shape != (count,):
            raise CurrentError("need one multiplicity per simplex")
        for name, value in (("panels", panels), ("order", order)):
            if not isinstance(value, Integral) or value < 1:
                raise CurrentError("%s must be an integer >= 1, not %r" % (name, value))
        m = simplices.shape[1] - 1
        if not 1 <= m <= simplices.shape[2]:
            raise CurrentError("simplex degree must lie in [1, dimension]")
        if m > 2:
            raise CurrentError("only segment and triangle simplices are supported")
        for sim in simplices:
            edges = sim[1:] - sim[0]
            if np.linalg.svd(edges, compute_uv=False)[-1] <= 1e-12:
                raise CurrentError("degenerate simplex with vanishing m-volume")
        dim = simplices.shape[2]
        base, roots = simplices[:, 0, :], simplices[:, 1:, :]
        edges = roots - base[:, None, :]
        t, w = _gauss_panels(panels, order)
        if m == 1:
            params = t[None, :, None]
            node_w = w
        else:
            # collapsed-square map of the unit square onto the triangle
            u, v = np.meshgrid(t, t, indexing="ij")
            params = np.stack([u.ravel(), (v * (1.0 - u)).ravel()], axis=1)[None, :, :]
            node_w = (np.outer(w, w) * (1.0 - u)).ravel()
        pts = base[:, None, :] + np.einsum("sqm,smn->sqn", np.broadcast_to(params, (count,) + params.shape[1:]), edges)
        q = pts.shape[1]
        frames = np.broadcast_to(edges[:, None, :, :], (count, q, m, dim))
        weights = multiplicities[:, None] * node_w[None, :]
        super().__init__(pts.reshape(-1, dim), frames.reshape(-1, m, dim), weights.ravel())


def evaluate(current, form):
    """The pairing T(w)."""
    return current.pair(form)


def _translation_product(sample, kernel):
    nodes, node_w = kernel.convex_weights()
    dim, deg = sample.dimension, sample.degree
    m, k = nodes.shape[0], sample.points.shape[0]
    pts = np.add(nodes.T[:, :, None], sample.points.T[:, None, :], out=np.empty((dim, m, k)))
    frames = np.broadcast_to(sample.frames.transpose(1, 2, 0)[..., None, :],
                             (deg, dim, m, k)).reshape(deg, dim, m * k)
    weights = (node_w[:, None] * sample.weights[None, :]).ravel()
    return WeightedSample(pts.reshape(dim, m * k).T, frames.transpose(2, 0, 1), weights)


def _shift_product(sample, kernel, fold=False):
    """Node-major shift pushforwards of the sample, one copy per kernel
    node; rows from R_IDENTITY outward keep their point and frame bit for
    bit, stored as (n, rows) points and (degree, n, rows) frames.  A sample
    with no row inside R_IDENTITY is returned as it is: the shifts fix all
    of it, and one copy pairs exactly like the convex combination of
    |nodes| equal ones.

    The shifts run once per orbit of ``_signed_orbits``: with ``fold``,
    which ``MollifierKernel._signed_symmetric`` must allow, once per
    distinct c = sort(|x|), else once per row.  Row (j, x), x = S c, gets
    S s_{y_j}(c) and the chain S J(c) S^T, exact gathers from one row per
    node: the pushforward under node S y_j."""
    inner = np.flatnonzero(_norms(sample.points) < R_IDENTITY)
    if inner.size == 0:
        return sample
    nodes, node_w = kernel.convex_weights()
    dim, deg = sample.dimension, sample.degree
    m, k = nodes.shape[0], sample.points.shape[0]
    pts_out = np.broadcast_to(sample.points.T[:, None, :], (dim, m, k)).copy()
    frames_out = np.broadcast_to(sample.frames.transpose(1, 2, 0)[..., None, :], (deg, dim, m, k)).copy()
    frames_in = sample.frames[inner]
    reps, orbit, rank, sign = _signed_orbits(sample.points[inner], fold)
    count = reps.shape[0]
    moved_at, chain_at = np.empty((m, dim, count)), np.empty((m, dim, dim, count))
    for part, moved, chain in _shift_blocks(reps, nodes):
        moved_at[:, :, part] = moved.transpose(0, 2, 1)
        chain_at[..., part] = chain.transpose(2, 0, 1, 3)
    moved_at, chain_at = moved_at.reshape(m, -1), chain_at.reshape(m, -1)
    # a slice writes all rows faster than an index scatter
    rows = slice(None) if inner.size == k else inner
    for i in range(dim):
        pts_out[i][:, rows] = moved_at.take(rank[:, i] * count + orbit, axis=1) * sign[:, i]
        for b in range(dim):
            # chain entry (i, b) of x: sign_i sign_b J(c)[rank_i, rank_b], exactly
            entry = chain_at.take((rank[:, i] * dim + rank[:, b]) * count + orbit, axis=1)
            term = entry * (frames_in[:, :, b].T * (sign[:, i] * sign[:, b]))[:, None]
            acc = term if b == 0 else acc + term
        frames_out[:, i][..., rows] = acc
    weights = (node_w[:, None] * sample.weights[None, :]).ravel()
    return WeightedSample(pts_out.reshape(dim, m * k).T,
                          frames_out.reshape(deg, dim, m * k).transpose(2, 0, 1), weights)


def mollified_sample(current, kernel, ball_shifts=False):
    """Sample of the smoothed current; pair it with any number of forms.

    With ``ball_shifts`` the averaging runs over the ball-preserving shift
    maps, folded where the kernel allows.  Those fix R_IDENTITY outward, so
    a sample lying there entirely is returned unsmoothed (``_shift_product``)
    and reproduces its pairings bit for bit; so is an empty one.
    """
    if kernel.dimension != current.dimension:
        raise CurrentError("kernel dimension does not match the current")
    if current.points.shape[0] == 0:
        return current
    if ball_shifts:
        return _shift_product(current, kernel, fold=kernel._signed_symmetric)
    return _translation_product(current, kernel)


def localize(sample, cutoff):
    """Split the sample of T by the chart bump h into the inside half,
    weighted by h, and the outside half, weighted by 1 - h.  Both halves
    keep every row, and they pair back to T."""
    h = cutoff.value(sample.points)
    return (WeightedSample(sample.points, sample.frames, sample.weights * h),
            WeightedSample(sample.points, sample.frames, sample.weights * (1.0 - h)))


def equivariant_sample(current, kernel, cutoff, group):
    """Sample of the group-averaged, chart-localized shift smoothing.

    The inside half of ``localize`` is pushed into chart coordinates,
    smoothed by shifts in the unit ball, pushed back and averaged over the
    group together with the untouched outside half.  An empty current is
    returned as it is.
    """
    if not isinstance(group, GroupAction):
        raise CurrentError("group must be a GroupAction")
    if current.points.shape[0] == 0:
        return current
    inside, rest = localize(current, cutoff)
    chart = cutoff.chart
    # a ball chart's Jacobian is scale * I, so its frames only scale
    in_chart = WeightedSample(chart.apply(inside.points),
                              inside.frames * chart.scale, inside.weights)
    smoothed = _shift_product(in_chart, kernel)
    back = WeightedSample(chart.apply_inverse(smoothed.points),
                          smoothed.frames * chart.radius, smoothed.weights)
    pieces = []
    for matrix, weight in zip(group.matrices, group.weights):
        pieces += [back.rotated(matrix, weight), rest.rotated(matrix, weight)]
    return WeightedSample.concatenate(pieces)


def invariance_residual(current, group, forms):
    """max over group elements and forms of |T(pullback of w) - T(w)|.

    ``group`` is any iterable of orthogonal matrices, a GroupAction or a
    plain list of probes.  The current is paired once for the base and once
    per element other than the identity (``_worst_defect``).
    """
    return _worst_defect(group, current.pair_many(forms),
                         lambda matrix: current.rotated(matrix).pair_many(forms))
