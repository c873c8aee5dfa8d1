"""Ball charts, orthogonal group actions and smooth chart cutoffs.

A chart is a centre and a radius: it sends the ball B(center, radius) onto
the unit ball, where the shift maps of ``ballmap`` act.  Its derivative is
the scalar 1 / radius, so pushing a metric or a frame through a chart is a
scalar product.  The group actions are the orthogonal matrices that
average the chart stages.
"""

from dataclasses import dataclass

import numpy as np

from .ballmap import _norms, smooth_step

__all__ = [
    "GroupError",
    "AffineChart",
    "ChartCutoff",
    "GroupAction",
    "cyclic_rotation_group",
    "trivial_group",
    "torus_group",
]


class GroupError(ValueError):
    """A purported group action fails closure, orthogonality or invariance."""


@dataclass(frozen=True)
class AffineChart:
    """Ball chart u = (x - center) / radius onto the unit ball.

    ``apply`` goes to chart coordinates, multiplying by ``scale`` =
    1 / radius; ``apply_inverse`` comes back, multiplying by ``radius``.
    The chart domain (where |u| < 1) is the open ball B(center, radius).
    """

    center: np.ndarray
    radius: float

    def __init__(self, center, radius):
        object.__setattr__(self, "center", np.asarray(center, dtype=float))
        object.__setattr__(self, "radius", float(radius))
        object.__setattr__(self, "scale", 1.0 / self.radius)

    def apply(self, x):
        return (np.asarray(x, dtype=float) - self.center) * self.scale

    def apply_inverse(self, u):
        return np.asarray(u, dtype=float) * self.radius + self.center

    # kept while bench/layers.py wraps both Jacobians by name; no stage calls them
    def jacobian(self, x):
        """scale * I at each point, shape (N, n, n)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        n = self.center.shape[0]
        return np.broadcast_to(self.scale * np.eye(n), (x.shape[0], n, n)).copy()

    def jacobian_inverse(self):
        return self.radius

    def chart_radius(self, x):
        """Norm of the chart image; < 1 inside the chart domain."""
        u = self.apply(np.atleast_2d(np.asarray(x, dtype=float)))
        return _norms(u)


@dataclass(frozen=True)
class ChartCutoff:
    """Smooth bump subordinate to a chart: 1 inside the inner chart ball,
    0 outside the chart domain, a smooth radial step between.

    The profile is exactly one for chart radius <= inner and exactly zero for
    chart radius >= outer; localized currents and metrics split along it.
    """

    chart: AffineChart
    inner: float = 0.5
    outer: float = 1.0

    def profile(self, rho):
        """The bump as a function of the chart radius."""
        return smooth_step((self.outer - rho) / (self.outer - self.inner))

    def value(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 1
        rho = self.chart.chart_radius(np.atleast_2d(x))
        vals = np.atleast_1d(self.profile(rho))
        return float(vals[0]) if scalar else vals


def _check_orthogonal(matrices, tol):
    gaps = np.abs(np.swapaxes(matrices, 1, 2) @ matrices - np.eye(matrices.shape[1]))
    if not np.all(gaps <= tol):
        raise GroupError("group element is not orthogonal within %g" % tol)


def _check_closure(matrices, tol):
    # batched per left factor, so the distance table holds |G|^2 n^2 entries
    for a in matrices:
        gaps = np.max(np.abs((a @ matrices)[:, None] - matrices[None]), axis=(2, 3))
        if not np.all(np.min(gaps, axis=1) <= tol):
            raise GroupError("group is not closed under products within %g" % tol)


@dataclass(frozen=True)
class GroupAction:
    """A compact group of orthogonal matrices with averaging weights.

    Finite groups carry uniform weights 1/|G|.  A torus (full rotation group
    in the plane) is represented by its periodic quadrature: N equispaced
    angles with uniform weights, flagged by ``is_quadrature`` since the node
    set only approximates the group.
    """

    matrices: np.ndarray
    weights: np.ndarray
    is_quadrature: bool = False

    def __init__(self, matrices, weights=None, is_quadrature=False, tol=1e-12):
        matrices = np.asarray(matrices, dtype=float)
        if weights is None:
            weights = np.full(matrices.shape[0], 1.0 / matrices.shape[0])
        weights = np.asarray(weights, dtype=float)
        _check_orthogonal(matrices, tol)
        if not is_quadrature:
            _check_closure(matrices, tol)
        if weights.shape != matrices.shape[:1]:
            raise GroupError("need one averaging weight per group element")
        # here and in the checks above, a nan fails the comparison
        if not (np.all(weights >= 0.0) and abs(float(np.sum(weights)) - 1.0) <= 1e-12):
            raise GroupError("averaging weights must be nonnegative and sum to one")
        object.__setattr__(self, "matrices", matrices)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "is_quadrature", bool(is_quadrature))

    def __len__(self):
        return self.matrices.shape[0]

    def __iter__(self):
        return iter(self.matrices)


def _worst_defect(group, base, image):
    """max over the matrices m of ``group`` and over the entries of
    |image(m) - base|; the identity's image is ``base`` itself, so
    ``base - base`` still reads NaN where ``base`` does, and a NaN defect
    makes the result NaN."""
    defects = [np.max(np.abs((base if np.array_equal(mat, np.eye(len(mat))) else image(mat))
                             - base)) for mat in group]
    return float(np.max([0.0] + defects))


def trivial_group(dimension):
    return GroupAction(np.eye(int(dimension))[None, :, :])


def cyclic_rotation_group(order):
    """Rotations by multiples of 2 pi / order in the plane.

    Elements are built by repeated multiplication of the generator so the
    set is closed under products up to accumulated rounding only.
    """
    k = int(order)
    angle = 2.0 * np.pi / k
    gen = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    # quarter-turn subgroups are exact in floats; snap tiny entries so that
    # products reproduce elements bit for bit
    if k in (1, 2, 4):
        gen = np.round(gen)
    mats = [np.eye(2)]
    for _ in range(k - 1):
        mats.append(gen @ mats[-1])
    return GroupAction(np.array(mats), tol=1e-10)


def torus_group(nodes=64):
    """Equispaced-angle quadrature of the planar rotation group."""
    n = int(nodes)
    angles = 2.0 * np.pi * np.arange(n) / n
    mats = np.empty((n, 2, 2))
    mats[:, 0, 0] = np.cos(angles)
    mats[:, 0, 1] = -np.sin(angles)
    mats[:, 1, 0] = np.sin(angles)
    mats[:, 1, 1] = np.cos(angles)
    return GroupAction(mats, is_quadrature=True)
