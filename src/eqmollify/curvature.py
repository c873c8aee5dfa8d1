"""Christoffel symbols, sectional curvature, and curvature bound scans.

The Christoffel symbols and their derivatives are functions of the 2-jet
(g, dg, d2g), and the field decides how its jet is taken.  A field that
carries both derivative callables gets analytic jets from them; any other
field, a smoothed one among them, gets finite-difference jets from the
3^n stencil around each point (9 points in two dimensions, 27 in three)
evaluated in one batch, which matters when the field being measured is
itself a quadrature.  The differences are the seminorm's own
``metrics._central_differences``, taken on that stencil.
"""

import itertools
from dataclasses import dataclass

import numpy as np
# by name, so that numpy loads the submodule at import, not inside a run
from numpy.random import default_rng

from .metrics import BoxGrid, MetricError, _central_differences

__all__ = [
    "CurvatureError",
    "sectional_curvature",
    "CurvatureBounds",
    "curvature_bounds",
]


# central-difference step of the finite-difference jets, unless one is given
FD_STEP = 5e-3


class CurvatureError(RuntimeError):
    """Degenerate section or an empty scan."""


def _finite_difference_jet(metric, points, step):
    n = metric.dimension
    count = points.shape[0]
    # stencil axes first: the jet is the interior node of a 3^n grid
    offsets = step * np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=n)))
    batch = (offsets[:, None, :] + points[None, :, :]).reshape(-1, n)
    values = metric.value(batch).reshape((3,) * n + (count, n, n))
    firsts, seconds = _central_differences(values, (step,) * n, n)
    dg = np.stack([firsts[(a,)].reshape(count, n, n) for a in range(n)], axis=1)
    d2g = np.empty((count, n, n, n, n))
    for (a, b), d in seconds.items():
        d2g[:, a, b] = d2g[:, b, a] = d.reshape(count, n, n)
    return values[(1,) * n], dg, d2g


def _metric_jet(metric, points, step=FD_STEP):
    """The 2-jet (g, dg, d2g) at the points; the field decides its jet:
    analytic when it carries both derivative callables, central
    differences of the given step otherwise."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if metric.first_derivative is not None and metric.second_derivative is not None:
        return (
            metric.value(points),
            np.asarray(metric.first_derivative(points), dtype=float),
            np.asarray(metric.second_derivative(points), dtype=float),
        )
    return _finite_difference_jet(metric, points, step)


def _christoffel_terms(g, dg, d2g):
    ginv = np.linalg.inv(g)
    # T[r, l, i, j] = d_i g_jl + d_j g_il - d_l g_ij
    lowered = (
        np.transpose(dg, (0, 3, 1, 2))
        + np.transpose(dg, (0, 3, 2, 1))
        - dg
    )
    gamma = 0.5 * np.einsum("rkl,rlij->rkij", ginv, lowered)
    dginv = -np.einsum("rkm,rcmp,rpl->rckl", ginv, dg, ginv)
    dlowered = (
        np.transpose(d2g, (0, 1, 4, 2, 3))
        + np.transpose(d2g, (0, 1, 4, 3, 2))
        - d2g
    )
    dgamma = 0.5 * (
        np.einsum("rckl,rlij->rckij", dginv, lowered)
        + np.einsum("rkl,rclij->rckij", ginv, dlowered)
    )
    return gamma, dgamma


def _lowered_curvature(metric, points, step):
    g, dg, d2g = _metric_jet(metric, points, step=step)
    gamma, dgamma = _christoffel_terms(g, dg, d2g)
    upper = (
        np.einsum("rkmlj->rmjkl", dgamma)
        - np.einsum("rlmkj->rmjkl", dgamma)
        + np.einsum("rmks,rslj->rmjkl", gamma, gamma)
        - np.einsum("rmls,rskj->rmjkl", gamma, gamma)
    )
    return g, np.einsum("rim,rmjkl->rijkl", g, upper)


def _section_values(g, lowered, x_vectors, y_vectors):
    # <R(X, Y) Y, X> with slots (paired, transported, X, Y)
    numerator = np.einsum("rijkl,ri,rj,rk,rl->r", lowered,
                          x_vectors, y_vectors, x_vectors, y_vectors)
    xx = np.einsum("rij,ri,rj->r", g, x_vectors, x_vectors)
    yy = np.einsum("rij,ri,rj->r", g, y_vectors, y_vectors)
    xy = np.einsum("rij,ri,rj->r", g, x_vectors, y_vectors)
    gram = xx * yy - xy**2
    scale = np.maximum(xx * yy, 1e-300)
    if np.any(gram <= 1e-10 * scale):
        raise CurvatureError("degenerate section: spanning pair nearly dependent")
    return numerator / gram


def sectional_curvature(metric, points, x_vectors, y_vectors, step=FD_STEP):
    """Curvature of the plane spanned by each (X, Y) pair.

    The Gram denominator normalizes arbitrary spanning pairs; a nearly
    dependent pair is rejected rather than amplified.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    x_vectors = np.atleast_2d(np.asarray(x_vectors, dtype=float))
    y_vectors = np.atleast_2d(np.asarray(y_vectors, dtype=float))
    g, lowered = _lowered_curvature(metric, points, step)
    return _section_values(g, lowered, x_vectors, y_vectors)


@dataclass(frozen=True)
class CurvatureBounds:
    lower: float
    upper: float
    lower_point: np.ndarray
    upper_point: np.ndarray
    point_count: int
    section_count: int
    seed: int


def curvature_bounds(metric, grid, sections=8, seed=42, step=FD_STEP,
                     mask_radius=None, exclusion_radii=(), exclusion_width=None):
    """Extremes of sectional curvature over grid points and random planes.

    Points within ``exclusion_width`` (default twice the derivative step)
    of a sphere whose radius ``exclusion_radii`` lists are excised, as are
    points outside ``mask_radius`` when one is given.  Sections are drawn
    once per run from the seed by QR-orthonormalizing Gaussian pairs, so
    the scan is reproducible and, in two dimensions, doubles as a
    consistency check: every pair spans the same plane.
    """
    if not isinstance(grid, BoxGrid):
        raise MetricError("curvature scan expects a BoxGrid")
    points = grid.points()
    if mask_radius is not None:
        points = points[np.linalg.norm(points, axis=1) <= mask_radius]
    width = 2.0 * step if exclusion_width is None else exclusion_width
    for radius in exclusion_radii:
        points = points[np.abs(np.linalg.norm(points, axis=1) - radius) >= width]
    if points.shape[0] == 0:
        raise CurvatureError("no grid points survive the exclusions")
    n = metric.dimension
    rng = default_rng(seed)
    lower = np.inf
    upper = -np.inf
    lower_point = upper_point = points[0]
    # one jet evaluation serves every section; only the plane draw varies
    g, lowered = _lowered_curvature(metric, points, step)
    for _ in range(sections):
        frames = np.linalg.qr(rng.standard_normal((points.shape[0], n, 2)))[0]
        k = _section_values(g, lowered, frames[:, :, 0], frames[:, :, 1])
        lo, hi = int(np.argmin(k)), int(np.argmax(k))
        if k[lo] < lower:
            lower, lower_point = float(k[lo]), points[lo]
        if k[hi] > upper:
            upper, upper_point = float(k[hi]), points[hi]
    return CurvatureBounds(lower, upper, lower_point, upper_point,
                           points.shape[0], sections, seed)
