"""Compactly supported radial smoothing kernels and quadrature on their support.

The kernel is the classic flat bump ``exp(t^2 / (t^2 - 1))`` scaled to a ball
of radius ``epsilon`` and normalized so that its integral over the ambient
space equals one.  Normalization therefore depends on the dimension; it is
computed once per dimension by an internal composite Gauss-Legendre
refinement with an explicit convergence check.

Quadrature rules over the support ball are polar product composites with a
fixed, documented node ordering.  All reductions downstream of a rule are
plain ordered sums over these nodes, which keeps every pipeline run
bit-for-bit reproducible.
"""

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
# by name, so that numpy loads the submodule at import, not inside a run
from numpy.polynomial.legendre import leggauss

__all__ = [
    "QuadratureError",
    "BumpProfile",
    "QuadratureRule",
    "MollifierKernel",
    "unit_bump",
    "normalization_constant",
    "ball_quadrature",
    "sphere_area",
]

# Largest |t| at which the exponent t^2/(t^2-1) is still evaluated.  Beyond
# this the true value underflows to zero anyway and the division approaches a
# singularity, so the kernel is clamped to exact zero there.
_T_EDGE = 1.0 - 2.0 ** -26

# agreement of successive refinements required of the normalizer
_NORMALIZATION_TOLERANCE = 1e-12


class QuadratureError(RuntimeError):
    """An internal quadrature failed to converge to its tolerance."""


def unit_bump(t):
    """Unnormalized radial profile exp(t^2/(t^2-1)) for |t| < 1, else 0.

    Accepts scalars or arrays.  Values with |t| >= 1 - 2**-26 return exact
    zero; see ``_T_EDGE``.
    """
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    out = np.zeros(t.shape, dtype=float)
    inside = np.abs(t) < _T_EDGE
    ti = t[inside]
    out[inside] = np.exp(ti * ti / (ti * ti - 1.0))
    return float(out[0]) if scalar else out


def sphere_area(dimension):
    """Surface measure of the unit sphere S^(n-1) in R^n."""
    n = int(dimension)
    if n < 1:
        raise ValueError("dimension must be >= 1, got %r" % dimension)
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def _integrate_unit_interval(fn, tolerance, max_level=16):
    """Composite 16-point Gauss-Legendre on [0, 1] with panel doubling.

    Refines until two successive levels agree to ``tolerance`` (relative to
    max(1, |value|)) and raises QuadratureError if the refinement budget is
    exhausted first.
    """
    nodes, weights = leggauss(16)
    previous = None
    for level in range(max_level + 1):
        panels = 2 ** level
        edges = np.linspace(0.0, 1.0, panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        x = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
        w = (half[:, None] * weights[None, :]).ravel()
        value = float(np.dot(w, fn(x)))
        if previous is not None and abs(value - previous) <= tolerance * max(1.0, abs(value)):
            return value
        previous = value
    raise QuadratureError(
        "unit-interval quadrature did not reach tolerance %g within %d levels"
        % (tolerance, max_level)
    )


@lru_cache(maxsize=None)
def normalization_constant(dimension):
    """Normalizer lambda_n making the dimension-n kernel integrate to one.

    lambda_n = surf(S^(n-1)) * int_0^1 exp(r^2/(r^2-1)) r^(n-1) dr.  Cached
    per dimension; raises QuadratureError if the internal refinement does
    not reach _NORMALIZATION_TOLERANCE.
    """
    n = int(dimension)
    if n < 1:
        raise ValueError("dimension must be >= 1, got %r" % dimension)
    radial = _integrate_unit_interval(
        lambda r: unit_bump(r) * r ** (n - 1), _NORMALIZATION_TOLERANCE
    )
    return sphere_area(n) * radial


@dataclass(frozen=True)
class BumpProfile:
    """Normalized radial profile for a fixed ambient dimension."""

    dimension: int
    lam: float

    @classmethod
    def for_dimension(cls, dimension):
        return cls(dimension=int(dimension), lam=normalization_constant(dimension))

    def psi(self, t):
        """Normalized profile (1/lambda_n) exp(t^2/(t^2-1)), zero for |t| >= 1."""
        return unit_bump(t) / self.lam


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights integrating over a ball B(0, epsilon) in R^n.

    ``nodes`` has shape (N, n) in a fixed deterministic order, ``weights``
    carries the full Lebesgue measure factors, so sum(weights) equals the
    ball volume up to rounding.
    """

    nodes: np.ndarray
    weights: np.ndarray
    level: int

    def __post_init__(self):
        if self.nodes.ndim != 2 or self.nodes.shape[0] != self.weights.shape[0]:
            raise ValueError("nodes and weights are inconsistent")


def _segment_simpson(epsilon, level):
    # 2**level panels, 2**level + 1 points; classic composite Simpson weights.
    m = 2 ** level
    x = np.linspace(-epsilon, epsilon, m + 1)
    coeff = np.ones(m + 1)
    coeff[1:-1:2] = 4.0
    coeff[2:-1:2] = 2.0
    w = coeff * (2.0 * epsilon / m) / 3.0
    return x[:, None], w


def _radial_gauss(epsilon, count, power):
    # Gauss-Legendre on [0, epsilon] with the measure r**power absorbed into
    # the weights.  Exact for the polynomial measure itself, so weight sums
    # reproduce ball volumes to machine precision.
    u, gw = leggauss(count)
    r = 0.5 * epsilon * (u + 1.0)
    w = 0.5 * epsilon * gw * r ** power
    return r, w


def ball_quadrature(epsilon, dimension, level=3):
    """Product quadrature rule over B(0, epsilon) in dimension 1, 2 or 3.

    Node ordering is radial-major and fixed.  Doubling ``level`` roughly
    doubles the node count per axis.  In dimension 1 the rule is composite
    Simpson with 2**level + 1 symmetric points; in dimensions 2 and 3 it is
    Gauss-Legendre in radius crossed with equispaced angles (midpoint rule on
    the periodic directions, Gauss in the polar cosine for n = 3).
    """
    epsilon = float(epsilon)
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive, got %r" % epsilon)
    if level < 1:
        raise ValueError("level must be >= 1, got %r" % level)
    n = int(dimension)
    if n == 1:
        nodes, w = _segment_simpson(epsilon, max(level, 2))
        return QuadratureRule(nodes=nodes, weights=w, level=level)
    if n == 2:
        nr = 4 * 2 ** level
        ntheta = 8 * 2 ** level
        r, wr = _radial_gauss(epsilon, nr, 1)
        theta = 2.0 * math.pi * (np.arange(ntheta) + 0.5) / ntheta
        wt = 2.0 * math.pi / ntheta
        x = np.empty((nr * ntheta, 2))
        x[:, 0] = (r[:, None] * np.cos(theta)[None, :]).ravel()
        x[:, 1] = (r[:, None] * np.sin(theta)[None, :]).ravel()
        w = np.repeat(wr * wt, ntheta)
        return QuadratureRule(nodes=x, weights=w, level=level)
    if n == 3:
        nr = 4 * 2 ** level
        nmu = 2 * 2 ** level
        naz = 4 * 2 ** level
        r, wr = _radial_gauss(epsilon, nr, 2)
        mu, wmu = leggauss(nmu)
        phi = 2.0 * math.pi * (np.arange(naz) + 0.5) / naz
        wphi = 2.0 * math.pi / naz
        sin_pol = np.sqrt(1.0 - mu ** 2)
        # radial-major, then polar, then azimuth
        x = np.empty((nr * nmu * naz, 3))
        x[:, 0] = (r[:, None, None] * sin_pol[None, :, None] * np.cos(phi)[None, None, :]).ravel()
        x[:, 1] = (r[:, None, None] * sin_pol[None, :, None] * np.sin(phi)[None, None, :]).ravel()
        x[:, 2] = (r[:, None, None] * mu[None, :, None] * np.ones_like(phi)[None, None, :]).ravel()
        w = (wr[:, None, None] * wmu[None, :, None] * np.full(naz, wphi)[None, None, :]).ravel()
        return QuadratureRule(nodes=x, weights=w, level=level)
    raise ValueError("ball quadrature supports dimensions 1..3, got %r" % dimension)


_DEFAULT_LEVEL = {1: 7, 2: 3, 3: 3}


class MollifierKernel:
    """A mollifier of radius epsilon in a fixed dimension plus its quadrature.

    ``density`` evaluates the kernel, ``mass`` integrates it with the carried
    rule (a direct accuracy probe), and ``convex_weights`` exposes the
    kernel-weighted quadrature weights renormalized to unit sum.  Smoothing
    operators use the convex weights so that constants are reproduced exactly
    instead of up to quadrature mass error.
    """

    def __init__(self, profile, epsilon, quadrature):
        if epsilon <= 0.0:
            raise ValueError("epsilon must be positive, got %r" % epsilon)
        self.profile = profile
        self.epsilon = float(epsilon)
        self.quadrature = quadrature
        self._convex = None

    @classmethod
    def create(cls, dimension, epsilon, level=None):
        n = int(dimension)
        if level is None:
            level = _DEFAULT_LEVEL.get(n, 3)
        profile = BumpProfile.for_dimension(n)
        rule = ball_quadrature(epsilon, n, level)
        return cls(profile, epsilon, rule)

    @property
    def dimension(self):
        return self.profile.dimension

    def density(self, x):
        """Kernel value f_eps(x) = eps^-n psi(|x|/eps); exact zero for |x| >= eps.

        Radial by construction: the value is computed through the norm only.
        Accepts a single point (n,) or a batch (N, n).
        """
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 1
        pts = np.atleast_2d(x)
        if pts.shape[1] != self.dimension:
            raise ValueError(
                "point dimension %d does not match kernel dimension %d"
                % (pts.shape[1], self.dimension)
            )
        r = np.linalg.norm(pts, axis=1)
        vals = self.profile.psi(r / self.epsilon) / self.epsilon ** self.dimension
        return float(vals[0]) if scalar else vals

    def mass(self):
        """Quadrature of the kernel over its support with the raw rule."""
        return float(np.dot(self.quadrature.weights, self.density(self.quadrature.nodes)))

    def convex_weights(self):
        """Kernel-weighted node weights normalized to sum exactly to the raw mass of one.

        Returns (nodes, weights) with weights summing to 1 after the final
        renormalizing division.
        """
        if self._convex is None:
            raw = self.quadrature.weights * self.density(self.quadrature.nodes)
            total = float(np.sum(raw))
            if not 0.0 < total < np.inf:
                raise QuadratureError("kernel quadrature produced mass %r" % total)
            self._convex = raw / total
        return self.quadrature.nodes, self._convex

    @cached_property
    def _signed_symmetric(self):
        """Whether every signed permutation maps the nodes onto nodes of
        equal convex weight (``_permutes_nodes``); decided once per kernel."""
        return bool(np.all(_permutes_nodes(self, _signed_permutations(self.dimension))))


def _permutes_nodes(kernel, matrices):
    """Per matrix, whether it maps each kernel node within 1e-14 * epsilon
    onto a node of equal convex weight (within 1e-14 of the largest)."""
    nodes, node_w = kernel.convex_weights()
    # pair nodes with images by sorting both along one generic direction;
    # at levels 1-3 distinct projections lie >= 1.1e-7 * epsilon apart
    direction = np.sqrt(np.arange(1.0, nodes.shape[1] + 1.0))
    order = np.argsort(nodes @ direction, kind="stable")
    out = np.zeros(len(matrices), dtype=bool)
    for index, mat in enumerate(matrices):
        moved = nodes @ mat.T
        image = np.argsort(moved @ direction, kind="stable")
        out[index] = (
            np.max(np.linalg.norm(moved[image] - nodes[order], axis=1))
            <= 1e-14 * kernel.epsilon
            and np.max(np.abs(node_w[image] - node_w[order])) <= 1e-14 * np.max(node_w))
    return out


def _signed_permutations(n):
    """The 2^n n! - 1 signed permutation matrices other than the identity."""
    eye = np.eye(n)
    mats = [np.array(signs)[:, None] * eye[list(perm)]
            for perm in itertools.permutations(range(n))
            for signs in itertools.product((1.0, -1.0), repeat=n)]
    return np.array(mats[1:])
