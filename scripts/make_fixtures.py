"""Regenerate the frozen oracle numbers used in the test suite.

Each section prints constants that are pasted into the tests as literals.
The routes here are deliberately independent of the library: adaptive
scipy quadrature on explicit parametrizations, closed forms where they
exist.  Rerun after changing a fixture definition, never to make a failing
test agree with the library.

Usage: python3 scripts/make_fixtures.py [section ...]
Sections: currents, metrics, curvature
"""

import sys

import numpy as np
from scipy import integrate

LOOP = np.array([[0.2, 0.2], [-0.2, 0.2], [-0.2, -0.2], [0.2, -0.2]])


def loop_edges():
    for i in range(4):
        yield LOOP[i], LOOP[(i + 1) % 4]


# the three pinned 1-forms on the square loop; cutoffs in the tests are
# exactly 1 on the loop so they do not appear here
FORM_A = {(0,): lambda x: np.exp(x[..., 1])}
FORM_B = {(1,): lambda x: np.sin(3.0 * x[..., 0] + 1.0) * np.cos(2.0 * x[..., 1])}
FORM_C = {
    (0,): lambda x: x[..., 0] * x[..., 1],
    (1,): lambda x: x[..., 0] ** 3 + 0.5 * x[..., 1],
}


def line_integral(coefficients, a, b):
    direction = b - a

    def integrand(t):
        x = a + t * direction
        return sum(fn(x) * direction[idx[0]] for idx, fn in coefficients.items())

    value, err = integrate.quad(integrand, 0.0, 1.0, epsabs=1e-14, epsrel=1e-13)
    return value, err


def currents_section():
    print("# square-loop pairings (adaptive quadrature per edge)")
    for name, coefficients in [("A", FORM_A), ("B", FORM_B), ("C", FORM_C)]:
        total, worst = 0.0, 0.0
        for a, b in loop_edges():
            value, err = line_integral(coefficients, a, b)
            total += value
            worst = max(worst, err)
        print("LOOP_PAIRING_%s = %.17g  # quad err <= %.1e" % (name, total, worst))
    print("# closed forms: A = -0.8*sinh(0.2), C = iint (3x1^2 - x1) dA")
    print("LOOP_A_CLOSED = %.17g" % (-0.8 * np.sinh(0.2)))
    print("LOOP_C_CLOSED = %.17g" % (0.4 * 2.0 * 0.2**3))

    print("# second moment of the unit-scale kernel, dimension 2 (polar quad)")
    from math import gamma, pi

    def lam_integrand(r, power):
        return np.exp(r * r / (r * r - 1.0)) * r**power

    area = 2.0 * pi ** (2 / 2.0) / gamma(2 / 2.0)
    lam, _ = integrate.quad(lam_integrand, 0.0, 1.0, args=(1,), epsabs=1e-15)
    lam *= area
    moment, _ = integrate.quad(lam_integrand, 0.0, 1.0, args=(3,), epsabs=1e-15)
    print("KERNEL_SECOND_MOMENT_2D = %.17g" % (area * moment / lam))


# scenario conformal factors, hardcoded on purpose: the library's scenario
# registry must reproduce these, not the other way around
SPHERE_POINT = np.array([0.45, -0.2])
RADIAL_POINT = np.array([0.5, 0.1])
KINK_T = 0.45**2
RADIAL_C0 = 1.0 + 0.3 * KINK_T - 0.5 * KINK_T**2
RADIAL_C1 = 0.3 - KINK_T


def sphere_factor(points):
    t = np.sum(points**2, axis=-1)
    return 4.0 / (1.0 + t) ** 2


def radial_factor(points):
    t = np.sum(points**2, axis=-1)
    inner = 1.0 + 0.3 * t - 0.5 * t**2
    outer = RADIAL_C0 + RADIAL_C1 * (t - KINK_T) + 0.8 * (t - KINK_T) ** 2
    return np.where(t <= KINK_T, inner, outer)


def mollified_matrix(factor, x, epsilon, n_r, n_theta):
    """Continuum shifted-pullback average by Gauss-Legendre x trapezoid.

    Shares only the shift-map primitive with the library (that map is
    pinned by its own finite-difference tests); the kernel rule, the
    weight normalization and the accumulation are all recomputed here.
    """
    from eqmollify import shift_with_jacobian

    r_nodes, r_weights = np.polynomial.legendre.leggauss(n_r)
    rho = 0.5 * epsilon * (r_nodes + 1.0)
    rho_w = 0.5 * epsilon * r_weights
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    rr, tt = np.meshgrid(rho, theta, indexing="ij")
    shifts = np.stack([(rr * np.cos(tt)).ravel(), (rr * np.sin(tt)).ravel()], axis=1)
    s = rr.ravel() / epsilon
    density = np.exp(s * s / (s * s - 1.0))
    weights = density * rr.ravel() * np.repeat(rho_w, n_theta)
    weights = weights / np.sum(weights)
    base = np.broadcast_to(x, shifts.shape)
    moved, jac = shift_with_jacobian(base, shifts)
    vals = factor(moved)[:, None, None] * np.eye(2)
    pulled = np.einsum("rji,rjk,rkl->ril", jac, vals, jac)
    return np.einsum("r,rij->ij", weights, pulled)


def metrics_section():
    print("# mollified conformal metrics at a bridge-zone point, eps = 0.1")
    for name, factor, x in [
        ("SPHERE", sphere_factor, SPHERE_POINT),
        ("RADIAL", radial_factor, RADIAL_POINT),
    ]:
        coarse = mollified_matrix(factor, x, 0.1, 64, 512)
        fine = mollified_matrix(factor, x, 0.1, 96, 768)
        gap = np.max(np.abs(fine - coarse)) / np.max(np.abs(fine))
        print("MOLLIFIED_%s = np.array(" % name)
        print("    [[%.17g, %.17g]," % (fine[0, 0], fine[0, 1]))
        print("     [%.17g, %.17g]])  # rule agreement %.1e" % (fine[1, 0], fine[1, 1], gap))


def radial_curvature(t):
    """Gauss curvature of the piecewise-quadratic conformal factor.

    For c = p(|x|^2) in the plane, K = -(Lap ln c)/(2c) reduces to
    -2 (L' + t L'') / p with L = ln p, computed branchwise here as the
    brute-force reference for the bound fixtures.
    """
    t = np.asarray(t, dtype=float)
    inner = t <= KINK_T
    p = np.where(inner, 1.0 + 0.3 * t - 0.5 * t**2,
                 RADIAL_C0 + RADIAL_C1 * (t - KINK_T) + 0.8 * (t - KINK_T) ** 2)
    dp = np.where(inner, 0.3 - t, RADIAL_C1 + 1.6 * (t - KINK_T))
    d2p = np.where(inner, -1.0, 1.6)
    lp = dp / p
    lpp = d2p / p - lp**2
    return -2.0 * (lp + t * lpp) / p


def curvature_section():
    # scan resolution is ten times the 65-point-per-axis acceptance grid;
    # same domain radius and same kink exclusion band as the library run
    mask_radius = 0.95
    band = 0.02
    grid_step = 2.0 * mask_radius / 64.0
    radii = np.arange(0.0, mask_radius + 1e-12, grid_step / 10.0)
    radii = radii[np.abs(radii - 0.45) >= band]
    values = radial_curvature(radii**2)
    lo, hi = int(np.argmin(values)), int(np.argmax(values))
    print("# brute-force curvature scan of the piecewise-quadratic radial metric")
    print("# domain r <= %.2f, kink band +-%.2f, %d radii" % (mask_radius, band, radii.size))
    print("RADIAL_BOUNDS_LOWER = %.17g  # at r = %.6f" % (values[lo], radii[lo]))
    print("RADIAL_BOUNDS_UPPER = %.17g  # at r = %.6f" % (values[hi], radii[hi]))
    print("RADIAL_KINK_JUMP = %.17g" % (
        radial_curvature(np.array([KINK_T - 1e-14]))[0]
        - radial_curvature(np.array([KINK_T + 1e-14]))[0]))


def distances_section():
    from scipy.integrate import quad

    def chord_length(a, b):
        a, b = np.asarray(a, float), np.asarray(b, float)
        step = b - a

        def speed(t):
            x = a + t * step
            return np.sqrt(sphere_factor(x[None])[0] * step @ step)

        value, err = quad(speed, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)
        return value, err

    diameter, err = chord_length((-0.95, 0.0), (0.95, 0.0))
    closed = 4.0 * np.arctan(0.95)
    print("# chord lengths under the curvature +1 chart metric, adaptive quadrature")
    print("SPHERE_DIAMETER_CHORD = %.17g  # quad err %.1e, closed form gap %.1e"
          % (diameter, err, abs(diameter - closed)))
    offset, err = chord_length((-0.7, -0.5), (0.8, 0.4))
    print("SPHERE_OFFSET_CHORD = %.17g  # quad err %.1e" % (offset, err))

    # graph oracle: same library route at ten times the test resolution, so
    # this pins self-convergence of the discrete distance, not a second method
    from eqmollify.distances import _lattice_distances, sample_graph
    from eqmollify.metrics import BoxGrid, conformal_metric

    metric = conformal_metric(sphere_factor)
    p, q = (-0.7, -0.5), (0.8, 0.4)
    values = {}
    for per_axis in (33, 331):
        grid = BoxGrid((-0.95, -0.95), (0.95, 0.95), (per_axis, per_axis))
        graph = sample_graph(metric, grid, mask_radius=0.95)
        # from the smaller snapped index, so the value is symmetric in p, q
        i, j = sorted(graph.snap([p, q]))
        values[per_axis] = float(_lattice_distances(graph, [i])[0, j])
    print("GRAPH_OFFSET_ORACLE = %.17g  # 331 nodes per axis" % values[331])
    print("# 33-per-axis value %.17g, gap %.3e, chord length %.17g"
          % (values[33], abs(values[33] - values[331]), offset))


SECTIONS = {
    "currents": currents_section,
    "metrics": metrics_section,
    "curvature": curvature_section,
    "distances": distances_section,
}


def main(argv):
    names = argv or sorted(SECTIONS)
    for name in names:
        print("== %s ==" % name)
        SECTIONS[name]()


if __name__ == "__main__":
    main(sys.argv[1:])
