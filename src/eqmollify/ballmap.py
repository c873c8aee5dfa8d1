"""Radial diffeomorphism onto the unit ball and compactly supported shifts.

A strictly increasing radial profile maps (0, 1) onto (0, infinity): it is
the identity near zero, blows up like ``exp(1/(1-r)^2)`` near one, and the
two regimes are joined by a smooth monotone bridge.  Compressing space
through the inverse profile gives a diffeomorphism ``ball_compress`` from
R^n onto the open unit ball which is the identity on a neighborhood of the
origin.  Conjugating a translation by that diffeomorphism yields a shift map
that moves points near the center by almost exactly the translation vector
while leaving the complement of the ball untouched.

Beyond ``R_IDENTITY`` (where the profile exceeds 1e12) a shift moves points
by less than double precision can resolve, so the maps return their input
bit for bit from that radius outward instead of round-tripping through the
profile.

Averaging the shifts over kernel nodes, as both the metric quadrature and
the current smoothing do, is fused: the expansion half of every shift
depends only on the point, so ``_shift_blocks`` computes it once per point
and runs only the compression half per node.  It splits the points, never
the nodes, into contiguous chunks of about _MAX_ROWS rows in input order,
so each point's node sum is one ordered sum and no bit depends on the
cap.  Points at radius R_IDENTITY or beyond never enter it; the callers
reproduce their input there bit for bit, which is what makes the
locality guarantees exact rather than merely small.  A radial map's
Jacobian is t I + e u u^T, and the maps hand back the factors (t, e, u);
the shift product forms its chain Jacobians per component from them,
never as n x n stacks.  The bridge inverse takes each Newton value and
slope from one set of exponentials, evaluated in place, shares the first
step every row takes from the window's midpoint, carries only unconverged
rows, gathered by index, and hands its last slope to the compression
Jacobian; each row's root and slope are bit for bit those of its own
Newton path.
The metric quadrature and the current shift product may pass one point
per signed-permutation orbit (``_signed_orbits``).
The maps take rows in any memory layout and return them component-major,
in Fortran order: each coordinate is one contiguous row over the points.
"""

import math
import sys

import numpy as np

__all__ = [
    "BallDomainError",
    "ConvergenceError",
    "R_IDENTITY",
    "R_OVERFLOW",
    "BRIDGE_LO",
    "BRIDGE_HI",
    "smooth_step",
    "smooth_step_derivative",
    "radial_profile",
    "radial_profile_derivative",
    "radial_profile_inverse",
    "ball_compress",
    "ball_expand",
    "shift_points",
    "shift_with_jacobian",
]


class BallDomainError(ValueError):
    """A point lies outside the domain where a ball map is representable."""


class ConvergenceError(RuntimeError):
    """The profile inversion did not converge; the profile would have to be
    non-monotone for this to happen, so it must abort rather than guess."""


# The profile is the identity up to BRIDGE_LO, pure exp growth from BRIDGE_HI
# on.  The window is [1/3 + 1/30, 2/3 - 1/30], strictly inside the nominal
# transition third so both regimes hold on closed neighborhoods.
BRIDGE_LO = 1.0 / 3.0 + 1.0 / 30.0
BRIDGE_HI = 2.0 / 3.0 - 1.0 / 30.0

# exp(1/(1-r)^2) at the end of the bridge window; start of the closed-form
# inverse branch.
_OUTER_AT_HI = math.exp(1.0 / (1.0 - BRIDGE_HI) ** 2)

# Where the profile passes 1e12: outward of this a shift changes points by
# less than 1 ulp, so maps return inputs unchanged.
R_IDENTITY = 1.0 - 1.0 / math.sqrt(math.log(1e12))

# Where exp(1/(1-r)^2) overflows double precision (with margin).
R_OVERFLOW = 0.96

# The profile's value just below R_OVERFLOW: the largest s whose inverse
# the profile maps back.
_PROFILE_MAX = math.exp(1.0 / (1.0 - math.nextafter(R_OVERFLOW, 0.0)) ** 2)

# Largest |x| whose square is finite: the norms overflow past it.
_NORM_LIMIT = math.sqrt(sys.float_info.max)

# Rows (nodes x points) per chunk of ``_shift_blocks``; a memory bound
# only, since no bit depends on it.
_MAX_ROWS = 1 << 17

# Bridge inversion: residual bound |g(r) - s| <= _INVERSE_TOLERANCE *
# max(1, s), reached within _INVERSE_ITERATIONS Newton/bisection steps.
_INVERSE_TOLERANCE = 1e-12
_INVERSE_ITERATIONS = 80


def _flat_exp(u):
    """exp(-1/u) for u > 0, exact zero otherwise (all derivatives flat at 0)."""
    with np.errstate(divide="ignore", over="ignore"):
        out = np.divide(-1.0, u)
        np.exp(out, out=out)
    out[~(u > 0.0)] = 0.0
    return out


def _step(u, derivative):
    """``smooth_step`` of an array, and its derivative (else None) from the
    same two exponentials.  a + b > 0 at every u, so a / (a + b) is exactly
    0 from u <= 0 and exactly 1 from u >= 1 with no case split.  ``u`` is
    read only; the derivative reuses 1 - u and writes in place, rounded as
    (a / u**2 * b + a * (b / (1 - u)**2)) / (a + b)**2."""
    a = _flat_exp(u)
    rest = 1.0 - u
    b = _flat_exp(rest)
    total = a + b
    w = a / total
    if not derivative:
        return w, None
    with np.errstate(divide="ignore", invalid="ignore"):
        dw = np.square(u)
        np.divide(a, dw, out=dw)
        dw *= b
        np.square(rest, out=rest)
        np.divide(b, rest, out=rest)
        rest *= a
        dw += rest
        np.square(total, out=total)
        dw /= total
    # zero wherever an exponential underflows, where a / u**2 can be 0 / 0;
    # neither exponential is ever nan
    np.minimum(a, b, out=a)
    np.copyto(dw, 0.0, where=a <= 0.0)
    return w, dw


def smooth_step(u):
    """C-infinity step: 0 for u <= 0, 1 for u >= 1, strictly monotone between."""
    out = _step(np.atleast_1d(np.asarray(u, dtype=float)), False)[0]
    return float(out[0]) if np.ndim(u) == 0 else out


def smooth_step_derivative(u):
    """Derivative of ``smooth_step``; zero outside (0, 1)."""
    out = _step(np.atleast_1d(np.asarray(u, dtype=float)), True)[1]
    return float(out[0]) if np.ndim(u) == 0 else out


def _window(r):
    return (r - BRIDGE_LO) / (BRIDGE_HI - BRIDGE_LO)


def _outer(r):
    return np.exp(1.0 / (1.0 - r) ** 2)


def _outer_slope(r, outer):
    # d/dr exp(1/(1-r)^2), given the value ``outer`` at r
    return outer * 2.0 / (1.0 - r) ** 3


def _bridge(r, derivative=False):
    """Convex blend of the two branch values across the window; with
    ``derivative`` also its slope, from the same exponentials.  Written in
    place over 1 - r and a few buffers, rounded as the formulas
    (1 - w) r + w outer and (1 - w) + w outer' + dw (outer - r) read."""
    w, dw = _step(_window(r), derivative)
    # outer = exp(1/(1 - r)^2), keeping 1 - r for the slope's cube
    rest_r = 1.0 - r
    outer = np.square(rest_r)
    np.divide(1.0, outer, out=outer)
    np.exp(outer, out=outer)
    rest = 1.0 - w
    value = rest * r
    term = w * outer
    value += term
    if not derivative:
        return value
    dw /= BRIDGE_HI - BRIDGE_LO
    # w outer' with outer' = outer 2 / (1 - r)**3; the cube stays np.power,
    # which rounds otherwise than a product of three
    np.power(rest_r, 3, out=rest_r)
    np.multiply(outer, 2.0, out=term)
    term /= rest_r
    term *= w
    rest += term
    outer -= r
    outer *= dw
    rest += outer
    return value, rest


def _check_open_unit(r, what):
    if np.any(r <= 0.0):
        raise BallDomainError("%s requires radius > 0" % what)
    if np.any(r >= R_OVERFLOW):
        raise BallDomainError(
            "%s overflows for radius >= %g (profile exceeds double range)" % (what, R_OVERFLOW)
        )


def _on_pieces(r, what, identity, bridge, outer):
    """Evaluate a function of the radius piece by piece: ``identity`` up to
    BRIDGE_LO, ``bridge`` across the window, ``outer`` from BRIDGE_HI on."""
    r = np.asarray(r, dtype=float)
    scalar = r.ndim == 0
    r = np.atleast_1d(r)
    _check_open_unit(r, what)
    out = np.empty(r.shape)
    lo = r <= BRIDGE_LO
    hi = r >= BRIDGE_HI
    mid = ~(lo | hi)
    out[lo] = identity(r[lo])
    out[mid] = bridge(r[mid])
    out[hi] = outer(r[hi])
    return float(out[0]) if scalar else out


def radial_profile(r):
    """The profile g on (0, R_OVERFLOW): identity, bridge, then exp growth."""
    return _on_pieces(r, "radial_profile", np.asarray, _bridge, _outer)


def radial_profile_derivative(r):
    """dg/dr, strictly positive on the whole domain."""
    return _on_pieces(r, "radial_profile_derivative", np.ones_like,
                      lambda r: _bridge(r, derivative=True)[1],
                      lambda r: _outer_slope(r, _outer(r)))


def radial_profile_inverse(s, derivative=False):
    """Inverse of the profile on (0, infinity); with ``derivative`` also the
    slope g' at the inverse.

    Exact passthrough for s <= BRIDGE_LO, closed form on the exp branch, and
    a bracketed Newton iteration with bisection safeguard on the bridge.
    Residuals satisfy |g(r) - s| <= _INVERSE_TOLERANCE * max(1, s).  The
    slope is Newton's last one where the inverse lies strictly inside the
    window, else ``radial_profile_derivative``'s; the two agree bit for bit.
    """
    s = np.asarray(s, dtype=float)
    scalar = s.ndim == 0
    s = np.atleast_1d(s)
    if np.any(s <= 0.0):
        raise BallDomainError("radial_profile_inverse requires s > 0")
    if not np.all(s <= _PROFILE_MAX):
        raise BallDomainError(
            "radial_profile_inverse requires finite s <= %.6g, the profile's value"
            " just below R_OVERFLOW" % _PROFILE_MAX)
    out = np.empty(s.shape)
    low = s <= BRIDGE_LO
    high = s >= _OUTER_AT_HI
    mid = ~(low | high)
    out[low] = s[low]
    out[high] = 1.0 - 1.0 / np.sqrt(np.log(s[high]))
    slope = np.empty(s.shape)
    if np.any(mid):
        out[mid], slope[mid] = _invert_bridge(s[mid])
    if not derivative:
        return float(out[0]) if scalar else out
    rest = ~mid | (out <= BRIDGE_LO) | (out >= BRIDGE_HI)
    slope[rest] = radial_profile_derivative(out[rest])
    return (float(out[0]), float(slope[0])) if scalar else (out, slope)


def _invert_bridge(s):
    """Bracketed Newton on the bridge, returning the roots and the slopes g'
    there.

    Every row starts at the window's midpoint, so the first value and slope
    are one evaluation, broadcast.  A row's root and slope are taken at the
    sweep where it converges, and the next sweep carries only the live
    rows, gathered by index: a boolean gather or scatter over rows that
    converge in no order costs several times an index ``take``.  Each
    row's path is the one it would take alone."""
    out = np.empty(s.shape)
    out_slope = np.empty(s.shape)
    rows = np.arange(s.shape[0])
    bound = _INVERSE_TOLERANCE * np.maximum(1.0, np.abs(s))
    lo = np.full(s.shape, BRIDGE_LO)
    hi = np.full(s.shape, BRIDGE_HI)
    start = 0.5 * (BRIDGE_LO + BRIDGE_HI)
    value, slope = _bridge(np.array([start]), derivative=True)
    r = np.full(s.shape, start)
    f = value[0] - s
    d = np.full(s.shape, slope[0])
    for _ in range(_INVERSE_ITERATIONS):
        done = np.abs(f) <= bound
        hit = np.flatnonzero(done)
        if hit.shape[0]:
            at = rows.take(hit)
            out[at] = r.take(hit)
            out_slope[at] = d.take(hit)
            if hit.shape[0] == rows.shape[0]:
                break
            keep = np.flatnonzero(~done)
            rows, r, f, d, lo, hi, s, bound = (
                v.take(keep) for v in (rows, r, f, d, lo, hi, s, bound))
        # keep the bracket consistent with the sign of the residual
        np.copyto(lo, r, where=f < 0.0)
        np.copyto(hi, r, where=f > 0.0)
        f /= d
        r -= f
        np.copyto(r, 0.5 * (lo + hi), where=(r <= lo) | (r >= hi))
        f, d = _bridge(r, derivative=True)
        f -= s
    else:
        raise ConvergenceError(
            "bridge inversion did not converge to %g in %d iterations"
            % (_INVERSE_TOLERANCE, _INVERSE_ITERATIONS)
        )
    return out, out_slope


def _squared_norms(x):
    """Squared norms over the last axis, summed in component order: bit for
    bit ``np.sum(x**2, axis=-1)`` in any memory layout."""
    total = x[..., 0] * x[..., 0]
    for i in range(1, x.shape[-1]):
        total += x[..., i] * x[..., i]
    return total


def _norms(x):
    """Norms over the last axis, bit for bit those of ``np.linalg.norm``."""
    return np.sqrt(_squared_norms(x))


def _distinct_rows(rows):
    """The distinct rows of ``rows`` (N, n) in lexicographic order, and the
    index of each row among them: ``np.unique(rows, axis=0,
    return_inverse=True)`` for finite rows free of negative zeros.  A
    lexsort and a first-of-run mask take an eighth of the time that
    ``np.unique``'s sort of one structured value per row does."""
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    first = np.empty(rows.shape[0], dtype=bool)
    first[0] = True
    np.any(ranked[1:] != ranked[:-1], axis=1, out=first[1:])
    index = np.empty(rows.shape[0], dtype=np.intp)
    index[order] = np.cumsum(first) - 1
    return ranked[first], index


def _signed_orbits(points):
    """The distinct c = sort(|x|) of the points (``_distinct_rows``), each
    point's index among them, and the rank and sign (N, n) with x = S c,
    x_i = sign_i c_(rank_i); a negative zero counts as negative."""
    magnitude = np.abs(points)
    order = np.argsort(magnitude, axis=1, kind="stable")
    reps, orbit = _distinct_rows(np.sort(magnitude, axis=1))
    return reps, orbit, np.argsort(order, axis=1), np.copysign(1.0, points)


def _radial_map(x, inverse):
    """Shared body of the ball maps: x -> (phi(|x|)/|x|) x row-wise, with phi
    the inverse profile (compress) or the profile (expand), and the Jacobian
    factors (t, e, u): the Jacobian of row r is t[r] I + e[r] u[:, r] u[:, r]^T,
    with t = phi/|x|, e = phi' - phi/|x| and the unit direction u = x/|x|
    stored component-major, shape (n, N).  Rows with |x| <= BRIDGE_LO are exact
    passthrough for both maps, with t = 1, e = 0 and u = 0 exactly; the
    profile itself rejects expansion from R_OVERFLOW outward, and rows
    whose norm is not finite are rejected here rather than sent to the
    origin or into the bridge inversion.  Rows in any layout give ``out``
    as an array of its own in Fortran order, one row per component."""
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    with np.errstate(over="ignore"):
        r = _norms(pts)
    if not np.all(np.isfinite(r)):
        bad = int(np.argmin(np.isfinite(r)))
        raise BallDomainError(
            "%s needs finite coordinates with |x| below %.3g, where |x|^2 still"
            " fits in double precision (row %d has |x| = %g)"
            % ("ball_compress" if inverse else "ball_expand", _NORM_LIMIT, bad, r[bad]))
    move = r > BRIDGE_LO
    # allocated ahead of the inversion's temporaries, which keeps the heap
    # from fragmenting around it
    out = np.empty(pts.shape, order="F")
    ratio = np.ones(r.shape)
    slope = np.ones(r.shape)
    if np.any(move):
        r_m = r[move]
        if inverse:
            # the inversion hands back g' at its result
            rho, g_slope = radial_profile_inverse(r_m, derivative=True)
            slope[move] = 1.0 / g_slope
            del g_slope
        else:
            rho = radial_profile(r_m)
            slope[move] = radial_profile_derivative(r_m)
        ratio[move] = rho / r_m
        del r_m, rho
    np.multiply(pts.T, ratio, out=out.T)
    unit = np.zeros(pts.shape[::-1])
    np.divide(pts.T, r, out=unit, where=move)
    slope -= ratio
    return out, (ratio, slope, unit)


def ball_compress(x):
    """Diffeomorphism h from R^n onto the open unit ball; identity near 0.

    Radially maps |x| to g^{-1}(|x|).  Accepts (n,) or (N, n).  Raises
    BallDomainError for a row whose norm is not finite (a nan or inf
    coordinate, or |x| past about 1.3e154).  Computes the Jacobian factors
    too and drops them.
    """
    out = _radial_map(x, inverse=True)[0]
    return out[0] if np.ndim(x) == 1 else out


def ball_expand(u):
    """Inverse diffeomorphism h^{-1} from the open unit ball onto R^n.

    Raises BallDomainError from R_OVERFLOW outward, where the profile value
    exceeds double precision range.  Computes the Jacobian factors too and
    drops them.
    """
    out = _radial_map(u, inverse=False)[0]
    return out[0] if np.ndim(u) == 1 else out


def _radial_jacobians(t, e, u):
    """Dense Jacobian stack (N, n, n) of a radial map from its factors.

    For a radial map the Jacobian splits into the tangential stretch
    t = phi(r)/r on the orthogonal complement of x and the radial stretch
    phi'(r) = t + e along x: t I + e u u^T, with u (n, N) the unit radial
    direction.  Passthrough rows (t = 1, e = 0, u = 0) come out as exact
    identity matrices.  The fused shift product never builds these stacks.
    """
    unit = u.T
    out = (e[:, None] * unit)[:, :, None] * unit[:, None, :]
    idx = np.arange(unit.shape[1])
    out[:, idx, idx] += t[:, None]
    return out


def _compress_with_jacobian(x):
    return _radial_map(x, inverse=True)


def _expand_with_jacobian(x):
    return _radial_map(x, inverse=False)


def _shift(x, y):
    """Shared body of the shift maps: s_y row-wise and its Jacobians.  Rows
    from R_IDENTITY outward are returned bit for bit, with an exact
    identity Jacobian."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    scalar = x.ndim == 1
    pts = np.atleast_2d(x)
    shifts = np.atleast_2d(y)
    if shifts.shape[0] == 1 and pts.shape[0] > 1:
        shifts = np.broadcast_to(shifts, pts.shape)
    out = pts.copy()
    inner = _norms(pts) < R_IDENTITY
    count, n = pts.shape
    jac = np.broadcast_to(np.eye(n), (count, n, n)).copy()
    if np.any(inner):
        expanded, expand_factors = _expand_with_jacobian(pts[inner])
        out[inner], compress_factors = _compress_with_jacobian(expanded + shifts[inner])
        jac[inner] = (_radial_jacobians(*compress_factors)
                      @ _radial_jacobians(*expand_factors))
    return (out[0], jac[0]) if scalar else (out, jac)


def shift_points(x, y):
    """Apply the compactly supported shift s_y row-wise: x, y of shape (N, n).

    Equals x + y wherever the compression is the identity around both points,
    and returns x bit for bit from R_IDENTITY outward.  Builds the Jacobians
    too and drops them.
    """
    return _shift(x, y)[0]


def shift_with_jacobian(x, y):
    """Shifted points and Jacobians d s_y / dx, row-wise.

    The Jacobian is the chain product of the expansion Jacobian at x and the
    compression Jacobian at the translated point; exact identity outside
    R_IDENTITY and wherever both factors reduce to the identity.
    """
    return _shift(x, y)


def _shift_blocks(points, shifts):
    """Every shift in ``shifts`` (M, n) applied to every row of ``points``
    (N, n), which must lie inside R_IDENTITY.  Yields chunks (part, moved
    (M, k, n), chain (n, n, M, k)) of k points over all M nodes, ``moved``
    and the chain Jacobians component-major in memory; each chunk is
    expanded once and only the compression, fed (n, M k) component rows,
    runs per node.

    Only the points are split: into max(1, min(N // 2, ceil(N M / _MAX_ROWS)))
    contiguous chunks in input order, sized as ``np.array_split`` sizes
    them, each of at least two points (unless N = 1) and at most
    max(_MAX_ROWS + M, 3 M) rows; ``part`` is the chunk's slice.  A
    caller's node sum over a chunk's (M, k) rows is then the sequential
    sum in node order whatever the cap, as it would not be for a one-point
    chunk (numpy sums a contiguous column in another order).

    The chain is formed per component, chain[i, c] = sum_a Jc[i, a] Je[a, c]
    with Jc[i, a] = e u_i u_a + [a = i] t rounded first, as the dense
    product rounds it: near R_IDENTITY the terms cancel a hundredfold, and
    regrouping as t Je + u (e u^T Je) moves that rounding.  Rows the
    compression passes through get Je exactly."""
    count, n = points.shape
    m = shifts.shape[0]
    chunks = max(1, min(count // 2, math.ceil(count * m / _MAX_ROWS)))
    for block in np.array_split(np.arange(count), chunks):
        part = slice(int(block[0]), int(block[-1]) + 1)
        expanded, factors = _expand_with_jacobian(points[part])
        # the expansion Jacobians, component-major (n, n, k)
        jac_expand = np.moveaxis(_radial_jacobians(*factors), 0, -1).copy()
        k = expanded.shape[0]
        moved, (t, e, u) = _compress_with_jacobian(
            (expanded.T[:, None, :] + shifts.T[:, :, None]).reshape(n, -1).T)
        t, e, u = t.reshape(m, k), e.reshape(m, k), u.reshape(n, m, k)
        chain = np.empty((n, n, m, k))
        row = np.empty((n, m, k))
        scaled = np.empty((m, k))
        for i in range(n):
            # row a holds Jc[i, a] = (e u_i) u_a + [a = i] t, rounded as
            # _radial_jacobians rounds it
            np.multiply(e, u[i], out=scaled)
            for a in range(n):
                np.multiply(scaled, u[a], out=row[a])
            row[i] += t
            for c in range(n):
                np.multiply(row[0], jac_expand[0, c], out=chain[i, c])
                for a in range(1, n):
                    chain[i, c] += np.multiply(row[a], jac_expand[a, c], out=scaled)
        # free the factors before the caller evaluates its chunk, and the
        # chunk before the next one is compressed
        del t, e, u, row, scaled
        yield part, moved.reshape(m, k, n), chain
        del moved, chain
