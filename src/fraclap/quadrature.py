"""Batched adaptive Gauss-Kronrod (G7-K15) quadrature on a grid of end points.

The interval is cut into panels at every requested end point and every known
non-smooth point (schedule jumps, spline knots), so the rule only ever sees
smooth pieces.  Each panel gets the 15-point Kronrod rule; the embedded
7-point Gauss rule gives the error estimate |K15 - G7|, and a panel whose
estimate is too large is bisected and evaluated again.  The integrand is
called on blocks of nodes, never on all nodes at once, so memory stays
bounded whatever the number of panels.
"""

from __future__ import annotations

import numpy as np

from .errors import QuadratureError

__all__ = ["adaptive_simpson"]

# Absolute error budget per component over the whole range, and the most
# panels one call evaluates.
_TOL = 1e-10
_MAX_INTERVALS = 2 ** 20
# Integrand values per call: nodes x components stays below this.
_BLOCK_VALUES = 2 ** 16

# Kronrod abscissae on [0, 1) in decreasing order (odd positions are the
# Gauss nodes) and the K15 / G7 weights (Piessens et al., QUADPACK qk15).
_XK = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0])
_WK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714])
_WG = np.array([0.0, 0.129484966168869693270611432679082,
                0.0, 0.279705391489276667901467771423780,
                0.0, 0.381830050505118944950369775488975,
                0.0, 0.417959183673469387755102040816327])
_NODES = np.concatenate([-_XK[:-1], _XK[::-1]])
# Row 0: K15 weights; row 1: K15 - G7 weights (the error estimate).
_WEIGHTS = np.stack([np.concatenate([_WK[:-1], _WK[::-1]]),
                     np.concatenate([_WK[:-1] - _WG[:-1],
                                     (_WK - _WG)[::-1]])])


def adaptive_simpson(f, a: float, b, *, breakpoints=(), stats=None):
    """Integrate f from a to b, or from a to each entry of an array b.

    The rule is adaptive G7-K15 Gauss-Kronrod (the name is historical).
    Panels start at the end points and breakpoints; a panel of width w is
    accepted when max |K15 - G7| over the components is at most
    _TOL * w / (b_max - a), so the total error estimate stays below
    that absolute tolerance in every component.  A complex integrand is
    integrated as it is, and |K15 - G7| is then the modulus of the error.
    At most _MAX_INTERVALS panels are evaluated, bisections included;
    exhausting them raises QuadratureError carrying the offending panel and
    worst component index.

    Args:
        f: callable taking a 1-D array of k times and returning k real or
            complex values or a (k, m) array (m components).
        b: one end point, or a non-decreasing 1-D array of end points >= a.
        breakpoints: points forced to be panel boundaries.
        stats: optional object whose ``quadrature_panels`` counter is
            increased by the number of panels evaluated.

    Returns:
        For scalar b the integral (a float or complex, or an (m,) array);
        for array b the cumulative integrals from a to each end point, one
        row each.  Results have the integrand's dtype (at least float64).
    """
    ends = np.atleast_1d(np.asarray(b, dtype=float))
    if ends.ndim != 1 or ends.size == 0:
        raise ValueError("end points must be a scalar or a non-empty 1-D array")
    if not np.isfinite(a) or not np.isfinite(ends).all():
        raise ValueError("end points must be finite")
    if ends[0] < a or np.any(np.diff(ends) < 0):
        raise ValueError(f"empty interval: end points {ends} do not increase "
                         f"from {a}")
    top = float(ends[-1])
    inner = [float(p) for p in breakpoints if a < p < top]
    grid = np.unique(np.concatenate([[a], ends, inner]))
    lo, hi = grid[:-1], grid[1:]
    # Panel -> index of the first end point at or after it.
    owner = np.searchsorted(ends, hi, side="left")
    span = top - a

    if lo.size > _MAX_INTERVALS:
        raise QuadratureError(
            f"quadrature needs {lo.size} panels, budget is {_MAX_INTERVALS}",
            interval=(float(a), top), component=None)
    evaluated = 0
    parts = []
    scalar = False
    while lo.size:
        values, errors, scalar = _evaluate(f, lo, hi)
        evaluated += lo.size
        worst = errors.max(axis=1)
        width = hi - lo
        done = (worst <= _TOL * width / span) \
            | (width <= 1e-14 * (1.0 + np.abs(lo)))
        parts.append((owner[done], values[done]))
        bad = ~done
        if not bad.any():
            break
        if evaluated + 2 * int(bad.sum()) > _MAX_INTERVALS:
            if stats is not None:
                stats.quadrature_panels += evaluated
            i = int(np.flatnonzero(bad)[np.argmax(worst[bad])])
            raise QuadratureError(
                f"quadrature budget exhausted on [{lo[i]}, {hi[i]}]",
                interval=(float(lo[i]), float(hi[i])),
                component=None if scalar else int(np.argmax(errors[i])))
        mid = 0.5 * (lo[bad] + hi[bad])
        lo = np.concatenate([lo[bad], mid])
        hi = np.concatenate([mid, hi[bad]])
        owner = np.tile(owner[bad], 2)
    if stats is not None:
        stats.quadrature_panels += evaluated

    if not parts:  # every end point equals a
        fa = np.asarray(f(np.array([float(a)])))
        scalar = fa.ndim == 1
        parts.append((owner, np.empty((0, 1 if scalar else fa.shape[1]),
                                      np.result_type(fa, float))))
    totals = np.zeros((ends.size, parts[0][1].shape[1]), parts[0][1].dtype)
    for idx, vals in parts:
        np.add.at(totals, idx, vals)
    cumulative = np.cumsum(totals, axis=0)
    if scalar:
        cumulative = cumulative[:, 0]
    if np.ndim(b) == 0:
        return cumulative[0].item() if scalar else cumulative[0]
    return cumulative


def _evaluate(f, lo, hi):
    """K15 values and |K15 - G7| estimates of f on the panels [lo, hi].

    Returns the values, in f's dtype (at least float64), the real
    estimates, both (panels, m), and whether f is scalar-valued (m = 1).
    """
    centre = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    values = errors = None
    scalar = False
    start, per_block = 0, 1  # the first block finds m
    while start < lo.size:
        stop = min(lo.size, start + per_block)
        ts = centre[start:stop, None] + half[start:stop, None] * _NODES
        fx = np.asarray(f(ts.ravel()))
        if values is None:
            scalar = fx.ndim == 1
            m = 1 if scalar else fx.shape[1]
            values = np.empty((lo.size, m), np.result_type(fx, float))
            errors = np.empty((lo.size, m))
            per_block = max(1, _BLOCK_VALUES // (_NODES.size * m))
        both = np.tensordot(_WEIGHTS, fx.reshape(stop - start, _NODES.size, -1),
                            axes=([1], [1]))
        values[start:stop] = half[start:stop, None] * both[0]
        errors[start:stop] = np.abs(half[start:stop, None] * both[1])
        start = stop
    return values, errors, scalar
