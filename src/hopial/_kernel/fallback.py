"""Pure-numpy implementations of the hot kernels.

eval_program runs a spec program on one parameter row per member, so the
quadrature evaluates the panels of many integrands with the same opcode
skeleton in one call.  A point gets the bits it gets in a one-row program:
parameters the rows share stay scalars (np.power takes a different route
for some scalar exponents), varying ones are gathered per point, and the
piecewise opcodes repeat np.interp's and np.searchsorted's arithmetic.

The shooting march at p = 1 is linear in (u, w), so it runs as a prefix
product of the RK4 step matrices (_shoot_linear).  That reassociates the
step-by-step loop: its u and w agree with the loop to about 1e-14
relative, not bit-for-bit.

The step-by-step loop (_shoot_loop, the p != 1 march) runs on Python
floats: the coefficients are converted once with tolist() and the step
constants are hoisted.  Python floats do the same IEEE arithmetic as numpy
float64 scalars, so the loop is bit-identical to one on numpy scalars and
about four times faster.
"""

from typing import NamedTuple, Optional

import numpy as np

BACKEND = "pure"

OP_CONST = 0
OP_POW_LEFT = 1
OP_POW_RIGHT = 2
OP_EXP = 3
OP_PWL = 4
OP_STEP = 5
OP_PPOLY = 6
OP_ADD = 7
OP_MUL = 8
OP_POWER = 9
OP_ABS = 10


# np.power special-cases these scalar exponents (square, sqrt, reciprocal,
# ...), which differ in the last bit from the general routine it runs for an
# array of exponents
_POWER_FAST_EXPONENTS = (-1.0, 0.0, 0.5, 1.0, 2.0)


def _power(base, e):
    """np.power(base, e) where e is a scalar or one exponent per point; each
    point gets the bits it gets with its exponent passed as a scalar."""
    if not isinstance(e, np.ndarray):
        return np.power(base, e)
    out = np.power(base, e)
    for fast in _POWER_FAST_EXPONENTS:
        hit = e == fast
        if hit.any():
            out[hit] = np.power(base[hit], fast)
    return out


def _pairs(row, x):
    """(row, x) as complex numbers, which numpy orders lexicographically."""
    out = np.empty(np.broadcast(row, x).shape, dtype=complex)
    out.real = row
    out.imag = x
    return out


def _row_search(breaks, xs, rows):
    """searchsorted(breaks[row], x, side="right") - 1 for every point, with
    breaks one ascending row per member: the rows are searched as one
    lexicographic (row, x) sequence."""
    n = breaks.shape[1]
    keys = _pairs(np.arange(len(breaks))[:, None], breaks).ravel()
    return np.searchsorted(keys, _pairs(rows, xs), side="right") - rows * n - 1


class Points(NamedTuple):
    """Per-point arrays of an eval_program call, aligned with its xs.

    ``rows``: the parameter row of each point (None: row 0 for all).
    ``anchors``, ``ds``: point i lies at anchors[i] + ds[i] exactly, and
    xs[i] is that sum rounded; anchors[i] is nan for a point without one
    (None: no point has one).
    """

    rows: Optional[np.ndarray] = None
    anchors: Optional[np.ndarray] = None
    ds: Optional[np.ndarray] = None


def eval_program(ops, fargs, iargs, data, xs, points=None):
    """Run a postfix spec program over an array of abscissae.

    A program holds one parameter row per member: ``fargs`` is rows x ops x
    3 and ``data`` rows x n, with the same opcodes and data layout in every
    row.  Point i is evaluated with row ``points.rows[i]``; without rows
    every point is evaluated with row 0.  A parameter that is the same in
    every row is used as a scalar and a varying one is gathered per point,
    so a point gets the same bits in a batch as in a one-row program.

    The distance opcodes (POW_LEFT, POW_RIGHT and PPOLY's local variable)
    read the exact offset ``points.ds[i]`` wherever their own anchor is
    ``points.anchors[i]``, instead of x - anchor, which cancels to nothing
    near the anchor.  Every other point gets the bits it gets without
    offsets.
    """
    rows, anchors, ds = points if points is not None else (None, None, None)

    def distance(anchor, sign):
        """sign * (xs - anchor), exact at the points anchored there."""
        t = xs - anchor if sign > 0 else anchor - xs
        if anchors is None:
            return t
        return np.where(anchors == anchor, ds if sign > 0 else -ds, t)

    batched = rows is not None and len(fargs) > 1
    if batched:
        varies = (fargs != fargs[:1]).any(axis=0).tolist()
        data_varies = (data != data[:1]).any(axis=0)
    first = fargs[0].tolist()
    row0 = data[0]

    def param(k, j):
        if batched and varies[k][j]:
            return fargs[rows, k, j]
        return first[k][j]

    def table(k, length):
        """The op's data segment: one row when it is the same in every
        row, else all rows (rows x length)."""
        off = iargs[k, 0]
        if batched and data_varies[off : off + length].any():
            return data[:, off : off + length]
        return row0[off : off + length]

    stack = []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k in range(len(ops)):
            op = ops[k]
            if op == OP_CONST:
                c = param(k, 0)
                stack.append(c if isinstance(c, np.ndarray) else np.full_like(xs, c))
            elif op == OP_POW_LEFT or op == OP_POW_RIGHT:
                c, alpha, anchor = param(k, 0), param(k, 1), param(k, 2)
                t = distance(anchor, 1 if op == OP_POW_LEFT else -1)
                if isinstance(alpha, np.ndarray) or alpha != 0.0:
                    stack.append(c * _power(t, alpha))
                elif isinstance(c, np.ndarray):
                    stack.append(c)
                else:
                    stack.append(np.full_like(xs, c))
            elif op == OP_EXP:
                stack.append(param(k, 0) * np.exp(param(k, 1) * xs))
            elif op == OP_PWL:
                n = iargs[k, 1]
                knots = table(k, 2 * n)
                if knots.ndim == 1:
                    stack.append(np.interp(xs, knots[:n], knots[n:]))
                    continue
                # np.interp's arithmetic, one knot row per point
                kx, kv = knots[:, :n], knots[:, n:]
                j = _row_search(kx, xs, rows)
                at = rows * n + np.clip(j, 0, n - 2)
                slope = (kv[:, 1:] - kv[:, :-1]) / (kx[:, 1:] - kx[:, :-1])
                kx, kv = kx.ravel(), kv.ravel()
                out = slope.ravel()[at - rows] * (xs - kx[at]) + kv[at]
                out = np.where(j < 0, kv[rows * n], out)
                out = np.where(j >= n - 1, kv[rows * n + n - 1], out)
                stack.append(np.where(np.isnan(xs), xs, out))
            elif op == OP_STEP:
                n = iargs[k, 1]
                steps = table(k, 2 * n + 1)
                if steps.ndim == 1:
                    idx = np.searchsorted(steps[: n + 1], xs, side="right") - 1
                    stack.append(steps[n + 1 :][np.clip(idx, 0, n - 1)])
                else:
                    idx = np.clip(_row_search(steps[:, : n + 1], xs, rows), 0, n - 1)
                    stack.append(steps[rows, n + 1 + idx])
            elif op == OP_PPOLY:
                n = iargs[k, 1]
                deg = int(first[k][0])
                pieces = int(first[k][1])
                if pieces:
                    poly = table(k, 5 * pieces + 2 + n * (deg + 4))
                    if poly.ndim == 1:
                        stack.append(_graded_ppoly(poly, pieces, n, deg, xs, anchors, ds))
                        continue
                    # one row at a time: a point gets its one-row bits
                    out = np.empty_like(xs)
                    for row in np.unique(rows).tolist():
                        at = rows == row
                        out[at] = _graded_ppoly(poly[row], pieces, n, deg, xs[at],
                                                None if anchors is None else anchors[at],
                                                None if ds is None else ds[at])
                    stack.append(out)
                    continue
                poly = table(k, n + 1 + n * (deg + 1))
                if poly.ndim == 1:
                    breaks = poly[: n + 1]
                    coeffs = poly[n + 1 :].reshape(n, deg + 1)
                    idx = np.clip(np.searchsorted(breaks, xs, side="right") - 1, 0, n - 1)
                    t = distance(breaks[idx], 1)
                else:
                    breaks = poly[:, : n + 1]
                    coeffs = poly[:, n + 1 :].reshape(len(poly), n, deg + 1)
                    idx = np.clip(_row_search(breaks, xs, rows), 0, n - 1)
                    t = distance(breaks[rows, idx], 1)
                    coeffs = coeffs[rows, idx]
                    idx = slice(None)
                acc = coeffs[idx, deg].copy()
                for j in range(deg - 1, -1, -1):
                    acc = acc * t + coeffs[idx, j]
                stack.append(acc)
            elif op == OP_ADD:
                rhs = stack.pop()
                stack[-1] = stack[-1] + rhs
            elif op == OP_MUL:
                rhs = stack.pop()
                stack[-1] = stack[-1] * rhs
            elif op == OP_POWER:
                stack[-1] = _power(stack[-1], param(k, 0))
            elif op == OP_ABS:
                stack[-1] = np.abs(stack[-1])
            else:  # pragma: no cover - compiler emits known opcodes only
                raise ValueError(f"bad opcode {op}")
    return stack[-1]


def _graded_ppoly(poly, pieces, n, deg, xs, anchors, ds):
    """PPOLY's graded form on one parameter row (the form is
    ``funcspace.PiecewisePolynomial``'s): the x-breaks of the pieces, each
    piece's anchor, sign, 1/m and first segment, then each segment's lower
    v-break, origin (where t = 0), +-1/width and coefficients.  A point
    finds its piece by x and its segment by v = (sign (x - anchor))^(1/m),
    with the exact offset where the point's anchor is the piece's: segments
    near a shifted anchor can be narrower than the spacing of x there."""
    head = 5 * pieces + 2
    frames = poly[pieces + 1 : head].tolist()
    vlo, origin, scale = poly[head : head + 3 * n].reshape(3, n)
    coeffs = poly[head + 3 * n :].reshape(n, deg + 1)
    out = np.empty_like(xs)
    if pieces > 1:
        piece = np.searchsorted(poly[1:pieces], xs, side="right")
    for q in range(pieces):
        at = slice(None) if pieces == 1 else piece == q
        anchor, sign, power = frames[q], frames[pieces + q], frames[2 * pieces + q]
        x = xs[at]
        d = x - anchor if sign > 0 else anchor - x
        if anchors is not None:
            d = np.where(anchors[at] == anchor, sign * ds[at], d)
        v = np.maximum(d, 0.0)
        if power != 1.0:
            v = np.power(v, power)
        lo, hi = int(frames[3 * pieces + q]), int(frames[3 * pieces + q + 1])
        j = lo + np.clip(np.searchsorted(vlo[lo:hi], v, side="right") - 1, 0, hi - lo - 1)
        t = (v - origin[j]) * scale[j]
        c = coeffs[j]
        if deg < 2:  # no Chebyshev term beyond T_0
            out[at] = c[:, 0] + t * c[:, 1] if deg else c[:, 0]
            continue
        s2 = 4.0 * t - 2.0
        # c[0] + t sum_k c[k + 1] T_k(2t - 1), by Clenshaw's recurrence
        b1, b2 = c[:, deg].copy(), np.zeros_like(t)
        for k in range(deg - 1, 1, -1):
            b1, b2 = s2 * b1 - b2 + c[:, k], b1
        out[at] = c[:, 0] + t * (c[:, 1] + 0.5 * s2 * b1 - b2)
    return out


def shoot_quasilinear(r_half, m_half, lam, h, p, u0=0.0, w0=None):
    """RK4 march of (R(x) |u'|^(p-1) u')' = -lam m(x) |u|^(p-1) u.

    r_half and m_half hold coefficient values on the half-step grid
    (2n + 1 values for n steps).  Starts from (u0, w0) where
    w = R |u'|^(p-1) u'; the default start is u(a) = 0, u'(a) = 1.
    Returns (u_end, w_end, first_cross) where first_cross is the step
    index at which u first became <= 0 (or -1 if u stayed positive); on a
    crossing, (u, w) are the values at that step.
    """
    if p == 1.0:
        return _shoot_linear(r_half, m_half, lam, h, u0, w0)
    return _shoot_loop(r_half, m_half, lam, h, p, u0, w0)


def _shoot_loop(r_half, m_half, lam, h, p, u0=0.0, w0=None):
    """shoot_quasilinear one RK4 step at a time; the reference march.

    The steps run on Python floats, which do the same IEEE arithmetic as
    numpy float64 scalars at a fraction of the cost.  Python's float ``**``
    and ``/`` raise where numpy gives inf, so a march that overflows or
    divides by zero runs again on numpy scalars, which carry inf and nan
    through instead."""
    r_half = np.asarray(r_half, dtype=float)
    neg_lm = -lam * np.asarray(m_half, dtype=float)
    w = r_half[0] if w0 is None else w0
    try:
        u, w, first_cross = _rk4_steps(r_half.tolist(), neg_lm.tolist(), h, p,
                                       float(u0), float(w))
    except (OverflowError, ZeroDivisionError):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            u, w, first_cross = _rk4_steps(list(r_half), list(neg_lm), h, p,
                                           np.float64(u0), np.float64(w))
    return float(u), float(w), first_cross


def _rk4_steps(r, neg_lm, h, p, u, w):
    """The RK4 march of _shoot_loop on whatever number type r, neg_lm (the
    values of -lam m), u and w carry.  abs(u) ** 0.0 * u is u bit for bit,
    so p = 1 needs no branch."""
    inv_p = 1.0 / p
    pm1 = p - 1.0
    hh = 0.5 * h
    h6 = h / 6.0
    started_positive = u > 0.0
    steps = zip(r[0:-1:2], r[1::2], r[2::2],
                neg_lm[0:-1:2], neg_lm[1::2], neg_lm[2::2])
    for i, (r0, rh, r1, a0, ah, a1) in enumerate(steps):
        if w >= 0.0:
            k1u = (w / r0) ** inv_p
        else:
            k1u = -((-w / r0) ** inv_p)
        k1w = a0 * abs(u) ** pm1 * u
        u2 = u + hh * k1u
        w2 = w + hh * k1w
        if w2 >= 0.0:
            k2u = (w2 / rh) ** inv_p
        else:
            k2u = -((-w2 / rh) ** inv_p)
        k2w = ah * abs(u2) ** pm1 * u2
        u3 = u + hh * k2u
        w3 = w + hh * k2w
        if w3 >= 0.0:
            k3u = (w3 / rh) ** inv_p
        else:
            k3u = -((-w3 / rh) ** inv_p)
        k3w = ah * abs(u3) ** pm1 * u3
        u4 = u + h * k3u
        w4 = w + h * k3w
        if w4 >= 0.0:
            k4u = (w4 / r1) ** inv_p
        else:
            k4u = -((-w4 / r1) ** inv_p)
        k4w = a1 * abs(u4) ** pm1 * u4
        u = u + h6 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        w = w + h6 * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
        if u <= 0.0 and (i >= 1 or started_positive):
            return u, w, i
    return u, w, -1


def _shoot_linear(r_half, m_half, lam, h, u0=0.0, w0=None):
    """shoot_quasilinear at p = 1, where each RK4 step is y_{i+1} = M_i y_i
    for y = (u, w): all M_i at once, then the inclusive prefix products
    P_i = M_i ... M_0 by Hillis-Steele doubling (ceil(log2 n) rounds), and
    u_i = (P_i y0)_0.  P_i involves only M_0 .. M_i, so an overflow after
    the first crossing cannot change the answer."""
    r_half = np.asarray(r_half, dtype=float)
    m_half = np.asarray(m_half, dtype=float)
    n = (len(r_half) - 1) // 2
    u0 = float(u0)
    w0 = float(r_half[0]) if w0 is None else float(w0)
    r0, rh, r1 = r_half[0:-1:2], r_half[1::2], r_half[2::2]
    m0, mh, m1 = m_half[0:-1:2], m_half[1::2], m_half[2::2]
    with np.errstate(over="ignore", invalid="ignore"):
        # one RK4 step applied to the basis vectors (1, 0) and (0, 1):
        # row j of (u, w) is column j of every M_i
        u = np.array([[1.0], [0.0]])
        w = np.array([[0.0], [1.0]])
        k1u, k1w = w / r0, -lam * m0 * u
        u2, w2 = u + 0.5 * h * k1u, w + 0.5 * h * k1w
        k2u, k2w = w2 / rh, -lam * mh * u2
        u3, w3 = u + 0.5 * h * k2u, w + 0.5 * h * k2w
        k3u, k3w = w3 / rh, -lam * mh * u3
        u4, w4 = u + h * k3u, w + h * k3w
        k4u, k4w = w4 / r1, -lam * m1 * u4
        (a, b) = u + h / 6.0 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        (c, d) = w + h / 6.0 * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
        # [[a, b], [c, d]]_i becomes M_i ... M_max(0, i - 2s + 1) per round
        s = 1
        while s < n:
            a[s:], b[s:], c[s:], d[s:] = (
                a[s:] * a[:-s] + b[s:] * c[:-s],
                a[s:] * b[:-s] + b[s:] * d[:-s],
                c[s:] * a[:-s] + d[s:] * c[:-s],
                c[s:] * b[:-s] + d[s:] * d[:-s],
            )
            s *= 2
        us = a * u0 + b * w0
        crossed = us <= 0.0
        crossed[0] &= u0 > 0.0  # as in the loop: step 0 counts only if u0 > 0
        first_cross = int(np.argmax(crossed)) if crossed.any() else -1
        i = first_cross if first_cross >= 0 else n - 1
        w_i = c[i] * u0 + d[i] * w0
    return float(us[i]), float(w_i), first_cross
