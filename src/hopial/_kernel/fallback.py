"""Pure-numpy implementations of the hot kernels.

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


def eval_program(ops, fargs, iargs, data, xs, stack_depth):
    """Run a postfix spec program over an array of abscissae."""
    stack = []
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k in range(len(ops)):
            op = ops[k]
            if op == OP_CONST:
                stack.append(np.full_like(xs, fargs[k, 0]))
            elif op == OP_POW_LEFT:
                c, alpha, a = fargs[k]
                t = xs - a
                if alpha == 0.0:
                    stack.append(np.full_like(xs, c))
                else:
                    stack.append(c * np.power(t, alpha))
            elif op == OP_POW_RIGHT:
                c, alpha, b = fargs[k]
                t = b - xs
                if alpha == 0.0:
                    stack.append(np.full_like(xs, c))
                else:
                    stack.append(c * np.power(t, alpha))
            elif op == OP_EXP:
                c, beta, _ = fargs[k]
                stack.append(c * np.exp(beta * xs))
            elif op == OP_PWL:
                off, n = iargs[k]
                kx = data[off : off + n]
                kv = data[off + n : off + 2 * n]
                stack.append(np.interp(xs, kx, kv))
            elif op == OP_STEP:
                off, n = iargs[k]
                breaks = data[off : off + n + 1]
                values = data[off + n + 1 : off + 2 * n + 1]
                idx = np.clip(np.searchsorted(breaks, xs, side="right") - 1, 0, n - 1)
                stack.append(values[idx])
            elif op == OP_PPOLY:
                off, n = iargs[k]
                deg = int(fargs[k, 0])
                breaks = data[off : off + n + 1]
                coeffs = data[off + n + 1 : off + n + 1 + n * (deg + 1)].reshape(
                    n, deg + 1
                )
                idx = np.clip(np.searchsorted(breaks, xs, side="right") - 1, 0, n - 1)
                t = xs - breaks[idx]
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
                e = fargs[k, 0]
                stack[-1] = np.power(stack[-1], e)
            elif op == OP_ABS:
                stack[-1] = np.abs(stack[-1])
            else:  # pragma: no cover - compiler emits known opcodes only
                raise ValueError(f"bad opcode {op}")
    return stack[-1]


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
