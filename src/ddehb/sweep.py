"""Factored RK4 sweeps of the delay-line variational and adjoint equations.

The monodromy and backward-adjoint engines of the oracle propagate blocks
of vectors over one period of y' = J(t) y or I' = -J(t)^T I, where J is
the Jacobian of the N-segment delay line along the cycle.  The classical
RK4 step is kept exactly; it is only factored: on the lag rows J is the
constant c (S - I), so the step there is a fixed 5-tap stencil, and the
few rows that touch the head get a per-step linear map computed once per
plan from the unfactored step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

if TYPE_CHECKING:
    from .cycle import PeriodicOrbit
    from .oracle import DiscretizedSystem


# Times or intervals handled in one batch when building a plan: bounds the
# temporaries (orbit readouts, boundary-map stages) whatever the number of
# steps per period.
_CHUNK = 256


def _variational_tables(system: DiscretizedSystem, orbit: PeriodicOrbit, steps: int):
    """DF0/DF1 along the cycle at the RK4 node and midpoint times."""
    T = orbit.T
    h = T / steps
    t_nodes = np.arange(steps + 1) * h
    t_mid = t_nodes[:-1] + 0.5 * h
    model = system.model

    def tables(ts):
        DF0 = np.empty((ts.size, model.m, model.m))
        DF1 = np.empty_like(DF0)
        for lo in range(0, ts.size, _CHUNK):
            t = ts[lo : lo + _CHUNK]
            x, xd = orbit.value(t), orbit.value(t - model.tau)
            DF0[lo : lo + _CHUNK] = model.DF0(x, xd)
            DF1[lo : lo + _CHUNK] = model.DF1(x, xd)
        return DF0, DF1

    return h, tables(t_nodes), tables(t_mid)


def _rk4_taps(x: float) -> np.ndarray:
    """Weights of P(x (S - I)) on the shifts S^0..S^4.

    P(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 is one RK4 step of a linear
    autonomous system; on the lag rows the Jacobian is c (S - I) with S the
    shift along the chain, so x = h c.
    """
    taps = np.zeros(5)
    for p in range(5):
        for d in range(p + 1):
            taps[d] += x**p / math.factorial(p) * math.comb(p, d) * (-1.0) ** (p - d)
    return taps


@dataclass
class _SweepPlan:
    """One period of the variational (forward) or adjoint (backward) sweep,
    with each RK4 step factored into a fixed 5-tap stencil on the interior
    chain rows and a per-step linear map on the boundary rows.

    Forward, rows 4..N only see chain rows within a step; rows 0..3 also
    see the head, which is fed by the tail rows N-3..N.  Backward the shift
    runs upward: rows 1..N-4 only see chain rows, row 0 sees rows 0..4 and
    the tail rows N-3..N see the head through DF1.  For small N the two
    boundary blocks merge and the stencil rows may be none.
    """

    system: DiscretizedSystem
    backward: bool
    h: float
    node_tab: tuple
    mid_tab: tuple
    taps: np.ndarray  # (5,) weights of the rows 0..4 places back along the shift
    interior: range  # rows updated by the stencil
    rows_in: np.ndarray  # boundary block read by the maps
    rows_out: np.ndarray  # rows written by the maps: all rows not in interior
    maps: np.ndarray  # (steps, |rows_out| m, |rows_in| m), indexed by interval


def _sweep_plan(system, orbit, steps, backward=False) -> _SweepPlan:
    """Plan of a sweep over one period in `steps` RK4 intervals; an engine
    builds it once and reuses it for every period it sweeps."""
    N = system.N
    h, node_tab, mid_tab = _variational_tables(system, orbit, steps)
    tail = set(range(N - 3, N + 1))
    if backward:
        interior = range(1, N - 3)
        rows_out, rows_in = {0} | tail, set(range(5)) | tail
    else:
        interior = range(4, N + 1)
        rows_out, rows_in = set(range(4)), set(range(4)) | tail
    rows_out, rows_in = (
        np.array(sorted(r for r in rows if 0 <= r <= N)) for rows in (rows_out, rows_in)
    )
    return _SweepPlan(
        system=system,
        backward=backward,
        h=h,
        node_tab=node_tab,
        mid_tab=mid_tab,
        taps=_rk4_taps(h * system.rate),
        interior=interior,
        rows_in=rows_in,
        rows_out=rows_out,
        maps=_boundary_maps(system, h, node_tab, mid_tab, rows_in, rows_out, backward),
    )


def _boundary_maps(system, h, node_tab, mid_tab, rows_in, rows_out, backward):
    """Linear map of each RK4 interval from the rows_in block to rows_out.

    The unfactored four-stage step runs on the block alone, applied to its
    identity basis and batched over _CHUNK intervals at a time.  A block
    row whose chain neighbour lies outside the block loses that link; the
    cut cannot reach rows_out within one step, so the maps are those of the
    whole chain.
    """
    m, c = system.m, system.rate
    DF0_n, DF1_n = node_tab
    DF0_m, DF1_m = mid_tab
    if backward:
        DF0_n, DF1_n, DF0_m, DF1_m = (
            np.swapaxes(a, -1, -2) for a in (DF0_n, DF1_n, DF0_m, DF1_m)
        )
    steps = DF0_m.shape[0]
    nb = rows_in.size
    # block rows fed from outside the block: forward a row is fed by the
    # row before it, backward by the row after it
    cut = np.flatnonzero(np.diff(rows_in) != 1) + (0 if backward else 1)
    pick = np.searchsorted(rows_in, rows_out)

    def jac(DF0, DF1, Z):
        """J Z (forward) or J^T Z (backward) for blocks Z of shape (B, nb, m, q)."""
        out = np.empty_like(Z)
        if backward:
            out[:, 0] = DF0 @ Z[:, 0] + c * Z[:, 1]
            out[:, 1:-1] = c * (Z[:, 2:] - Z[:, 1:-1])
            out[:, -1] = DF1 @ Z[:, 0] - c * Z[:, -1]
        else:
            out[:, 0] = DF0 @ Z[:, 0] + DF1 @ Z[:, -1]
            out[:, 1:] = c * (Z[:, :-1] - Z[:, 1:])
        out[:, cut] = -c * Z[:, cut]
        return out

    eye = np.eye(nb * m).reshape(nb, m, nb * m)
    maps = np.empty((steps, pick.size * m, nb * m))
    for lo in range(0, steps, _CHUNK):
        hi = min(lo + _CHUNK, steps)
        start = (DF0_n[lo:hi], DF1_n[lo:hi])
        mid = (DF0_m[lo:hi], DF1_m[lo:hi])
        end = (DF0_n[lo + 1 : hi + 1], DF1_n[lo + 1 : hi + 1])
        if backward:  # the interval is swept from its right end
            start, end = end, start
        Y = np.broadcast_to(eye, (hi - lo,) + eye.shape)
        k1 = jac(*start, Y)
        k2 = jac(*mid, Y + 0.5 * h * k1)
        k3 = jac(*mid, Y + 0.5 * h * k2)
        k4 = jac(*end, Y + h * k3)
        Y = Y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        maps[lo:hi] = Y[:, pick].reshape(hi - lo, -1, nb * m)
    return maps


def _sweep(plan, V, steps, store_head):
    """Propagate the columns of V over `steps` RK4 intervals of the plan,
    from t = 0 upward (forward) or from t = T downward (backward)."""
    N, m = plan.system.N, plan.system.m
    Y = V.reshape(N + 1, m, -1).copy()
    k = Y.shape[-1]
    bufs = (Y, np.empty_like(Y))
    # stencil, per buffer: the flat destination rows and a read-only
    # (5, rows*m*k) window whose row d holds the source rows d places above
    # the first source row, so the taps run in increasing row order
    width = m * k
    n = len(plan.interior) * width
    lo = plan.interior.start
    first = lo if plan.backward else lo - 4
    taps = plan.taps if plan.backward else plan.taps[::-1]
    windows = [
        sliding_window_view(b.reshape(-1), n)[first * width :: width][:5] if n else None
        for b in bufs
    ]
    dests = [b.reshape(-1)[lo * width : lo * width + n] for b in bufs]
    block_in = np.empty((plan.rows_in.size, m, k))
    block_out = np.empty((plan.rows_out.size * m, k))
    total = plan.maps.shape[0]
    intervals = range(total - 1, total - 1 - steps, -1) if plan.backward else range(steps)
    head = np.empty((steps + 1, m, k)) if store_head else None
    if store_head:
        head[steps if plan.backward else 0] = Y[0]
    cur = 0
    for s, i in enumerate(intervals):
        src, dst = bufs[cur], bufs[1 - cur]
        if n:
            np.einsum("d,dj->j", taps, windows[cur], out=dests[1 - cur])
        np.take(src, plan.rows_in, axis=0, out=block_in, mode="clip")
        np.matmul(plan.maps[i], block_in.reshape(-1, k), out=block_out)
        dst[plan.rows_out] = block_out.reshape(-1, m, k)
        cur = 1 - cur
        if store_head:
            head[steps - 1 - s if plan.backward else s + 1] = dst[0]
    return bufs[cur].reshape(plan.system.dim, -1), head


def _sweep_forward(plan, V, steps, store_head=False):
    """Propagate columns of V through `steps` intervals of y' = J(t) y."""
    if plan.backward:
        raise ValueError("forward sweep needs a forward plan")
    return _sweep(plan, V, steps, store_head)


def _sweep_backward(plan, V, steps, store_head=False):
    """Propagate columns of V through `steps` intervals of I' = -J(t)^T I,
    integrating from t = T down (the transposed monodromy)."""
    if not plan.backward:
        raise ValueError("backward sweep needs a backward plan")
    return _sweep(plan, V, steps, store_head)
