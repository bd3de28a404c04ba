"""Block-stepped RK4 sweeps of the delay-line variational and adjoint equations.

The monodromy and backward-adjoint engines of the oracle propagate blocks
of vectors over one period of y' = J(t) y or I' = -J(t)^T I, where J is
the Jacobian of the N-segment delay line along the cycle.  The classical
RK4 step is kept; only the order of its arithmetic changes.

On the lag rows J is the constant c (S - I), S the shift along the chain,
so one step there is P(x (S - I)) with x = h c and P the degree-4 Taylor
polynomial of exp: a fixed 5-tap stencil.  Its taps are nonnegative for
x <= 1, which `oracle._choose_steps` guarantees (h <= tau / N); they sum
to P(0) = 1.  K steps on rows the head cannot reach within them are one
convolution with the K-fold power g_K = taps^{*K}: 4K+1 nonnegative taps
summing to 1, so the block cannot amplify anything (max-norm 1).  The
convolution is done by FFT, whose round-off is about eps log(n_fft)
relative to the largest entry of each column, not to each entry.  A block
of K steps is then

* probe: the rows the boundary maps read at each of the K steps, from the
  block-start chain with one fixed (4K x 4K) matrix;
* boundary: the rows that touch the head, advanced step by step with a
  per-interval linear map computed once per plan from the unfactored
  step (one small matmul a step, which also yields the head);
* interior: g_K applied to the block-start lag rows, plus one fixed
  (4K x 4K) injection of the K boundary states into the rows near them.

K is the largest value up to _BLOCK = 64 with 4K + 8 <= N and is 1 on
short chains, where a block is one plain step; the kotani chains
N = 500, 1000, 2000 all sweep 64 steps a block.  Against the unfactored
loop the sweeps agree to at most 4e-13 relative to the largest entry of
the swept block or of its head on those chains, over one period with
random blocks of 1 and 8 columns (1e-12 is tested the same way).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .cycle import PeriodicOrbit
    from .oracle import DiscretizedSystem


# Intervals handled in one batch by _boundary_maps: bounds its stage
# temporaries whatever the number of steps per period.
_CHUNK = 256
# Most RK4 steps in one block.  The two block matrices grow as K^2 (at 64,
# 2 x 0.5 MB) while the per-block FFT is spread over K steps.
_BLOCK = 64


def _variational_tables(system: DiscretizedSystem, orbit: PeriodicOrbit, steps: int):
    """DF0/DF1 along the cycle at the RK4 node and midpoint times."""
    T = orbit.T
    h = T / steps
    t_nodes = np.arange(steps + 1) * h
    t_mid = t_nodes[:-1] + 0.5 * h
    model = system.model

    def tables(ts):
        return model.jacobians(orbit.value(ts), orbit.value(ts - model.tau))

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


def _fft_size(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, a length the FFT handles fast.

    At N = 2000 and K = 64 this is 2304 = 2^8 3^2 for n = 2253, where the
    next power of two is 4096; one 8-column kotani period took 0.050-0.074 s
    against 0.081-0.103 s with the power of two, and 0.20-0.29 s at the
    unpadded (Bluestein) length.
    """
    while True:
        r = n
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return n
        n += 1


@dataclass
class _Block:
    """Operators advancing the chain K steps at once, in sweep coordinates
    (see _SweepPlan): boundary rows 0..3, lag rows 4..top-1."""

    probe: np.ndarray  # (K p, p + 4(K-1)): top p lag rows at steps 0..K-1
    inject: np.ndarray  # (min(4K, lag rows), 4K): rows 0..3 at steps 0..K-1 into 4..
    kernel: np.ndarray  # rfft of g_K at the plan's n_fft


def _block_operators(taps: np.ndarray, K: int, n_lag: int, n_fft: int) -> _Block:
    """Block operators of K steps on a chain with n_lag stencil rows."""
    from numpy import fft

    g = [np.ones(1)]
    for _ in range(K):
        g.append(np.convolve(g[-1], taps))
    # probe row t (window row w - p + t) at step j reads the window rows
    # up to 4j below it with the weights g_j
    p = min(4, n_lag)
    w = p + 4 * (K - 1)
    probe = np.zeros((K, p, w))
    for j in range(K):
        for t in range(p):
            end = w - p + t + 1
            probe[j, t, end - g[j].size : end] = g[j][::-1]
    # boundary row b at step j enters lag row b + d >= 4 at step j+1 with
    # weight taps[d], then spreads as g_{K-1-j}: lag rows 4..b+4(K-j)
    n = min(4 * K, n_lag)
    inject = np.zeros((n, K, 4))
    for b in range(4):
        enter = np.where(np.arange(5) >= 4 - b, taps, 0.0)
        for j in range(K):
            col = np.convolve(g[K - 1 - j], enter)[4 - b : 4 - b + n]
            inject[: col.size, j, b] = col
    return _Block(
        probe=probe.reshape(K * p, w),
        inject=inject.reshape(n, 4 * K),
        kernel=fft.rfft(g[K], n_fft),
    )


@dataclass
class _SweepPlan:
    """One period of the variational (forward) or adjoint (backward) sweep.

    The plan works in sweep coordinates, chain row r forward and row N - r
    backward, so that the stencil always reads the 4 rows below.  There
    rows 4..top-1 are lag rows (the stencil) and rows 0..3 and top..N are
    boundary rows (the maps); top is N+1 forward and N backward, where the
    head (chain row 0) is read by no lag row.  The head is the first
    boundary row forward and the last backward.  The maps read the
    boundary rows, then the probe rows: the top min(4, top-4) lag rows.
    For small N there may be no lag rows.
    """

    system: DiscretizedSystem
    backward: bool
    h: float
    node_tab: tuple
    mid_tab: tuple
    taps: np.ndarray  # (5,) weights of the rows 0..4 places back along the shift
    top: int  # lag rows are 4..top-1 in sweep coordinates
    rows_out: np.ndarray  # boundary rows, sweep coordinates
    maps: np.ndarray  # (steps, |rows_out| m, (|rows_out| + probe) m), by interval
    K: int  # RK4 steps per block
    n_fft: int  # FFT length of the block convolution, free of wrap-around
    blocks: dict = field(default_factory=dict)  # block size -> _Block

    def block(self, K: int) -> _Block:
        if K not in self.blocks:
            n_lag = max(self.top - 4, 0)
            self.blocks[K] = _block_operators(self.taps, K, n_lag, self.n_fft)
        return self.blocks[K]


def _sweep_plan(system, orbit, steps, backward=False) -> _SweepPlan:
    """Plan of a sweep over one period in `steps` RK4 intervals; an engine
    builds it once and reuses it for every period it sweeps."""
    N = system.N
    h, node_tab, mid_tab = _variational_tables(system, orbit, steps)
    top = N if backward else N + 1
    rows_out = np.append(np.arange(min(4, top)), np.arange(top, N + 1))
    rows_in = np.concatenate([rows_out, np.arange(max(4, top - 4), top)])
    chain = (lambda i: N - i) if backward else (lambda i: i)
    K = max(1, min(_BLOCK, (N - 8) // 4))
    return _SweepPlan(
        system=system,
        backward=backward,
        h=h,
        node_tab=node_tab,
        mid_tab=mid_tab,
        taps=_rk4_taps(h * system.rate),
        top=top,
        rows_out=rows_out,
        maps=_boundary_maps(
            system, h, node_tab, mid_tab, chain(rows_in), chain(rows_out), backward
        ),
        K=K,
        n_fft=_fft_size(max(top - 4, 0) + 4 * K),
    )


def _boundary_maps(system, h, node_tab, mid_tab, rows_in, rows_out, backward):
    """Linear map of each RK4 interval from the rows_in block to rows_out
    (chain rows, each list in the order the maps use).

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
    # the step runs on the block in chain order; basis column q is the
    # unit vector of rows_in[q]
    order = np.argsort(rows_in)
    rows = rows_in[order]
    # block rows fed from outside the block: forward a row is fed by the
    # row before it, backward by the row after it
    cut = np.flatnonzero(np.diff(rows) != 1) + (0 if backward else 1)
    pick = np.searchsorted(rows, rows_out)

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

    eye = np.eye(nb * m).reshape(nb, m, nb * m)[order]
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
    from t = 0 upward (forward) or from t = T downward (backward), a block
    of plan.K intervals at a time (the last block may be shorter)."""
    from numpy import fft

    N, m = plan.system.N, plan.system.m
    k = V.shape[-1]
    W = V.reshape(N + 1, m * k).copy()
    H = np.empty((steps + 1, m, k)) if store_head else None
    top, rows_out = plan.top, plan.rows_out
    n_out = rows_out.size
    Y, head, maps, slot = W, H, plan.maps, 0
    if plan.backward:  # to sweep coordinates; interval s swept is total-1-s
        Y, maps, slot = W[::-1], maps[::-1], n_out - 1
        head = H[::-1] if store_head else None
    if store_head:
        head[0] = Y[rows_out[slot]].reshape(m, k)
    n_in = maps.shape[-1] // m
    lag = Y[4:top]
    n_lag = len(lag)
    # state[j]: the boundary rows at step j of a block, then the probe rows
    state = np.empty((plan.K + 1, n_in, m * k))
    ins = [s.reshape(n_in * m, k) for s in state[:-1]]
    outs = [s[:n_out].reshape(n_out * m, k) for s in state[1:]]
    done = 0
    while done < steps:
        K = min(plan.K, steps - done)
        blk = plan.block(K)
        state[0, :n_out] = Y[rows_out]
        if n_in > n_out:
            probe = blk.probe @ Y[top - blk.probe.shape[1] : top]
            state[:K, n_out:] = probe.reshape(K, n_in - n_out, m * k)
        for j in range(K):  # np.dot: a third of np.matmul's call overhead here
            np.dot(maps[done + j], ins[j], out=outs[j])
        if n_lag:
            spec = fft.rfft(lag, plan.n_fft, axis=0) * blk.kernel[:, None]
            lag[...] = fft.irfft(spec, plan.n_fft, axis=0)[:n_lag]
            lag[: blk.inject.shape[0]] += blk.inject @ state[:K, :4].reshape(4 * K, -1)
        Y[rows_out] = state[K, :n_out]
        if store_head:
            head[done + 1 : done + K + 1] = state[1 : K + 1, slot].reshape(K, m, k)
        done += K
    return W.reshape(plan.system.dim, -1), H


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
