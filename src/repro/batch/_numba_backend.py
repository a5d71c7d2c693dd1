"""Numba-JIT fused kernels behind the ``numba`` array backend.

The dense, BLAS-shaped kernels of the batch engine gain nothing from a
JIT — NumPy already runs them at memory bandwidth. What BLAS cannot help
are the *branch-heavy* paths: per-game steppers whose control flow
depends on the data (lockstep nashification, best-/better-response
dynamics with cycle detection) and the ``m^n`` censuses whose generic
implementations materialise large intermediate tensors to stay
vectorised (pure-NE counting, the response-cycle Kahn peel). This module
replaces exactly those with compiled per-game loops, ``prange``-parallel
over the batch axis.

Parity contract: per-game trajectories are *identical* to the lockstep
NumPy path — the lockstep kernels are vectorisations of per-game
sequential procedures, so a per-game loop reproduces them move for move
provided (a) loads accumulate in the same order (zeroed buffer, users in
index order, then initial traffic), (b) every arithmetic step matches
the generic expression shape (add then divide), and (c) tie-breaks are
first-index argmax/argmin. Verdict-level kernels (the censuses) are
certified by tolerance-based differential tests instead of byte
identity, as their NumPy counterparts already reduce in a different
order than the sequential code.

The public wrappers below normalise dtypes and layouts before entering
the compiled loops; :data:`NUMBA_HOOKS` is the backend's hook table.
This module imports :mod:`numba` at module level; it is only reachable
through :mod:`repro.batch.backend`, which translates the ImportError
into a :class:`~repro.errors.BackendError` naming the ``repro[jit]``
extra.
"""

from __future__ import annotations

import numpy as np
from numba import njit, prange

from repro.batch.backend import FusedHooks

__all__ = ["NUMBA_HOOKS"]

#: Fibonacci-hash multiplier (0x9E3779B97F4A7C15 as signed int64) for the
#: open-addressing profile-code set in the dynamics cycle detector.
_HASH_MULT = -7046029254386353131


@njit(cache=True, parallel=True)
def _scatter_loads(sigma, weights, num_links):
    a, n = sigma.shape
    loads = np.zeros((a, num_links))
    for g in prange(a):
        for i in range(n):
            loads[g, sigma[g, i]] += weights[g, i]
    return loads


@njit(cache=True, parallel=True)
def _census_pure_nash(assignments, weights, capacities, traffic, tol, exists_only):
    b = weights.shape[0]
    p_total, n = assignments.shape
    m = capacities.shape[2]
    counts = np.zeros(b, dtype=np.int64)
    for g in prange(b):
        load = np.empty(m)
        c = 0
        for p in range(p_total):
            for link in range(m):
                load[link] = 0.0
            for i in range(n):
                load[assignments[p, i]] += weights[g, i]
            for link in range(m):
                load[link] += traffic[g, link]
            is_ne = True
            for i in range(n):
                li = assignments[p, i]
                cur = load[li] / capacities[g, i, li]
                scale = cur if cur > 1.0 else 1.0
                thresh = cur - tol * scale
                wi = weights[g, i]
                for link in range(m):
                    if link == li:
                        continue
                    if (load[link] + wi) / capacities[g, i, link] < thresh:
                        is_ne = False
                        break
                if not is_ne:
                    break
            if is_ne:
                c += 1
                if exists_only:
                    break
        counts[g] = c
    return counts


@njit(cache=True, parallel=True)
def _nashify_common(sigma, weights, capacities, caps_row, traffic, max_steps):
    b, n = sigma.shape
    m = caps_row.shape[1]
    steps = np.zeros(b, dtype=np.int64)
    converged = np.zeros(b, dtype=np.bool_)
    for g in prange(b):
        load = np.empty(m)
        improving = np.empty(n, dtype=np.bool_)
        for _ in range(max_steps):
            for link in range(m):
                load[link] = 0.0
            for i in range(n):
                load[sigma[g, i]] += weights[g, i]
            for link in range(m):
                load[link] += traffic[g, link]
            any_improving = False
            for i in range(n):
                li = sigma[g, i]
                cur = load[li] / capacities[g, i, li]
                scale = cur if cur > 1.0 else 1.0
                wi = weights[g, i]
                mn = cur
                for link in range(m):
                    if link != li:
                        d = (load[link] + wi) / capacities[g, i, link]
                        if d < mn:
                            mn = d
                improving[i] = mn < cur - 1e-9 * scale
                if improving[i]:
                    any_improving = True
            if not any_improving:
                converged[g] = True
                break
            cmax = load[0] / caps_row[g, 0]
            for link in range(1, m):
                cong = load[link] / caps_row[g, link]
                if cong > cmax:
                    cmax = cong
            worst_thresh = cmax * (1.0 - 1e-12)
            mover = -1
            for i in range(n):
                li = sigma[g, i]
                if improving[i] and load[li] / caps_row[g, li] >= worst_thresh:
                    mover = i
                    break
            if mover < 0:
                for i in range(n):
                    if improving[i]:
                        mover = i
                        break
            li = sigma[g, mover]
            wi = weights[g, mover]
            cur = load[li] / capacities[g, mover, li]
            target = 0
            if li == 0:
                best_val = cur
            else:
                best_val = (load[0] + wi) / capacities[g, mover, 0]
            for link in range(1, m):
                if link == li:
                    d = cur
                else:
                    d = (load[link] + wi) / capacities[g, mover, link]
                if d < best_val:
                    best_val = d
                    target = link
            sigma[g, mover] = target
            steps[g] += 1
    return sigma, steps, converged


@njit(cache=True, parallel=True)
def _dynamics(
    sigma,
    weights,
    capacities,
    traffic,
    radix,
    best,
    max_regret,
    max_steps,
    tol,
    detect_cycles,
    table_cap,
):
    b, n = sigma.shape
    m = capacities.shape[2]
    steps = np.zeros(b, dtype=np.int64)
    converged = np.zeros(b, dtype=np.bool_)
    cycled = np.zeros(b, dtype=np.bool_)
    mask = table_cap - 1
    for g in prange(b):
        load = np.empty(m)
        improving = np.empty(n, dtype=np.bool_)
        currents = np.empty(n)
        minima = np.empty(n)
        if detect_cycles:
            table = np.full(table_cap, -1, dtype=np.int64)
        else:
            table = np.empty(0, dtype=np.int64)
        for _ in range(max_steps):
            if detect_cycles:
                code = np.int64(0)
                for i in range(n):
                    code += sigma[g, i] * radix[i]
                slot = (code * _HASH_MULT) & mask
                revisited = False
                while True:
                    held = table[slot]
                    if held == -1:
                        table[slot] = code
                        break
                    if held == code:
                        revisited = True
                        break
                    slot = (slot + 1) & mask
                if revisited:
                    cycled[g] = True
                    break
            for link in range(m):
                load[link] = 0.0
            for i in range(n):
                load[sigma[g, i]] += weights[g, i]
            for link in range(m):
                load[link] += traffic[g, link]
            any_improving = False
            for i in range(n):
                li = sigma[g, i]
                cur = load[li] / capacities[g, i, li]
                wi = weights[g, i]
                mn = cur
                for link in range(m):
                    if link != li:
                        d = (load[link] + wi) / capacities[g, i, link]
                        if d < mn:
                            mn = d
                currents[i] = cur
                minima[i] = mn
                scale = cur if cur > 1.0 else 1.0
                improving[i] = mn < cur - tol * scale
                if improving[i]:
                    any_improving = True
            if not any_improving:
                converged[g] = True
                break
            mover = -1
            if max_regret:
                best_regret = -np.inf
                for i in range(n):
                    if improving[i]:
                        regret = currents[i] - minima[i]
                        if regret > best_regret:
                            best_regret = regret
                            mover = i
            else:
                for i in range(n):
                    if improving[i]:
                        mover = i
                        break
            li = sigma[g, mover]
            wi = weights[g, mover]
            cur = currents[mover]
            target = li
            if best:
                target = 0
                if li == 0:
                    best_val = cur
                else:
                    best_val = (load[0] + wi) / capacities[g, mover, 0]
                for link in range(1, m):
                    if link == li:
                        d = cur
                    else:
                        d = (load[link] + wi) / capacities[g, mover, link]
                    if d < best_val:
                        best_val = d
                        target = link
            else:
                scale = cur if cur > 1.0 else 1.0
                thresh = cur - tol * scale
                for link in range(m):
                    if link == li:
                        continue
                    if (load[link] + wi) / capacities[g, mover, link] < thresh:
                        target = link
                        break
            sigma[g, mover] = target
            steps[g] += 1
    return sigma, converged, steps, cycled


@njit(cache=True, parallel=True)
def _fixpoint(
    weights,
    capacities,
    traffic,
    tol,
    eta,
    log2_beta_max,
    max_rounds,
    stall_rounds,
    stall_rtol,
):
    b, n, m = capacities.shape
    p = np.full((b, n, m), 1.0 / m)
    rounds = np.zeros(b, dtype=np.int64)
    residuals = np.full(b, np.inf)
    converged = np.zeros(b, dtype=np.bool_)
    stalled = np.zeros(b, dtype=np.bool_)
    for g in prange(b):
        w_link = np.empty(m)
        lat = np.empty(m)
        grow = np.empty(m)
        best = np.inf
        since = 0
        log2beta = 0
        for k in range(max_rounds + 1):
            # Rebuild link traffic, users in index order (the parity
            # contract shared with the generic round loop).
            for link in range(m):
                w_link[link] = 0.0
            for i in range(n):
                wi = weights[g, i]
                for link in range(m):
                    w_link[link] = w_link[link] + p[g, i, link] * wi
            r = 0.0
            for i in range(n):
                wi = weights[g, i]
                mn = np.inf
                for link in range(m):
                    tw = traffic[g, link] + w_link[link]
                    val = ((1.0 - p[g, i, link]) * wi + tw) / capacities[
                        g, i, link
                    ]
                    lat[link] = val
                    if val < mn:
                        mn = val
                scale = mn if mn > 1.0 else 1.0
                for link in range(m):
                    if p[g, i, link] > 1e-12:
                        excess = (lat[link] - mn) / scale
                        if excess > r:
                            r = excess
            residuals[g] = r
            if r <= tol:
                converged[g] = True
                break
            if r < best * (1.0 - stall_rtol):
                best = r
                since = 0
            else:
                since += 1
            if since >= stall_rounds:
                stalled[g] = True
                break
            if k == max_rounds:
                break
            for u in range(n):
                wu = weights[g, u]
                mn = np.inf
                for link in range(m):
                    tw = traffic[g, link] + w_link[link]
                    val = ((1.0 - p[g, u, link]) * wu + tw) / capacities[
                        g, u, link
                    ]
                    lat[link] = val
                    if val < mn:
                        mn = val
                s = 0.0
                for link in range(m):
                    q = mn / lat[link]
                    for _ in range(log2beta):
                        q = q * q
                    gl = p[g, u, link] * q
                    grow[link] = gl
                    if link == 0:
                        s = gl
                    else:
                        s = s + gl
                for link in range(m):
                    old = p[g, u, link]
                    updated = (1.0 - eta) * old + eta * (grow[link] / s)
                    w_link[link] = w_link[link] + (updated - old) * wu
                    p[g, u, link] = updated
            rounds[g] += 1
            if log2beta < log2_beta_max:
                log2beta += 1
    return p, rounds, residuals, converged, stalled


@njit(cache=True, parallel=True)
def _census_cycle(assignments, weights, capacities, traffic, place, best, tol):
    b = weights.shape[0]
    p_total, n = assignments.shape
    m = capacities.shape[2]
    has_cycle = np.zeros(b, dtype=np.bool_)
    for g in prange(b):
        load = np.empty(m)
        indeg = np.zeros(p_total, dtype=np.int64)
        # Pass 1: in-degrees. Edges are recomputed on the fly in both
        # passes instead of materialising the flattened stack the
        # generic peel holds — O(P n m) work, O(P) memory per game.
        for p in range(p_total):
            for link in range(m):
                load[link] = 0.0
            for i in range(n):
                load[assignments[p, i]] += weights[g, i]
            for link in range(m):
                load[link] += traffic[g, link]
            for i in range(n):
                li = assignments[p, i]
                cur = load[li] / capacities[g, i, li]
                scale = cur if cur > 1.0 else 1.0
                thresh = cur - tol * scale
                wi = weights[g, i]
                if best:
                    mn = cur
                    for link in range(m):
                        if link != li:
                            d = (load[link] + wi) / capacities[g, i, link]
                            if d < mn:
                                mn = d
                    near = mn + tol * (mn if mn > 1.0 else 1.0)
                    for link in range(m):
                        if link == li:
                            continue
                        d = (load[link] + wi) / capacities[g, i, link]
                        if d < thresh and d <= near:
                            indeg[p + (link - li) * place[i]] += 1
                else:
                    for link in range(m):
                        if link == li:
                            continue
                        if (load[link] + wi) / capacities[g, i, link] < thresh:
                            indeg[p + (link - li) * place[i]] += 1
        # Pass 2: Kahn peel with edge recomputation.
        queue = np.empty(p_total, dtype=np.int64)
        tail = 0
        for p in range(p_total):
            if indeg[p] == 0:
                queue[tail] = p
                tail += 1
        head = 0
        removed = 0
        while head < tail:
            p = queue[head]
            head += 1
            removed += 1
            for link in range(m):
                load[link] = 0.0
            for i in range(n):
                load[assignments[p, i]] += weights[g, i]
            for link in range(m):
                load[link] += traffic[g, link]
            for i in range(n):
                li = assignments[p, i]
                cur = load[li] / capacities[g, i, li]
                scale = cur if cur > 1.0 else 1.0
                thresh = cur - tol * scale
                wi = weights[g, i]
                if best:
                    mn = cur
                    for link in range(m):
                        if link != li:
                            d = (load[link] + wi) / capacities[g, i, link]
                            if d < mn:
                                mn = d
                    near = mn + tol * (mn if mn > 1.0 else 1.0)
                    for link in range(m):
                        if link == li:
                            continue
                        d = (load[link] + wi) / capacities[g, i, link]
                        if d < thresh and d <= near:
                            dst = p + (link - li) * place[i]
                            indeg[dst] -= 1
                            if indeg[dst] == 0:
                                queue[tail] = dst
                                tail += 1
                else:
                    for link in range(m):
                        if link == li:
                            continue
                        if (load[link] + wi) / capacities[g, i, link] < thresh:
                            dst = p + (link - li) * place[i]
                            indeg[dst] -= 1
                            if indeg[dst] == 0:
                                queue[tail] = dst
                                tail += 1
        has_cycle[g] = removed < p_total
    return has_cycle


def _c_f64(arr) -> np.ndarray:
    return np.ascontiguousarray(arr, dtype=np.float64)


def _c_i64(arr) -> np.ndarray:
    return np.ascontiguousarray(arr, dtype=np.int64)


def scatter_loads(sigma, weights, num_links, initial_traffic=None):
    loads = _scatter_loads(_c_i64(sigma), _c_f64(weights), num_links)
    if initial_traffic is not None:
        loads += np.asarray(initial_traffic, dtype=np.float64)
    return loads


def count_pure_nash(assignments, weights, capacities, traffic, tol):
    return _census_pure_nash(
        _c_i64(assignments),
        _c_f64(weights),
        _c_f64(capacities),
        _c_f64(traffic),
        float(tol),
        False,
    )


def exists_pure_nash(assignments, weights, capacities, traffic, tol):
    counts = _census_pure_nash(
        _c_i64(assignments),
        _c_f64(weights),
        _c_f64(capacities),
        _c_f64(traffic),
        float(tol),
        True,
    )
    return counts > 0


def nashify_common_loop(sigma, weights, capacities, caps_row, traffic, max_steps):
    out, steps, converged = _nashify_common(
        _c_i64(sigma),
        _c_f64(weights),
        _c_f64(capacities),
        _c_f64(caps_row),
        _c_f64(traffic),
        int(max_steps),
    )
    return out.astype(np.intp, copy=False), steps, converged


def dynamics_loop(
    sigma,
    weights,
    capacities,
    traffic,
    best,
    max_regret,
    max_steps,
    tol,
    detect_cycles,
):
    n = sigma.shape[1]
    m = capacities.shape[2]
    if detect_cycles and m**n >= 2**63:
        # Profile codes overflow int64; decline so the generic
        # byte-hash lockstep path handles these enormous games.
        return None
    radix = np.power(np.int64(m), np.arange(n, dtype=np.int64))
    # Open-addressing set capacity: power of two, load factor <= 0.5
    # for the at most min(max_steps, m^n) + 1 codes a trajectory can
    # insert before terminating.
    entries = min(int(max_steps), m**n) + 2
    cap = 2
    while cap < 2 * entries:
        cap <<= 1
    out, converged, steps, cycled = _dynamics(
        _c_i64(sigma),
        _c_f64(weights),
        _c_f64(capacities),
        _c_f64(traffic),
        radix,
        bool(best),
        bool(max_regret),
        int(max_steps),
        float(tol),
        bool(detect_cycles),
        cap,
    )
    return out.astype(np.intp, copy=False), converged, steps, cycled


def fixpoint_loop(
    weights,
    capacities,
    traffic,
    tol,
    eta,
    log2_beta_max,
    max_rounds,
    stall_rounds,
    stall_rtol,
):
    return _fixpoint(
        _c_f64(weights),
        _c_f64(capacities),
        _c_f64(traffic),
        float(tol),
        float(eta),
        int(log2_beta_max),
        int(max_rounds),
        int(stall_rounds),
        float(stall_rtol),
    )


def census_cycle(assignments, weights, capacities, traffic, best, tol):
    n = assignments.shape[1]
    m = capacities.shape[2]
    place = np.power(np.int64(m), np.arange(n - 1, -1, -1, dtype=np.int64))
    return _census_cycle(
        _c_i64(assignments),
        _c_f64(weights),
        _c_f64(capacities),
        _c_f64(traffic),
        place,
        bool(best),
        float(tol),
    )


NUMBA_HOOKS = FusedHooks(
    scatter_loads=scatter_loads,
    count_pure_nash=count_pure_nash,
    exists_pure_nash=exists_pure_nash,
    nashify_common_loop=nashify_common_loop,
    dynamics_loop=dynamics_loop,
    census_cycle=census_cycle,
    fixpoint_loop=fixpoint_loop,
)
