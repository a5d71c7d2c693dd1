"""Improvement-cycle realisability analysis (Section 3.2's negative side).

The paper reports (B. Monien, personal communication [19]) that some
instance's state space contains an improvement cycle, so the game is not
an ordinal potential game. The instance itself is not reprinted, so this
module provides the machinery to *search* for one, exactly:

A cyclic sequence of unilateral moves fixes, for each participating user,
difference constraints on log effective capacities: moving user ``i``
from link ``a`` to ``b`` while the origin load (mover included) is
``L_old`` and the arrival load (mover included) is ``L_new`` strictly
improves iff

    log C[i,b] - log C[i,a] > log(L_new / L_old).

Summing a user's constraints around each loop of its own moves makes the
capacity terms telescope away, so the cycle is realisable by *some*
capacity matrix iff every such loop has negative total log-load-ratio —
checked exactly by :func:`realize_cycle`, which also reconstructs a
witness capacity matrix by longest-path labelling when feasible. The
search decides it for blocks of (cycle, weight draw) pairs with arrays.

Two structural facts the library establishes with this machinery:

* for **equal weights** no improvement cycle exists at all (the ordinal
  potential of :func:`repro.equilibria.potential.ordinal_potential_symmetric`);
* for (n=3, m=3) **every simple cycle of length <= 6 is unrealisable**
  regardless of the capacity matrix (checked against the per-user loop
  criterion over weight draws; see experiment E6) — Monien's cycle needs
  longer loops, more users, or initial traffic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import networkx as nx
import numpy as np

from repro.batch.container import GameBatch
from repro.batch.pure import batch_response_cycle_census
from repro.model.game import UncertainRoutingGame
from repro.equilibria.game_graph import better_response_graph, find_response_cycle
from repro.util.rng import RandomState, as_generator

__all__ = [
    "CycleSearchResult",
    "realize_cycle",
    "abstract_move_graph",
    "response_cycle_census",
    "search_improvement_cycle_instance",
]

#: Cycles per batched feasibility block: bounds the ``(C, D, n, m, m)``
#: max-plus tensor whatever ``max_cycles`` is.
_CYCLE_CHUNK = 512


def response_cycle_census(
    games: Sequence[UncertainRoutingGame] | GameBatch,
    *,
    kind: str = "better",
    tol: float = 1e-9,
) -> np.ndarray:
    """Per-game response-cycle verdicts for a stack of same-shape games.

    The census half of this module: instead of materialising one
    :class:`networkx.DiGraph` per instance, the whole stack's
    best-/better-response edges are extracted vectorised and peeled by
    one Kahn pass (:func:`repro.batch.pure.batch_response_cycle_census`);
    a single game is just the ``B = 1`` slice. Returns ``(B,)`` bools —
    ``True`` where the instance contains a response cycle, i.e. (for
    ``kind="better"``) where it cannot admit an ordinal potential.
    """
    batch = games if isinstance(games, GameBatch) else GameBatch.from_games(games)
    return batch_response_cycle_census(batch, kind=kind, tol=tol)  # type: ignore[arg-type]


def abstract_move_graph(num_users: int, num_links: int) -> nx.DiGraph:
    """All pure states with an edge for every unilateral move."""
    g = nx.DiGraph()
    for state in itertools.product(range(num_links), repeat=num_users):
        for user in range(num_users):
            for link in range(num_links):
                if link == state[user]:
                    continue
                succ = list(state)
                succ[user] = link
                g.add_edge(state, tuple(succ))
    return g


def realize_cycle(
    states: Sequence[tuple[int, ...]],
    weights: Sequence[float] | np.ndarray,
    num_links: int,
    *,
    margin: float = 0.05,
) -> np.ndarray | None:
    """Capacities making *states* a better-response cycle, or ``None``.

    *states* must be a closed walk (``states[0] == states[-1]``) whose
    consecutive entries differ in exactly one coordinate. The returned
    ``(n, m)`` matrix realises every move as a strict improvement; ``None``
    means the cycle is unrealisable for these weights (the exact loop
    criterion failed).
    """
    w = np.asarray(weights, dtype=np.float64)
    n = w.size
    if len(states) < 3 or states[0] != states[-1]:
        return None
    gaps: dict[int, list[tuple[int, int, float]]] = {i: [] for i in range(n)}
    for s, t in zip(states, states[1:]):
        diff = [k for k in range(n) if s[k] != t[k]]
        if len(diff) != 1:
            return None
        user = diff[0]
        a, b = s[user], t[user]
        loads = np.bincount(s, weights=w, minlength=num_links)
        gaps[user].append(
            (a, b, float(np.log((loads[b] + w[user]) / loads[a])))
        )

    caps = np.ones((n, num_links))
    neg_inf = -np.inf
    for i in range(n):
        if not gaps[i]:
            continue
        # Dense max-plus adjacency: weight[a, b] = required log-capacity gap.
        weight = np.full((num_links, num_links), neg_inf)
        for a, b, c in gaps[i]:
            weight[a, b] = max(weight[a, b], c)
        # Exact criterion: every directed loop must have strictly negative
        # total. Max-plus Floyd-Warshall finds the heaviest closed walk;
        # any diagonal >= 0 certifies a non-negative loop.
        dist = weight.copy()
        for k in range(num_links):
            dist = np.maximum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
        if np.any(np.diag(dist) >= -1e-12):
            return None
        # Longest-path labelling with a strict margin realises the strict
        # inequalities; Bellman-Ford style relaxation terminates because
        # all loops are negative.
        x = np.zeros(num_links)
        edges = [(a, b, c) for a, b, c in gaps[i]]
        for _ in range(num_links + 2):
            changed = False
            for a, b, c in edges:
                need = x[a] + c + margin
                if x[b] < need:
                    x[b] = need
                    changed = True
            if not changed:
                break
        else:  # pragma: no cover - negative loops guarantee termination
            return None
        caps[i] = np.exp(x)
    return caps


def _user_loops_negative(
    cycles: Sequence[Sequence[tuple[int, ...]]],
    draws: np.ndarray,
    num_links: int,
) -> np.ndarray:
    """:func:`realize_cycle`'s loop criterion per (cycle, draw, user).

    *cycles* are closed unilateral walks, *draws* a ``(D, n)`` weight
    stack. Returns ``(C, D, n)`` bools, ``True`` where all of the user's
    loops are strictly negative; the float operations are
    :func:`realize_cycle`'s, so a pair is realisable iff its row is all
    ``True``.
    """
    num_draws, n = draws.shape
    src = np.array([s for cyc in cycles for s in cyc[:-1]], dtype=np.intp)
    dst = np.array([s for cyc in cycles for s in cyc[1:]], dtype=np.intp)
    owner = np.repeat(np.arange(len(cycles)), [len(cyc) - 1 for cyc in cycles])
    steps = np.arange(src.shape[0])
    user = np.argmax(src != dst, axis=1)
    a, b = src[steps, user], dst[steps, user]
    # (S, D, m) origin-state loads, users added in index order as
    # np.bincount does (the other terms are exact zeros).
    links = np.arange(num_links)
    loads = np.zeros((steps.size, num_draws, num_links))
    for k in range(n):
        loads += draws[None, :, k, None] * (src[:, None, k, None] == links)
    mover = draws[:, user].T
    gap = np.log((loads[steps, :, b] + mover) / loads[steps, :, a])
    dist = np.full((len(cycles), num_draws, n, num_links, num_links), -np.inf)
    at = (owner[:, None], np.arange(num_draws), user[:, None], a[:, None], b[:, None])
    np.maximum.at(dist, at, gap)
    for k in range(num_links):
        dist = np.maximum(dist, dist[..., :, k : k + 1] + dist[..., k : k + 1, :])
    return ~np.any(np.diagonal(dist, axis1=-2, axis2=-1) >= -1e-12, axis=-1)


@dataclass(frozen=True)
class CycleSearchResult:
    """Outcome of an improvement-cycle search."""

    found: bool
    cycles_tested: int
    game: UncertainRoutingGame | None = None
    cycle: list[tuple[int, ...]] | None = None


def search_improvement_cycle_instance(
    num_users: int = 3,
    num_links: int = 3,
    *,
    max_cycle_length: int = 6,
    weight_draws: int = 12,
    max_cycles: int = 50_000,
    seed: RandomState = 0,
) -> CycleSearchResult:
    """Exhaustively test short move cycles for realisability.

    Enumerates at most *max_cycles* simple cycles of the abstract move
    graph up to *max_cycle_length* and tries to realise each with
    *weight_draws* weight vectors drawn uniformly from ``[0.2, 5.0]``.
    Returns the first realised instance in (cycle, draw) order, verified
    against the actual better-response graph; ``cycles_tested`` counts
    the cycles tested, that one included.
    """
    rng = as_generator(seed)
    draws = rng.uniform(0.2, 5.0, size=(weight_draws, num_users))
    cycles = nx.simple_cycles(
        abstract_move_graph(num_users, num_links), length_bound=max_cycle_length
    )
    tested = 0
    while tested < max_cycles:
        size = min(_CYCLE_CHUNK, max_cycles - tested)
        block = [cyc + [cyc[0]] for cyc in itertools.islice(cycles, size)]
        if not block:
            break
        feasible = _user_loops_negative(block, draws, num_links).all(axis=2)
        for c, d in np.argwhere(feasible).tolist():
            caps = realize_cycle(block[c], draws[d], num_links)
            game = UncertainRoutingGame.from_capacities(draws[d], caps)
            # The batched census decides cycle existence without building
            # a graph; the (rare) hit then materialises the graph once to
            # extract an explicit witness walk.
            if not response_cycle_census([game], kind="better")[0]:
                continue
            witness = find_response_cycle(better_response_graph(game))
            if witness is not None:  # pragma: no branch - census said so
                return CycleSearchResult(
                    found=True, cycles_tested=tested + c + 1, game=game, cycle=witness
                )
        tested += len(block)
    return CycleSearchResult(found=False, cycles_tested=tested)
