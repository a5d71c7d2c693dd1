"""Algorithm ``Atwolinks`` (Figure 1): pure NE for two links in O(n^2).

The paper's Definition 3.1 associates with each user ``i`` and link ``j``
a *tolerance* ``alpha^j_i`` — the largest total load on link ``j`` that
user ``i`` accepts while routing there, given that the remaining load
``T - alpha^j_i`` sits on the other link. Solving the defining balance
equation yields the closed form of Figure 1:

    alpha^j_i = (c^1_i c^2_i / (c^1_i + c^2_i))
                * ((t_{j+1} + T + w_i) / c^{j+1}_i  -  t_j / c^j_i)

(indices mod 2). Lemma 3.2 shows the tolerance exactly captures the Nash
condition, and the greedy "place the most tolerant user on its preferred
link, then recurse with that link's initial traffic increased" is proven
to return a pure Nash equilibrium (Theorem 3.3).

The recursion is implemented iteratively: each round recomputes the
remaining users' tolerances against the updated initial traffic ``t`` and
the shrunken total ``T``, which is the O(n) work of the O(n^2) bound.
:func:`atwolinks_counted` tallies that work as it goes: one operation per
tolerance entry evaluated (two per remaining user per round, counted per
element although the pass is one NumPy kernel) plus one per move, so an
``n``-user game costs exactly ``n(n + 1) + n``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import AlgorithmDomainError
from repro.model.game import UncertainRoutingGame
from repro.model.profiles import PureProfile

__all__ = ["tolerances", "atwolinks", "atwolinks_counted"]


def tolerances(
    game: UncertainRoutingGame,
    *,
    initial_traffic: np.ndarray | None = None,
    total_traffic: float | None = None,
    users: np.ndarray | None = None,
) -> np.ndarray:
    """Tolerance matrix ``alpha[u, j]`` of Definition 3.1.

    Parameters mirror the recursion of Figure 1: *initial_traffic* and
    *total_traffic* default to the game's own ``t`` and ``T``; *users*
    restricts the computation to a subset (rows are returned in the order
    given).
    """
    if game.num_links != 2:
        raise AlgorithmDomainError(
            f"tolerances are defined for m=2 links, game has m={game.num_links}"
        )
    t = game.initial_traffic if initial_traffic is None else np.asarray(initial_traffic, dtype=np.float64)
    T = game.total_traffic if total_traffic is None else float(total_traffic)
    idx = np.arange(game.num_users) if users is None else np.asarray(users, dtype=np.intp)
    c = game.capacities[idx]  # (k, 2)
    w = game.weights[idx]  # (k,)
    harmonic = (c[:, 0] * c[:, 1]) / (c[:, 0] + c[:, 1])  # c1*c2/(c1+c2)
    alpha = np.empty((idx.size, 2))
    for j in (0, 1):
        other = 1 - j
        alpha[:, j] = harmonic * ((t[other] + T + w) / c[:, other] - t[j] / c[:, j])
    return alpha


def atwolinks(game: UncertainRoutingGame) -> PureProfile:
    """Compute a pure Nash equilibrium of a two-link game (Theorem 3.3).

    Supports arbitrary initial link traffic ``t`` (taken from the game).
    Runs in O(n^2): n rounds, each recomputing the O(n) tolerance matrix
    of the remaining users.
    """
    return atwolinks_counted(game)[0]


def atwolinks_counted(game: UncertainRoutingGame) -> tuple[PureProfile, int]:
    """:func:`atwolinks` plus its operation count (see the module doc)."""
    if game.num_links != 2:
        raise AlgorithmDomainError(
            f"atwolinks requires m=2 links, game has m={game.num_links}"
        )
    n = game.num_users
    w = game.weights
    t = game.initial_traffic.copy()
    remaining = np.arange(n)
    T = game.total_traffic
    sigma = np.empty(n, dtype=np.intp)
    operations = 0

    while remaining.size > 0:
        alpha = tolerances(
            game, initial_traffic=t, total_traffic=T, users=remaining
        )
        preferred = np.argmax(alpha, axis=1)  # each user's preferred link
        best_alpha = alpha[np.arange(remaining.size), preferred]
        pick = int(np.argmax(best_alpha))  # user with the highest tolerance
        user = int(remaining[pick])
        link = int(preferred[pick])
        sigma[user] = link
        t[link] += w[user]
        T -= w[user]
        remaining = np.delete(remaining, pick)
        operations += alpha.size + 1  # tolerance entries, then the move

    return PureProfile(sigma, 2), operations
