"""Algorithm ``Auniform`` (Figure 3): pure NE under uniform user beliefs.

The *uniform user beliefs* model has every user believing all links have
equal capacity: the reduced form satisfies ``c^l_i = c_i`` for all ``l``.
Latency comparisons across links then reduce to load comparisons, and the
paper adapts the greedy of Fotakis et al. (itself a variant of Graham's
LPT): process users in decreasing weight order, placing each on the link
minimising ``(w_k + t_l) / c_k`` — i.e. the least-loaded link — and add
its weight to that link's initial traffic.

Theorem 3.6 proves the result is a pure Nash equilibrium and bounds the
running time by O(n (log n + m)); the implementation sorts once and keeps
per-link running loads. :func:`auniform_counted` tallies that work: ``m``
link scans per user plus a charge of ``ceil(n log2 n)`` for the stable
sort (its comparison count up to a constant; NumPy's sort does not report
its own), so an ``n``-user game costs exactly ``n m + ceil(n log2 n)``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import AlgorithmDomainError
from repro.model.game import UncertainRoutingGame
from repro.model.profiles import PureProfile

__all__ = ["auniform", "auniform_counted"]


def auniform(game: UncertainRoutingGame) -> PureProfile:
    """Compute a pure Nash equilibrium of a uniform-beliefs game.

    Supports arbitrary initial link traffic ``t``. Raises
    :class:`~repro.errors.AlgorithmDomainError` when some user's effective
    capacities differ across links (the model's defining requirement).
    """
    return auniform_counted(game)[0]


def auniform_counted(game: UncertainRoutingGame) -> tuple[PureProfile, int]:
    """:func:`auniform` plus its operation count (see the module doc)."""
    if not game.has_uniform_beliefs():
        raise AlgorithmDomainError(
            "auniform requires uniform user beliefs "
            "(each user's effective capacity equal on all links)"
        )
    n, m = game.num_users, game.num_links
    w = game.weights
    order = np.argsort(-w, kind="stable")  # decreasing weights, stable ties
    operations = math.ceil(n * math.log2(n))
    loads = game.initial_traffic.copy()
    sigma = np.empty(n, dtype=np.intp)
    for user in order:
        # (w_u + t_l)/c_u is minimised by the least-loaded link; computing
        # the quotient keeps the code literally Figure 3's step 4(a).
        link = int(np.argmin((w[user] + loads) / game.capacities[user, 0]))
        sigma[user] = link
        loads[link] += w[user]
        operations += loads.size
    return PureProfile(sigma, m), operations
