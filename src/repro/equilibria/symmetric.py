"""Algorithm ``Asymmetric`` (Figure 2): pure NE for symmetric users.

The paper's second special case assumes identical weights (the proof takes
``w_i = 1`` without loss of generality, because a common weight scales all
of a user's link latencies equally and so never changes preferences). The
algorithm inserts users one at a time:

* user ``i`` joins the link minimising ``(|N_l| + 1) / c^l_i``;
* the insertion may dissatisfy users on the receiving link only; a chain
  of defections follows the link that just grew (step 3(c)), and by
  Lemma 3.4 every user defects at most once per insertion, so each round
  ends within ``i`` moves.

Total complexity O(n^2 m) (Theorem 3.5). The implementation tracks link
occupancy counts and performs the defection chain exactly as stated: it
repeatedly scans the just-grown link for a defector and moves it to its
best response. :func:`asymmetric_counted` tallies the work as it goes:
``members x m`` per defector scan of the grown link (every member's
latency on every link) plus one per move, the insertion included.
"""

from __future__ import annotations

import numpy as np

from repro.errors import AlgorithmDomainError, SolverError
from repro.model.game import UncertainRoutingGame
from repro.model.profiles import PureProfile

__all__ = ["asymmetric", "asymmetric_counted"]


def asymmetric(game: UncertainRoutingGame, *, tol: float = 1e-12) -> PureProfile:
    """Compute a pure Nash equilibrium of a symmetric-users game.

    Raises :class:`~repro.errors.AlgorithmDomainError` when weights are not
    all equal or when the game carries initial link traffic (the paper's
    construction and its counting argument assume an empty network).
    """
    return asymmetric_counted(game, tol=tol)[0]


def asymmetric_counted(
    game: UncertainRoutingGame, *, tol: float = 1e-12
) -> tuple[PureProfile, int]:
    """:func:`asymmetric` plus its operation count (see the module doc)."""
    if not game.has_symmetric_users():
        raise AlgorithmDomainError("asymmetric requires all user weights equal")
    if np.any(game.initial_traffic > 0):
        raise AlgorithmDomainError(
            "asymmetric does not support initial link traffic"
        )
    n, m = game.num_users, game.num_links
    caps = game.capacities  # (n, m); weights cancel inside comparisons
    counts = np.zeros(m)
    sigma = np.full(n, -1, dtype=np.intp)
    operations = 0

    for user in range(n):
        # Step 3(a)-(b): place the new user on its subjectively best link.
        link = int(np.argmin((counts + 1.0) / caps[user]))
        sigma[user] = link
        counts[link] += 1.0
        operations += 1

        # Step 3(c): defection chain along the link that just grew.
        grown = link
        moves = 0
        while True:
            members = np.flatnonzero(sigma[: user + 1] == grown)
            if members.size == 0:
                break
            # A member k defects iff some other link offers strictly
            # smaller latency: counts[grown]/c > (counts[l'] + 1)/c'.
            current = counts[grown] / caps[members, grown]
            alt = (counts[None, :] + 1.0) / caps[members]
            operations += alt.size
            alt[:, grown] = np.inf  # moving "to the same link" is not a move
            best_alt = alt.min(axis=1)
            defectors = np.flatnonzero(best_alt < current * (1.0 - tol))
            if defectors.size == 0:
                break
            k = int(members[defectors[0]])
            new_link = int(np.argmin(alt[defectors[0]]))
            counts[grown] -= 1.0
            counts[new_link] += 1.0
            sigma[k] = new_link
            grown = new_link
            moves += 1
            operations += 1
            # Lemma 3.4: at most user + 1 moves per insertion round; the
            # guard only trips on a correctness bug.
            if moves > user + 1:
                raise SolverError(
                    "defection chain exceeded the theoretical bound of "
                    f"{user + 1} moves — numerical tolerance too loose?"
                )

    return PureProfile(sigma, m), operations
