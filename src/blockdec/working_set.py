"""Working-set selection: uniform random, greedy, and mixed strategies.

The mixed strategy ("R i G j" in the command-line naming) takes the j
coordinates with the best one-coordinate improvement scores and fills the
rest of the block with i coordinates drawn uniformly from the remainder.
Ranking is O(n) (a partition, then a sort of the j best keys and any that
tie with the j-th), and the decomposition loop ranks once per point it visits: the
greedy picks depend only on x and its gradient, so iterations that leave x
unchanged reuse them and only draw the random part afresh.
"""

import numpy as np

from .errors import InvalidParameterError
from .problem import L0Penalty, _as_vector, require_l0_term
from .prox import smallest_k


def random_set(n, k, rng):
    """Draw k distinct coordinates uniformly over all C(n, k) combinations.

    Returns them as a sorted int array.
    """
    if not 1 <= k <= n:
        raise InvalidParameterError(f"working-set size {k} outside [1, {n}]")
    return np.sort(rng.choice(n, size=k, replace=False))


def greedy_scores(prob, x, g):
    """Score every coordinate by its best single-coordinate move; g is grad f(x).

    Returns one length-n array; lower scores are more attractive moves.
    For a zero coordinate i with gradient g_i and curvature q_i = Q_ii, the
    best activation changes f by -g_i^2/(2 q_i); under the count penalty the
    move also pays lam, and a move is never worse than staying put, so the
    score is clipped at 0.  A flat zero coordinate with a slope scores -inf
    (unbounded descent).  For a nonzero coordinate j, the score is the exact
    change in F from setting x_j to 0.
    """
    term = prob.term
    require_l0_term(term, "greedy scoring")
    x, g = _as_vector(x, prob.n), _as_vector(g, prob.n, "g")
    q = prob.objective.coordinate_lipschitz()
    with np.errstate(divide="ignore", invalid="ignore"):
        drop = np.where(q > 0.0, -g * g / (2.0 * q), np.where(g != 0.0, -np.inf, 0.0))
    change = -x * g + 0.5 * x * x * q
    if isinstance(term, L0Penalty):
        activate = term.lam + drop
        drop = np.where(activate < 0.0, activate, 0.0)
        change = change - term.lam
    return np.where(x == 0.0, drop, change)


def greedy_picks(prob, x, g, n_greedy):
    """The n_greedy coordinates with the smallest greedy scores, ties to the lower index.

    Returned in rank order; g is grad f(x) and 1 <= n_greedy <= n.
    """
    return smallest_k(greedy_scores(prob, x, g), n_greedy)


def select_working_set(prob, x, g, n_random, n_greedy, rng, greedy=None):
    """Pick n_greedy coordinates by greedy score, n_random uniformly; g is grad f(x).

    The n_greedy coordinates with the smallest ``greedy_scores`` win (ties
    by lower index); ``greedy`` may carry them, as ``greedy_picks`` returned
    them for this x, to skip the ranking.  The random part is drawn without
    replacement from the remaining coordinates in ascending order.  Returns
    a sorted int array.  A full-size request short-circuits to the complete
    index set without consuming randomness.
    """
    n = prob.n
    if n_random < 0 or n_greedy < 0:
        raise InvalidParameterError("working-set sizes must be nonnegative")
    k = n_random + n_greedy
    if not 1 <= k <= n:
        raise InvalidParameterError(f"total working-set size {k} outside [1, {n}]")
    if k == n:
        return np.arange(n)

    taken = np.zeros(n, dtype=bool)
    if n_greedy > 0:
        taken[greedy_picks(prob, x, g, n_greedy) if greedy is None else greedy] = True
    if n_random > 0:
        pool = np.flatnonzero(~taken)
        taken[pool[rng.choice(pool.size, size=n_random, replace=False)]] = True
    return np.flatnonzero(taken)
