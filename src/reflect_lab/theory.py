"""Closed-form accuracy theory for the synthetic self-verification model.

The model: solving a scale-n problem takes n consecutive steps.  At an
on-track ("positive") state the policy proposes a step that stays on track
with probability mu; a verifier rejects on-track steps with probability
e_minus and accepts derailing steps with probability e_plus.  At a derailed
("negative") state every proposal derails further and is rejected with
probability f.  Rejected proposals are retried in place (unbounded retries)
or, under width-limited backtracking, charged against a per-state attempt
cap m with failures propagating to the parent state.

Everything here is exact arithmetic on those transition rates: success
probabilities for the plain, retry-in-place, and backtracking executors,
the recursion behind the backtracking curve (one `RtbsTable` type, which
carries the curve itself), asymptotic comparison predicates and expected
solution length.  The rates may depend on how many attempts a state has
already consumed (`PosteriorParams`, "posterior" rates); constant rates are
its one-entry table (`PosteriorParams.constant`).  The success curves take
either kind and read it as a table (`rate_table`), so the rates, the retry
law and the backtracking recursion are each written once.  Retry
probabilities divide by beta + gamma rather than 1 - alpha, which cancels
when alpha is close to one.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import astuple, dataclass
from fractions import Fraction
from functools import cached_property
from typing import TypeVar

import numpy as np

_BISECT_TOL = 1e-12
_Rate = TypeVar("_Rate", float, Fraction)


def _check_prob(name: str, value: float) -> None:
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")


@dataclass(frozen=True)
class SimplifiedParams:
    """Rates of the synthetic model.

    mu: chance a proposal from an on-track state stays on track.
    e_minus: chance the verifier rejects an on-track proposal (false alarm).
    e_plus: chance the verifier accepts a derailing proposal (miss).
    f: chance the verifier rejects any proposal at a derailed state.
    alpha, beta, gamma: the branch rates these induce (`_branch_rates`).
    """

    mu: float
    e_minus: float
    e_plus: float
    f: float

    def __post_init__(self) -> None:
        for name in ("mu", "e_minus", "e_plus", "f"):
            _check_prob(name, getattr(self, name))

    @property
    def alpha(self) -> float:
        return _branch_rates(self.mu, self.e_minus, self.e_plus)[0]

    @property
    def beta(self) -> float:
        return _branch_rates(self.mu, self.e_minus, self.e_plus)[1]

    @property
    def gamma(self) -> float:
        return _branch_rates(self.mu, self.e_minus, self.e_plus)[2]


def _branch_rates(mu: _Rate, e_minus: _Rate, e_plus: _Rate) -> tuple[_Rate, _Rate, _Rate]:
    """(alpha, beta, gamma), the branch probabilities of one proposal at an
    on-track state; the three sum to one.

    alpha: proposal rejected (either kind), state unchanged.
    beta: on-track step accepted, chain advances correctly.
    gamma: derailing step accepted, chain derails.
    Floats give floats and Fractions give exact Fractions.
    """
    return mu * e_minus + (1 - mu) * (1 - e_plus), mu * (1 - e_minus), (1 - mu) * e_plus


def rate_table(rates: SimplifiedParams | PosteriorParams) -> PosteriorParams:
    """The per-attempt table of rates: constant rates are its one-entry case."""
    return rates if isinstance(rates, PosteriorParams) else PosteriorParams.constant(rates)


def rho_nonreflective(rates: SimplifiedParams | PosteriorParams, n: int) -> float:
    """Success probability of the unverified chain: n first attempts on track."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return rate_table(rates).mu[0] ** n


def rho_rmtp(rates: SimplifiedParams | PosteriorParams, n: int) -> float:
    """Success probability of retry-in-place with unbounded attempts: the
    per-advance success rate (_rmtp_advance_rate) to the n-th power, as a
    single accepted derail is unrecoverable.  Warns when no attempt can
    accept a proposal."""
    if n < 0:
        raise ValueError("n must be >= 0")
    table = rate_table(rates)
    if n > 0 and all(b + g <= 0.0 for b, g in zip(table.beta, table.gamma)):
        warnings.warn(
            "every proposal is rejected (alpha = 1); the chain never advances",
            RuntimeWarning,
            stacklevel=2,
        )
    return _rmtp_advance_rate(table) ** n


def log_rho_rmtp(rates: SimplifiedParams | PosteriorParams, n: int) -> float:
    """log of rho_rmtp, safe for n large enough to underflow the product."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return 0.0
    rate = _rmtp_advance_rate(rate_table(rates))
    return n * math.log(rate) if rate > 0.0 else -math.inf


def _geometric_sum(ratio: float, terms: int) -> float:
    """sum_{i=0}^{terms-1} ratio^i with the ratio-one singularity removed."""
    if ratio <= 0.0:
        return 1.0
    if ratio >= 1.0:
        return float(terms)
    # 1 - ratio**terms via expm1 to keep precision when ratio is near one.
    return -math.expm1(terms * math.log(ratio)) / (1.0 - ratio)


@dataclass(frozen=True)
class RtbsTable:
    """Recursion values for width-m backtracking, indexed by scale 0..n_max.

    delta[t]: chance one attempt at an on-track scale-t state fails
        (instant rejection, or acceptance whose subtree later fails), one
        column per distinct attempt rate: shape (n_max+1, L) with
        L = min(m, table length), so a constant-rate table has one column.
    epsilon[t]: same for a derailed scale-t state.
    sigma[t]: chance a scale-t state advances on track within its m
        attempts.
    rho[n]: the backtracking success probability at scale n, the product
        of sigma over scales 1..n multiplied in scale order (rho[0] = 1).
    """

    delta: np.ndarray
    epsilon: np.ndarray
    sigma: np.ndarray

    @cached_property
    def rho(self) -> np.ndarray:
        return np.cumprod(np.concatenate(([1.0], self.sigma[1:])))


def rho_rtbs(rates: SimplifiedParams | PosteriorParams, m: int, n: int) -> float:
    """Success probability of width-m backtracking at scale n.

    Every state, the root included, is charged at most m attempts.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return float(rtbs_table(rates, m, n).rho[n])


def log_rho_rtbs(rates: SimplifiedParams | PosteriorParams, m: int, n: int) -> float:
    """log of rho_rtbs, safe for large n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    table = rtbs_table(rates, m, n)
    sig = table.sigma[1 : n + 1]
    if np.any(sig <= 0.0):
        return -math.inf
    return float(np.sum(np.log(sig)))


def rmtp_improves(params: SimplifiedParams) -> bool:
    """Retry-in-place beats (or ties) the plain chain iff the two verifier
    error rates sum to at most one.  At mu in {0, 1} the two tie whenever a
    proposal can be accepted."""
    return params.e_minus + params.e_plus <= 1.0


def rtbs_asymptotically_beats_rmtp(params: SimplifiedParams, m: int) -> bool:
    """Width-m backtracking eventually beats retry-in-place iff derailed
    states are rejected more often than on-track attempts fail (f > alpha)
    and the width exceeds the mean retry count 1/(1 - alpha).

    Both rates beta and gamma must also be positive.  With gamma = 0 retry
    never derails, so rho_rmtp(n) = 1 at every n while every capped width
    stays below 1; with beta = 0 neither executor ever advances and both
    curves are 0.

    Every comparison is exact, with each rate read as its shortest decimal
    (0.1 is 1/10), so a tie f = alpha, where the curves settle at a ratio
    below one, is never decided by rounding.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    mu, e_minus, e_plus, f = (Fraction(repr(float(x))) for x in astuple(params))
    alpha, beta, gamma = _branch_rates(mu, e_minus, e_plus)
    return beta > 0 and gamma > 0 and f > alpha and m * (1 - alpha) > 1


def crossover_scan(params: SimplifiedParams, m: int, n_max: int) -> int | None:
    """First scale n <= n_max at which width-m backtracking's curve exceeds
    retry-in-place's, or None if it does not by n_max.

    The scan starts at n = 2: at n = 1 an accepted step ends the episode,
    so backtracking is retry capped at m attempts, and
    rho_rtbs(1) = beta (1 + alpha + ... + alpha^(m-1)) <= beta / (1 - alpha)
    = rho_rmtp(1), equal only when alpha = 0 or beta = 0.  The floats can
    still say otherwise at large widths.

    From n = 2 on the curves are compared as floats.  Where they agree to
    within rounding (at large widths such as m = 64 they can differ by
    about 1e-16), rounding decides the comparison, so the scale is not
    determined there.
    """
    rho = rtbs_table(params, m, n_max).rho
    return next((n for n in range(2, n_max + 1) if rho[n] > rho_rmtp(params, n)), None)


def expected_solution_length(params: SimplifiedParams, n: int) -> float:
    """Mean number of proposals in a retry-in-place run that ends correctly.

    Each of the n advances costs a geometric number of attempts with success
    rate 1 - alpha.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    denom = params.beta + params.gamma  # 1 - alpha, without the cancellation
    if denom <= 0.0:
        raise ValueError(
            "every proposal is rejected; a correct answer is never reached"
        )
    return n / denom


def sigma_stability_band(params: SimplifiedParams) -> tuple[float, float]:
    """Width interval [1/beta, 1/(1-f)] on which the per-scale advance
    probability sigma converges to one as the scale grows.

    Raises when beta is zero or when the interval is empty (beta < 1 - f).

    Why this interval.  `rtbs_table` iterates

        delta[t]   = alpha + beta * delta[t-1]**m + gamma * epsilon[t-1]**m
        epsilon[t] = f + (1-f) * epsilon[t-1]**m
        sigma[t]   = beta * (1 - delta[t]**m) / (1 - delta[t])

    from zero.  epsilon rises to the smallest root of x = f + (1-f) x^m
    (`epsilon_fixed_point`), which is one iff m <= 1/(1-f): only then does
    every derailed subtree fail for sure.  With epsilon^m -> 1, delta rises
    to d*, the smallest root in [0, 1] of g(d) = beta d^m - d + 1 - beta
    (`epsilon_fixed_point(1 - beta, m)`: the same equation with f = 1 - beta).
    g is convex with g(0) > 0 and g(1) = 0, so it has a root below one iff
    g'(1) = beta m - 1 > 0, and sigma(d*) = 1 exactly: the root equation is
    1 - d* = beta (1 - d*^m).  At m = 1/beta the root is d* = 1 and
    sigma(1) = beta m = 1 as well, so the band is closed at both ends.

    Rate strictly inside (1/beta < m < 1/(1-f)).  The epsilon map has slope
    (1-f) m < 1 at its fixed point one, and the delta map has slope
    lambda = beta m d*^(m-1) < 1 at d*, so 1 - epsilon[t], d* - delta[t]
    and 1 - sigma[t] all shrink geometrically.  At the reference point
    (mu, e-, e+, f) = (0.8, 0.3, 0.2, 0.8), widths 2, 3 and 4 are within
    1e-15 of one by t = 500.

    Rate at an integer upper edge (m = 1/(1-f), so f = (m-1)/m).  The
    epsilon map is tangent to the diagonal at one: with u = 1 - epsilon,
    u[t] = u[t-1] - (m-1)/2 * u[t-1]^2 + O(u^3), so u[t] ~ 2/((m-1) t).
    delta follows its slowly moving forcing, d* - delta[t] ~ m gamma u[t] /
    (1 - lambda), and sigma'(d*) = beta * sum_{i<m} i d*^(i-1) carries that
    to the advance factor:

        1 - sigma[t] ~ c / t,   c = 2 m gamma sigma'(d*) / ((m-1)(1 - lambda)).

    The convergence is algebraic, not geometric.  At the reference point
    the edge is m = 5 with d* = 0.450377, lambda = 0.115203 and
    c = 0.181943.  t * (1 - sigma[t]) / c - 1 is -0.85% at t = 500 and
    -0.11% at t = 5000.  The gap is 3.6e-4 at t = 500 and reaches 1e-6
    only near t = 1.8e5.  A tolerance that holds strictly inside the band
    therefore says nothing about the edge; check the edge against this law.
    """
    if params.beta <= 0.0:
        raise ValueError("advance rate beta is zero; no width can stabilize")
    lo = 1.0 / params.beta
    hi = math.inf if params.f >= 1.0 else 1.0 / (1.0 - params.f)
    if lo > hi:
        raise ValueError(
            f"stability band is empty: 1/beta = {lo:.6g} exceeds 1/(1-f) = {hi:.6g}"
        )
    return (lo, hi)


def epsilon_fixed_point(f: float, m: int) -> float:
    """Smallest solution of x = f + (1-f) * x**m in [0, 1].

    This is the limiting per-attempt failure rate at derailed states.  The
    fixed point is strictly below one iff f < (m-1)/m; at or above that
    threshold the only root in [0, 1] is one.  Solved by bisection to 1e-12.
    """
    _check_prob("f", f)
    if m < 1:
        raise ValueError("m must be >= 1")
    if f == 0.0:
        return 0.0
    if m == 1 or f >= (m - 1) / m:
        return 1.0
    # The objective f + (1-f) x^m - x is positive at x = f, has its minimum
    # at x_min = (m (1-f))^(-1/(m-1)) where it is negative, and returns to
    # zero at x = 1.  The smallest root therefore lies in (f, x_min).
    lo = f
    hi = (1.0 / (m * (1.0 - f))) ** (1.0 / (m - 1))

    def objective(x: float) -> float:
        return f + (1.0 - f) * x**m - x

    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if objective(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class PosteriorParams:
    """Per-attempt rates: attempt i at a state has its own mu and errors.

    The sequences share one length; attempts beyond it reuse the final
    entry.  Verifier behavior at derailed states keeps a single rate f.
    The induced advance rates must be nonincreasing and the induced derail
    rates nondecreasing in the attempt index (later attempts are never more
    promising).  alpha, beta and gamma hold the branch rates of each attempt
    (`_branch_rates`).
    """

    mu: tuple[float, ...]
    e_minus: tuple[float, ...]
    e_plus: tuple[float, ...]
    f: float

    def __post_init__(self) -> None:
        if not (len(self.mu) == len(self.e_minus) == len(self.e_plus)):
            raise ValueError("per-attempt sequences must share one length")
        if len(self.mu) == 0:
            raise ValueError("per-attempt sequences must be non-empty")
        for seq, name in ((self.mu, "mu"), (self.e_minus, "e_minus"), (self.e_plus, "e_plus")):
            for v in seq:
                _check_prob(name, v)
        _check_prob("f", self.f)
        beta = self.beta
        gamma = self.gamma
        if any(b1 > b0 + 1e-12 for b0, b1 in zip(beta, beta[1:])):
            raise ValueError("induced advance rates must be nonincreasing")
        if any(g1 < g0 - 1e-12 for g0, g1 in zip(gamma, gamma[1:])):
            raise ValueError("induced derail rates must be nondecreasing")

    @cached_property
    def _columns(self) -> tuple[tuple[float, ...], ...]:
        return tuple(zip(*map(_branch_rates, self.mu, self.e_minus, self.e_plus)))

    @cached_property
    def alpha(self) -> tuple[float, ...]:
        return self._columns[0]

    @cached_property
    def beta(self) -> tuple[float, ...]:
        return self._columns[1]

    @cached_property
    def gamma(self) -> tuple[float, ...]:
        return self._columns[2]

    @classmethod
    def constant(cls, params: SimplifiedParams) -> PosteriorParams:
        """The one-entry table: every attempt has the rates of params."""
        return cls(
            mu=(params.mu,), e_minus=(params.e_minus,), e_plus=(params.e_plus,), f=params.f
        )


def _rmtp_advance_rate(pparams: PosteriorParams) -> float:
    """Retry-in-place's chance to advance one level on track: the series
    sum_{i >= 1} beta_i * prod_{j < i} alpha_j.  With L table entries, the
    attempts from L on share the last entry's rates, so the series is the
    finite sum over attempts 1..L-1 plus the geometric tail
    prod_{j < L} alpha_j * beta_L / (beta_L + gamma_L), summed exactly."""
    per_step = 0.0
    prefix = 1.0  # prod of alpha_j over attempts strictly before i
    for alpha_i, beta_i in zip(pparams.alpha[:-1], pparams.beta[:-1]):
        per_step += beta_i * prefix
        prefix *= alpha_i
    beta_tail, gamma_tail = pparams.beta[-1], pparams.gamma[-1]
    if beta_tail > 0.0:
        per_step += prefix * beta_tail / (beta_tail + gamma_tail)
    return per_step


def rtbs_table(rates: SimplifiedParams | PosteriorParams, m: int, n_max: int) -> RtbsTable:
    """Tabulate the attempt-indexed backtracking recursion up to n_max.

    delta has shape (n_max+1, L) with L = min(m, table length): column i-1
    is the failure chance of the i-th attempt at an on-track state of that
    scale.  Attempts L..m share the last column, so the m - L + 1 of them
    enter the subtree failure as one power and sigma as one geometric sum.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    table = rate_table(rates)
    entries = min(m, len(table.mu))
    tail = m - entries + 1
    alpha, beta, gamma = (
        column[:entries] for column in (table.alpha, table.beta, table.gamma)
    )
    f = table.f
    delta = [[0.0] * entries]
    epsilon = [0.0]
    for _ in range(n_max):
        prev = delta[-1]
        subtree_fail = math.prod(prev[:-1]) * prev[-1] ** tail
        psi_prev = epsilon[-1] ** m
        delta.append(
            [a + b * subtree_fail + g * psi_prev for a, b, g in zip(alpha, beta, gamma)]
        )
        epsilon.append(f + (1.0 - f) * psi_prev)
    sigma = []
    for row in delta:
        acc = 0.0
        prefix = 1.0  # prod of delta_j over attempts strictly before the current one
        for d, b in zip(row[:-1], beta):
            acc += b * prefix
            prefix *= d
        sigma.append(acc + prefix * beta[-1] * _geometric_sum(row[-1], tail))
    return RtbsTable(delta=np.array(delta), epsilon=np.array(epsilon), sigma=np.array(sigma))


# Earlier names of the two curves, from when only they took a per-attempt table.
posterior_rho_rmtp = rho_rmtp
posterior_rtbs_table = rtbs_table


def posterior_sufficient_condition(pparams: PosteriorParams) -> bool:
    """Sufficient test for retry-in-place to beat the plain chain when rates
    decay with the attempt index:
    e_minus_1 / (k * (1 - mu_1)) + sup_i e_plus_i < 1, with k the smallest
    ratio of consecutive advance rates.  The condition is sufficient only:
    the exact test is the advance rate against mu_1, and many tables where
    retry-in-place wins fail it."""
    mu1 = pparams.mu[0]
    if mu1 >= 1.0:
        raise ValueError("mu_1 must be < 1 for the sufficient condition")
    beta = pparams.beta
    ratios = [b1 / b0 for b0, b1 in zip(beta, beta[1:]) if b0 > 0.0]
    # Attempts beyond the sequence reuse the last entry (ratio one).
    k = min(ratios + [1.0])
    if k <= 0.0:
        return False
    return pparams.e_minus[0] / (k * (1.0 - mu1)) + max(pparams.e_plus) < 1.0


def curve_table(
    params: SimplifiedParams, m_list: tuple[int, ...], n_max: int
) -> str:
    """CSV of accuracy curves: n, plain chain, retry-in-place, and one
    backtracking column per width in m_list."""
    tables = {m: rtbs_table(params, m, n_max) for m in m_list}
    header = ["n", "rho", "rho_rmtp"] + [f"rho_rtbs_m{m}" for m in m_list]
    lines = [",".join(header)]
    for n in range(n_max + 1):
        row = [str(n), repr(rho_nonreflective(params, n)), repr(rho_rmtp(params, n))]
        row += [repr(float(tables[m].rho[n])) for m in m_list]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
