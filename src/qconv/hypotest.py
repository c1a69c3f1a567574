"""Classical and quantum Neyman-Pearson hypothesis testing.

All three solvers return the exact minimal type-II error ``beta`` for a
type-I budget ``eps``, together with the threshold test that achieves it
(threshold plus a single boundary randomization weight ``gamma``). Boundary
randomization is recorded, never sampled, so results are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .quantum import DensityMatrix

DIST_ATOL = 1e-12


@dataclass(frozen=True)
class TestResult:
    """Outcome of a Neyman-Pearson optimization.

    ``beta`` may be an ``mpmath.mpf`` on the extended-precision binomial
    path (it underflows float64 for large block lengths). ``gamma`` is the
    randomization weight: for the classical and binomial solvers it is the
    mixing probability of the next-stricter threshold test, for the quantum
    solver the acceptance weight of the crossing eigenspace.
    """

    __test__ = False  # not a pytest collectible

    beta: float | mp.mpf
    alpha: float
    threshold: float
    gamma: float

    def bits(self) -> float:
        """-log2(beta), computed in extended precision when needed."""
        if isinstance(self.beta, mp.mpf):
            return float(-mp.log(self.beta, 2))
        return float(-np.log2(self.beta))


def _check_distribution(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.ndim != 1:
        raise ValueError("distribution must be a vector")
    if not np.isfinite(p).all():
        raise ValueError("distribution has non-finite entries")
    if p.min() < 0.0:
        raise ValueError(f"distribution has negative entry {p.min()}")
    if abs(p.sum() - 1.0) > DIST_ATOL:
        raise ValueError(f"distribution sums to {p.sum()}, not 1")
    return p


def classical_np_beta(p0, p1, eps: float) -> TestResult:
    """Minimal type-II error between two finite distributions.

    Outcomes are accepted greedily in order of decreasing likelihood ratio
    p0/p1 (p1 = 0 outcomes first, ties broken by index) until the type-I
    budget is used up; the boundary outcome is randomized to meet ``eps``
    exactly.
    """
    p0 = _check_distribution(p0)
    p1 = _check_distribution(p1)
    if p0.shape != p1.shape:
        raise ValueError("distributions must share a support size")
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must be in [0, 1], got {eps}")

    def key(r: int):
        if p1[r] == 0.0:
            return (0, 0.0, r)
        return (1, -p0[r] / p1[r], r)

    order = sorted(range(len(p0)), key=key)
    need = 1.0 - eps
    accepted_p0 = 0.0
    beta = 0.0
    threshold = np.inf
    gamma = 0.0
    for r in order:
        if need <= 1e-15:
            break
        if p0[r] <= 0.0:
            continue
        take = min(1.0, need / p0[r])
        beta += take * p1[r]
        accepted_p0 += take * p0[r]
        need -= take * p0[r]
        threshold = np.inf if p1[r] == 0.0 else p0[r] / p1[r]
        # weight of the stricter test that drops the boundary outcome,
        # matching the binomial formula's interpolation convention
        gamma = 1.0 - take
    return TestResult(beta=min(max(beta, 0.0), 1.0), alpha=1.0 - accepted_p0,
                      threshold=threshold, gamma=gamma)


_GUARD = 200  # fixed-point bits kept below the first term of a tail sum


def _term(q: mp.mpf, n: int, j: int) -> mp.mpf:
    """P(X = j) for X ~ Binomial(n, q), at the working precision."""
    return mp.mpf(math.comb(n, j)) * q**j * (1 - q) ** (n - j)


def _above(a: int, c: int, n: int, ell: int) -> int:
    """P(X >= ell) / P(X = ell) in units of 2^-_GUARD, for X ~ Binomial(n, a / (a + c)).

    Sums t_{j+1} = t_j * (n - j) a / ((j + 1) c) upward from ell, in exact
    integer arithmetic apart from one floor per term, and stops once the
    terms decrease and one falls below the working precision of the sum.
    The lower tail is this sum mirrored: n - X ~ Binomial(n, c / (a + c)), so
    P(X < ell) / P(X = ell) = _above(c, a, n, n - ell) - 2^_GUARD, summed over
    the same integer terms t_{ell-1}, t_{ell-2}, ...
    """
    term = total = 1 << _GUARD
    prec = mp.mp.prec
    for j in range(ell, n):
        num, den = (n - j) * a, (j + 1) * c
        term = term * num // den
        total += term
        if num < den and term << prec < total:
            break
    return total


def _quantile_guess(mu: float, n: int, eps: float) -> int:
    """The eps-quantile of Binomial(n, mu) by the normal approximation, with
    continuity and skewness corrections; the inverse normal is Abramowitz &
    Stegun 26.2.23 (absolute error below 4.5e-4)."""
    t = math.sqrt(-2.0 * math.log(min(eps, 1.0 - eps)))
    z = t - (2.515517 + 0.802853 * t + 0.010328 * t * t) \
        / (1.0 + 1.432788 * t + 0.189269 * t * t + 0.001308 * t**3)
    z = z if eps > 0.5 else -z
    x = n * mu + z * math.sqrt(n * mu * (1.0 - mu)) + (z * z - 1.0) * (1.0 - 2.0 * mu) / 6.0
    return min(max(math.ceil(x - 0.5), 0), n)


def _threshold(mu: float, n: int, eps: float) -> tuple[int, mp.mpf, mp.mpf]:
    """The smallest l with alpha_{l+1} >= eps, with alpha_l and P(X = l), for
    X ~ Binomial(n, mu), 0 < mu < 1 and 0 < eps < 1.

    From the guessed l, alpha_l is summed in fixed point relative to P(X = l)
    and l moves by the exact term ratio until alpha_l < eps <= alpha_{l+1}.
    If it moved, the sum restarts from the new l, so the returned values
    carry the full precision however far off the guess was.
    """
    a, b = float(mu).as_integer_ratio()  # mu = a / b and 1 - mu = c / b exactly
    c = b - a
    meps = mp.mpf(eps)
    ell = _quantile_guess(mu, n, eps)
    for _ in range(2):
        start = ell
        first = _term(mp.mpf(mu), n, ell)
        # alpha_l = below * unit, P(X = l) = term * unit, eps = need * unit (rounded up)
        unit = first / (1 << _GUARD)
        term, need = 1 << _GUARD, int(mp.ceil(meps / unit))
        below = _above(c, a, n, n - ell) - term
        while below + term < need and ell < n:
            below += term
            term = term * (n - ell) * a // ((ell + 1) * c)
            ell += 1
        while below >= need and ell > 0:
            term = term * ell * c // ((n - ell + 1) * a)
            ell -= 1
            below -= term
        if ell == start:
            break
    return ell, below * unit, term * unit


def binomial_beta(mu: float, lam: float, n: int, eps: float) -> TestResult:
    """Exact minimal type-II error between n-fold Bernoulli(mu) and Bernoulli(lam).

    Evaluates the closed form beta = (1-gamma) beta_l + gamma beta_{l+1}
    with binomial tails alpha_l = sum_{j<l} C(n,j) mu^j (1-mu)^(n-j) and
    beta_l = sum_{j>=l} C(n,j) lam^j (1-lam)^(n-j), where l is the smallest
    index with eps <= alpha_{l+1} and gamma = (eps - alpha_l) /
    (alpha_{l+1} - alpha_l) interpolates to hit eps exactly.

    Only the terms near the threshold are summed. l is guessed from the
    normal approximation and corrected by the term ratio; each tail then
    starts from one 40-digit term at l and runs outward, past the mode,
    until a term falls below the working precision (b = 136 bits) of the
    partial sum: O(sqrt(n b)) terms instead of 2(n + 1). mu and 1 - mu are
    exact dyadic rationals, so the term ratios are exact and the sums are
    kept as integers with 200 bits below their first term. beta keeps far
    more than 1e-12 relative accuracy, also where it underflows float64.
    """
    if not 0.0 <= lam <= mu <= 1.0:
        raise ValueError(f"need 0 <= lam <= mu <= 1, got mu={mu}, lam={lam}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must be in [0, 1], got {eps}")
    if eps == 0.0:  # accept everything
        return TestResult(beta=mp.mpf(1), alpha=0.0, threshold=0.0, gamma=0.0)
    if eps == 1.0:  # reject everything: the top of mu's support, fully randomized
        return TestResult(beta=mp.mpf(0), alpha=1.0, threshold=float(n if mu > 0 else 0),
                          gamma=1.0)
    with mp.workdps(40):
        meps = mp.mpf(eps)
        if mu in (0.0, 1.0):  # a point mass at n * mu
            ell, alpha_ell, step = round(n * mu), mp.mpf(0), mp.mpf(1)
        else:
            ell, alpha_ell, step = _threshold(mu, n, eps)
        gamma = min(max((meps - alpha_ell) / step, mp.mpf(0)), mp.mpf(1))
        # lam = 1 forces mu = 1 and l = n, where _above sums nothing
        a, b = float(lam).as_integer_ratio()
        unit = _term(mp.mpf(lam), n, ell) / (1 << _GUARD)
        above = _above(a, b - a, n, ell)
        beta_ell = above * unit
        beta_next = (above - (1 << _GUARD)) * unit
        beta = (1 - gamma) * beta_ell + gamma * beta_next
        beta = min(max(beta, mp.mpf(0)), mp.mpf(1))
        return TestResult(beta=beta, alpha=eps, threshold=float(ell), gamma=float(gamma))


BISECT_MAX_ITER = 200  # bisection steps of quantum_np_beta's threshold
BISECT_ALPHA_TOL = 1e-13  # type-I error bracket at which the bisection stops


def quantum_np_beta(tau0: DensityMatrix, tau1: DensityMatrix, eps: float) -> TestResult:
    """Minimal type-II error between two quantum states over unrestricted tests.

    Bisects the threshold t of the spectral test: accept on the strictly
    positive eigenspace of tau0 - t*tau1, with a single randomization
    weight on the crossing eigenspace so the type-I error equals ``eps``
    exactly. On a crossing eigenspace the two states are proportional, so
    one scalar weight loses nothing.

    The bracket grows by quadrupling t from 1, and it always closes: for
    tau1 >= 0, lambda_max(tau0 - t*tau1) <= lambda_max(tau0) <= 1 + O(atol),
    so from t = 4^20 ~ 1.1e12 on the strict tolerance 1e-12 * (1 + t)
    exceeds every eigenvalue, the test accepts nothing and its type-I error
    1 meets any eps. Only a tau1 with an eigenvalue below about -1e-12,
    which DensityMatrix admits down to -quantum.STATE_ATOL, keeps its
    negative eigenspace at every t; it raises ValueError.
    """
    if tau0.dim != tau1.dim:
        raise ValueError(f"dimension mismatch {tau0.dim} != {tau1.dim}")
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must be in [0, 1], got {eps}")
    a0, a1 = tau0.mat, tau1.mat

    def weight(basis: np.ndarray, op: np.ndarray) -> float:
        return float(np.einsum("ij,ik,kj->", basis.conj(), op, basis).real)

    def strict(t: float) -> tuple[float, np.ndarray]:
        """Type-I error and accepted basis of the test that accepts the
        eigenspace of tau0 - t*tau1 above 1e-12 * (1 + t)."""
        w, v = np.linalg.eigh(a0 - t * a1)
        keep = v[:, w > 1e-12 * (1.0 + t)]
        return 1.0 - weight(keep, a0), keep

    lo, hi = 0.0, 1.0
    alpha_lo, keep_lo = strict(lo)
    alpha_hi, keep_hi = strict(hi)
    while alpha_hi < eps:
        if hi > 1e18:
            raise ValueError("tau1 has an eigenvalue below -1e-12: the type-I budget never binds")
        lo, alpha_lo, keep_lo = hi, alpha_hi, keep_hi
        hi *= 4.0
        alpha_hi, keep_hi = strict(hi)

    for _ in range(BISECT_MAX_ITER):
        if alpha_hi - alpha_lo < BISECT_ALPHA_TOL or (hi - lo) < 1e-16 * (1.0 + hi):
            break
        mid = 0.5 * (lo + hi)
        alpha_mid, keep_mid = strict(mid)
        if alpha_mid <= eps:
            lo, alpha_lo, keep_lo = mid, alpha_mid, keep_mid
        else:
            hi, alpha_hi = mid, alpha_mid

    # candidate 1: the strict test at the feasible end of the bracket
    best = TestResult(beta=min(max(weight(keep_lo, a1), 0.0), 1.0), alpha=alpha_lo, threshold=lo,
                      gamma=0.0)

    # candidate 2: randomize on the eigenspace that crosses zero inside the
    # bracket; its classification tolerance sits strictly above the
    # bisection's positivity tolerance so the crossing lands in it
    t = 0.5 * (lo + hi)
    w, v = np.linalg.eigh(a0 - t * a1)
    cross_tol = max(8.0 * (hi - lo) * (1.0 + t), 1e-10 * (1.0 + t))
    plus = v[:, w > cross_tol]
    cross = v[:, np.abs(w) <= cross_tol]
    a_plus, b_plus = weight(plus, a0), weight(plus, a1)
    a_cross, b_cross = weight(cross, a0), weight(cross, a1)
    if a_cross > 1e-14:
        gamma = min(max((1.0 - eps - a_plus) / a_cross, 0.0), 1.0)
    else:
        gamma = 0.0
    beta = min(max(b_plus + gamma * b_cross, 0.0), 1.0)
    alpha = 1.0 - (a_plus + gamma * a_cross)
    if alpha <= eps + 1e-12 and beta < best.beta:
        best = TestResult(beta=beta, alpha=alpha, threshold=t, gamma=gamma)
    return best
