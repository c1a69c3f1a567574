"""Classical and quantum Neyman-Pearson hypothesis testing.

All three solvers return the exact minimal type-II error ``beta`` for a
type-I budget ``eps``, together with the threshold test that achieves it
(threshold plus a single boundary randomization weight ``gamma``). Boundary
randomization is recorded, never sampled, so results are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp
import numpy as np

from . import linalg
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


def _bernoulli_pmf(q: mp.mpf, n: int) -> list:
    """Binomial(n, q) weights as mpmath floats, via the term recurrence."""
    if q == 0:
        return [mp.mpf(1)] + [mp.mpf(0)] * n
    if q == 1:
        return [mp.mpf(0)] * n + [mp.mpf(1)]
    ratio = q / (1 - q)
    term = (1 - q) ** n
    pmf = [term]
    for j in range(n):
        term = term * (n - j) * ratio / (j + 1)
        pmf.append(term)
    return pmf


def binomial_beta(mu: float, lam: float, n: int, eps: float) -> TestResult:
    """Exact minimal type-II error between n-fold Bernoulli(mu) and Bernoulli(lam).

    Evaluates the closed form beta = (1-gamma) beta_l + gamma beta_{l+1}
    with binomial tails alpha_l = sum_{j<l} C(n,j) mu^j (1-mu)^(n-j) and
    beta_l = sum_{j>=l} C(n,j) lam^j (1-lam)^(n-j), where l satisfies
    alpha_l <= eps <= alpha_{l+1} and gamma = (eps - alpha_l) /
    (alpha_{l+1} - alpha_l) interpolates to hit eps exactly. Computed with
    mpmath so the relative error stays below 1e-12 up to n = 10000 even
    when the tails underflow float64.
    """
    if not 0.0 <= lam <= mu <= 1.0:
        raise ValueError(f"need 0 <= lam <= mu <= 1, got mu={mu}, lam={lam}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must be in [0, 1], got {eps}")
    with mp.workdps(40):
        meps = mp.mpf(eps)
        pmf_mu = _bernoulli_pmf(mp.mpf(mu), n)
        pmf_lam = _bernoulli_pmf(mp.mpf(lam), n)
        # smallest l with alpha_l <= eps <= alpha_{l+1}
        ell = 0
        alpha_ell = mp.mpf(0)
        while ell <= n:
            alpha_next = alpha_ell + pmf_mu[ell]
            if alpha_next >= meps:
                break
            alpha_ell = alpha_next
            ell += 1
        if ell > n:
            ell = n
            alpha_ell = sum(pmf_mu[:n])
        step = pmf_mu[ell]
        gamma = (meps - alpha_ell) / step if step > 0 else mp.mpf(0)
        gamma = min(max(gamma, mp.mpf(0)), mp.mpf(1))
        beta_ell = sum(pmf_lam[ell:])
        beta_next = beta_ell - pmf_lam[ell]
        beta = (1 - gamma) * beta_ell + gamma * beta_next
        beta = min(max(beta, mp.mpf(0)), mp.mpf(1))
        return TestResult(beta=beta, alpha=eps, threshold=float(ell), gamma=float(gamma))


def quantum_np_beta(tau0: DensityMatrix, tau1: DensityMatrix, eps: float,
                    max_iter: int = 200, alpha_tol: float = 1e-13) -> TestResult:
    """Minimal type-II error between two quantum states over unrestricted tests.

    Bisects the threshold t of the spectral test: accept on the strictly
    positive eigenspace of tau0 - t*tau1, with a single randomization
    weight on the crossing eigenspace so the type-I error equals ``eps``
    exactly. On a crossing eigenspace the two states are proportional, so
    one scalar weight loses nothing.
    """
    if tau0.dim != tau1.dim:
        raise ValueError(f"dimension mismatch {tau0.dim} != {tau1.dim}")
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must be in [0, 1], got {eps}")
    a0, a1 = tau0.mat, tau1.mat

    def strict_alpha(t: float) -> float:
        w, v = np.linalg.eigh(a0 - t * a1)
        tol = 1e-12 * (1.0 + t)
        keep = v[:, w > tol]
        return 1.0 - float(np.einsum("ij,ik,kj->", keep.conj(), a0, keep).real)

    lo, alpha_lo = 0.0, strict_alpha(0.0)
    hi = 1.0
    found = False
    while hi <= 1e18:
        alpha_hi = strict_alpha(hi)
        if alpha_hi >= eps:
            found = True
            break
        lo, alpha_lo = hi, alpha_hi
        hi *= 4.0
    if not found:
        # the budget never binds: accept everything tau1-free, beta = 0
        kernel = np.eye(tau1.dim) - linalg.support_projector(a1)
        compressed = linalg.hermitian_part(kernel @ a0 @ kernel)
        accept = linalg.support_projector(compressed) if np.abs(compressed).max() > 0 else 0 * kernel
        alpha = 1.0 - float(np.trace(accept @ a0).real)
        return TestResult(beta=0.0, alpha=alpha, threshold=np.inf, gamma=0.0)

    for _ in range(max_iter):
        if alpha_hi - alpha_lo < alpha_tol or (hi - lo) < 1e-16 * (1.0 + hi):
            break
        mid = 0.5 * (lo + hi)
        am = strict_alpha(mid)
        if am <= eps:
            lo, alpha_lo = mid, am
        else:
            hi, alpha_hi = mid, am

    def weights(basis: np.ndarray, op: np.ndarray) -> float:
        if basis.shape[1] == 0:
            return 0.0
        return float(np.einsum("ij,ik,kj->", basis.conj(), op, basis).real)

    # candidate 1: the strict test at the feasible end of the bracket
    w, v = np.linalg.eigh(a0 - lo * a1)
    keep = v[:, w > 1e-12 * (1.0 + lo)]
    best = TestResult(beta=min(max(weights(keep, a1), 0.0), 1.0),
                      alpha=1.0 - weights(keep, a0), threshold=lo, gamma=0.0)

    # candidate 2: randomize on the eigenspace that crosses zero inside the
    # bracket; its classification tolerance sits strictly above the
    # bisection's positivity tolerance so the crossing lands in it
    t = 0.5 * (lo + hi)
    w, v = np.linalg.eigh(a0 - t * a1)
    cross_tol = max(8.0 * (hi - lo) * (1.0 + t), 1e-10 * (1.0 + t))
    plus = v[:, w > cross_tol]
    cross = v[:, np.abs(w) <= cross_tol]
    a_plus, b_plus = weights(plus, a0), weights(plus, a1)
    a_cross, b_cross = weights(cross, a0), weights(cross, a1)
    if a_cross > 1e-14:
        gamma = min(max((1.0 - eps - a_plus) / a_cross, 0.0), 1.0)
    else:
        gamma = 0.0
    beta = min(max(b_plus + gamma * b_cross, 0.0), 1.0)
    alpha = 1.0 - (a_plus + gamma * a_cross)
    if alpha <= eps + 1e-12 and beta < best.beta:
        best = TestResult(beta=beta, alpha=alpha, threshold=t, gamma=gamma)
    return best
