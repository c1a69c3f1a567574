"""Independent brute-force oracles used to freeze expected values.

Everything here avoids the code paths it is used to check: the classical
test search enumerates accept-sets directly instead of sorting by
likelihood ratio, the binomial expansion builds explicit product
distributions, and the binomial test sums every term of both tails.
"""

from functools import lru_cache
from itertools import combinations
from math import comb, inf

import mpmath as mp
import numpy as np


def exhaustive_np_beta(p0, p1, eps: float) -> float:
    """Exact minimal type-II error by enumerating every threshold-type test.

    Optimal tests accept a set of outcomes fully plus at most one outcome
    fractionally; enumerate all such tests and keep the best feasible one.
    Exponential in the number of outcomes, fine below ~15.
    """
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    n = len(p0)
    best = inf
    idx = list(range(n))
    for size in range(n + 1):
        for subset in combinations(idx, size):
            mass0 = sum(p0[r] for r in subset)
            mass1 = sum(p1[r] for r in subset)
            if mass0 >= 1.0 - eps - 1e-15:
                best = min(best, mass1)
                continue
            for r in idx:
                if r in subset or p0[r] <= 0.0:
                    continue
                gamma = (1.0 - eps - mass0) / p0[r]
                if gamma <= 1.0 + 1e-15:
                    best = min(best, mass1 + gamma * p1[r])
    return max(best, 0.0)


def binomial_count_distribution(q: float, n: int) -> np.ndarray:
    return np.array([comb(n, j) * q**j * (1.0 - q) ** (n - j) for j in range(n + 1)])


@lru_cache(maxsize=None)
def _binomial_pmf(q: float, n: int, dps: int) -> tuple:
    with mp.workdps(dps):
        mq = mp.mpf(q)
        return tuple(mp.binomial(n, j) * mq**j * (1 - mq) ** (n - j) for j in range(n + 1))


def binomial_np_reference(mu: float, lam: float, n: int, eps: float, dps: int = 60):
    """(threshold, beta) of the Neyman-Pearson test between n-fold Bernoulli(mu)
    and Bernoulli(lam), from full tail sums of ``mp.binomial`` terms.

    The threshold is the smallest l with P_mu(X <= l) >= eps; the boundary
    term is randomized so the type-I error is exactly eps.
    """
    p_mu, p_lam = _binomial_pmf(mu, n, dps), _binomial_pmf(lam, n, dps)
    with mp.workdps(dps):
        m_eps = mp.mpf(eps)
        ell, alpha = 0, mp.mpf(0)
        while ell < n and alpha + p_mu[ell] < m_eps:
            alpha += p_mu[ell]
            ell += 1
        gamma = min(max((m_eps - alpha) / p_mu[ell], 0), 1) if p_mu[ell] > 0 else 0
        beta = mp.fsum(p_lam[ell:]) - gamma * p_lam[ell]
        return ell, beta


def product_distribution(q: float, n: int) -> np.ndarray:
    """i.i.d. Bernoulli distribution over all 2^n sequences (bit = success)."""
    out = np.ones(1)
    for _ in range(n):
        out = np.concatenate([out * (1.0 - q), out * q])
    return out


def _golden_max(f, iters: int = 60) -> float:
    """Maximum of a unimodal function on [0, 1] by golden-section search,
    endpoints included."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = 0.0, 1.0
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return max(f(0.5 * (a + b)), f(0.0), f(1.0))


def identity_opt_input_bound(eps: float, spectrum_grid: int = 21,
                             golden_iters: int = 45) -> float:
    """Grid-search oracle for the optimized unrestricted bound of the qubit
    identity channel.

    Unitary covariance lets the input state be taken diagonal (only its
    spectrum matters) and phase covariance plus concavity lets the
    adversarial output state be taken diagonal in the same basis, so a
    spectrum grid with a 1-D concave search over the output state is
    exhaustive. Uses only the spectral hypothesis-test solver.
    """
    from qconv.hypotest import quantum_np_beta
    from qconv.quantum import DensityMatrix, canonical_purification

    def max_beta_over_sigma(rho_mat: np.ndarray) -> float:
        pur = canonical_purification(DensityMatrix(rho_mat))
        ref = rho_mat.T

        def beta(s: float) -> float:
            sigma = np.diag([s, 1.0 - s]).astype(complex)
            h1 = DensityMatrix(np.kron(ref, sigma))
            return quantum_np_beta(pur, h1, eps).beta

        return _golden_max(beta, golden_iters)

    best = 0.0
    for r in np.linspace(0.0, 1.0, spectrum_grid):
        rho = np.diag([r, 1.0 - r]).astype(complex)
        beta_val = max_beta_over_sigma(rho)
        best = max(best, -np.log2(max(beta_val, 1e-300)))
    return best


def classical_converse_bits(w, eps: float, p=None) -> float:
    """Brute-force classical converse (bits) for a 2x2 column-stochastic matrix.

    beta(p, q) comes from exhaustive test enumeration; it is concave in the
    output distribution q, whose worst case is found by a 1-D search, and
    that worst case is convex in the input p, searched the same way when
    ``p`` is not given. No SDP is involved.
    """
    w = np.asarray(w, dtype=float)

    def beta(p0: float, q0: float) -> float:
        pv, qv = np.array([p0, 1.0 - p0]), np.array([q0, 1.0 - q0])
        joint = (w * pv[None, :]).T.reshape(-1)
        return exhaustive_np_beta(joint, np.outer(pv, qv).reshape(-1), eps)

    def worst(p0: float) -> float:
        return _golden_max(lambda q0: beta(p0, q0))

    best = worst(p[0]) if p is not None else -_golden_max(lambda p0: -worst(p0))
    return float(-np.log2(best))
