"""Stall census: solve a seeded family of converse programs.

By default, for each seed, draws the sdp-small workload's channels and eps
values with ``perfbench/workloads.build("sdp-small", seed)`` and solves
``ea_bound(QuantumChannel(kraus, atol=1e-8), maximally_mixed, eps, cls)``
for both test classes: 48 programs a seed. With ``--optimised``, solves
the two-use optimised-input program ``ea_bound_opt_rho(channel, eps, cls,
n=2)`` for the test suite's ``rand_channel(default_rng(seed), a, b)`` of
each shape a -> b in 2 -> 2, 2 -> 3 and 3 -> 2, at eps 0.01, 0.1 and 0.3,
for both classes: 18 programs a seed. Prints the number of programs, every
program that did not end optimal, every program that ended optimal only on
the solver's end-point contract (its returned primal or dual residual above
``TOL_FEAS``, or its relative gap above ``TOL_GAP``), the total iteration
count, and a SHA-256 over every (repr(beta), iterations) pair in solve
order, which changes with any bit of any beta. Exits 1 if a program did not
end optimal.

    PYTHONPATH=src python tools/census.py --seeds 100..139
    PYTHONPATH=src python tools/census.py --optimised --seeds 1..4
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tests")]

# qconv before numpy, so that its one-thread OpenBLAS default holds
from qconv import bounds, quantum  # noqa: E402  isort: skip
from qconv.sdp import solver  # noqa: E402  isort: skip

import numpy as np  # noqa: E402
import workloads  # noqa: E402
from conftest import rand_channel  # noqa: E402

SHAPES = ((2, 2), (2, 3), (3, 2))
OPTIMISED_EPS = (0.01, 0.1, 0.3)


def parse_seeds(text: str) -> list[int]:
    """Seeds as ``a..b`` (inclusive) or a comma-separated list."""
    if ".." in text:
        lo, hi = (int(t) for t in text.split(".."))
        return list(range(lo, hi + 1))
    return [int(t) for t in text.split(",") if t]


def _solved(seed, channel, eps, cls, bound):
    """(seed, channel, eps, class, beta or None, iterations, status, residuals)
    of one program."""
    try:
        res = bound()
    except bounds.SolverFailure as exc:
        sol = exc.solution
        return seed, channel, eps, cls.value, None, sol.iterations, sol.status, sol.residuals
    return (seed, channel, eps, cls.value, res.beta, res.diagnostics["iterations"], "optimal",
            res.diagnostics)


def _contract_only(residuals) -> bool:
    """Whether an optimal program's returned residuals miss the solver's tolerances."""
    return max(residuals["primal"], residuals["dual"]) > solver.TOL_FEAS \
        or residuals["relative_gap"] > solver.TOL_GAP


def census(seeds: list[int]):
    """The fixed-input programs of the sdp-small workload, as ``_solved`` rows."""
    for seed in seeds:
        params = workloads.build("sdp-small", seed).params
        for idx, kraus in enumerate(params["kraus"]):
            chan = quantum.QuantumChannel(kraus, atol=1e-8)
            rho = quantum.maximally_mixed(chan.dim_in)
            for eps in params["eps"]:
                for cls in bounds.TestClass:
                    yield _solved(seed, idx, eps, cls, lambda: bounds.ea_bound(chan, rho, eps, cls))


def optimised_census(seeds: list[int]):
    """The two-use optimised-input programs, as ``_solved`` rows."""
    for seed in seeds:
        for a, b in SHAPES:
            chan = rand_channel(np.random.default_rng(seed), a, b)
            for eps in OPTIMISED_EPS:
                for cls in bounds.TestClass:
                    yield _solved(seed, f"{a}->{b}", eps, cls,
                                  lambda: bounds.ea_bound_opt_rho(chan, eps, cls, n=2))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="a..b or a comma-separated list")
    parser.add_argument("--optimised", action="store_true",
                        help="the two-use optimised-input programs instead")
    args = parser.parse_args(argv)
    digest = hashlib.sha256()
    programs = iterations = 0
    failures, contract = [], []
    rows = (optimised_census if args.optimised else census)(parse_seeds(args.seeds))
    for seed, idx, eps, cls, beta, its, status, res in rows:
        programs += 1
        iterations += its
        digest.update(f"{beta!r} {its}\n".encode())
        name = f"seed {seed} channel {idx} eps {eps!r} {cls}"
        if status != "optimal":
            failures.append(f"{name}: {status}")
        elif _contract_only(res):
            contract.append(f"{name}: {its} iterations, primal {res['primal']:.1e}, "
                            f"dual {res['dual']:.1e}, gap {res['relative_gap']:.1e}")
    print(f"programs {programs}")
    for line in failures:
        print(f"failure {line}")
    print(f"failures {len(failures)}")
    for line in contract:
        print(f"contract-only {line}")
    print(f"contract-only {len(contract)}")
    print(f"iterations {iterations}")
    print(f"sha256 {digest.hexdigest()}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
