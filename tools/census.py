"""Stall census: solve every fixed-input program of the sdp-small workload.

For each seed, draws the workload's channels and eps values with
``perfbench/workloads.build("sdp-small", seed)`` and solves
``ea_bound(QuantumChannel(kraus, atol=1e-8), maximally_mixed, eps, cls)``
for both test classes: 48 programs a seed. Prints the number of programs,
every program that did not end optimal, the total iteration count, and a
SHA-256 over every (repr(beta), iterations) pair in solve order, which
changes with any bit of any beta. Exits 1 if a program did not end optimal.

    PYTHONPATH=src python tools/census.py --seeds 100..139
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

from qconv import bounds, quantum  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    """Seeds as ``a..b`` (inclusive) or a comma-separated list."""
    if ".." in text:
        lo, hi = (int(t) for t in text.split(".."))
        return list(range(lo, hi + 1))
    return [int(t) for t in text.split(",") if t]


def census(seeds: list[int]):
    """Yield (seed, channel index, eps, class, beta or None, iterations, status)."""
    for seed in seeds:
        params = workloads.build("sdp-small", seed).params
        for idx, kraus in enumerate(params["kraus"]):
            chan = quantum.QuantumChannel(kraus, atol=1e-8)
            rho = quantum.maximally_mixed(chan.dim_in)
            for eps in params["eps"]:
                for cls in bounds.TestClass:
                    try:
                        res = bounds.ea_bound(chan, rho, eps, cls)
                    except bounds.SolverFailure as exc:
                        yield seed, idx, eps, cls.value, None, exc.solution.iterations, \
                            exc.solution.status
                        continue
                    yield seed, idx, eps, cls.value, res.beta, res.diagnostics["iterations"], \
                        "optimal"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="a..b or a comma-separated list")
    args = parser.parse_args(argv)
    digest = hashlib.sha256()
    programs = iterations = 0
    failures = []
    for seed, idx, eps, cls, beta, its, status in census(parse_seeds(args.seeds)):
        programs += 1
        iterations += its
        digest.update(f"{beta!r} {its}\n".encode())
        if status != "optimal":
            failures.append(f"seed {seed} channel {idx} eps {eps!r} {cls}: {status}")
    print(f"programs {programs}")
    for line in failures:
        print(f"failure {line}")
    print(f"failures {len(failures)}")
    print(f"iterations {iterations}")
    print(f"sha256 {digest.hexdigest()}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
