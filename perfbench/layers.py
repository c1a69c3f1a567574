"""Per-layer metrics from the spans ``traced.py`` writes.

A layer's time counts only its outermost spans, so a wrapped call nested in
another call of the same layer is not counted twice; calls count every span.
Self time is a span's duration minus the durations of its direct child
spans (children run on the span's own thread, one after another). The CLI
runs grid points on a thread pool, so layer times are summed busy time and
can exceed the wall time of the process.
"""

from __future__ import annotations

import json
from pathlib import Path

from traced import ATTRS, END, NAME, PARENT, START

MIB = float(1 << 20)

# metric -> span-name prefixes whose outermost spans it sums
TIMES = {
    "cli.load_s": ("cli.load_channel",),
    "cli.emit_s": ("cli.emit_rows",),
    "quantum.channel_s": ("quantum.QuantumChannel", "quantum.channel_from_choi"),
    "quantum.tensor_power_s": ("quantum.tensor_power",),
    "hypotest.binomial_s": ("hypotest.binomial_beta",),
    "hypotest.classical_np_s": ("hypotest.classical_np_beta",),
    "sdp.problem.assemble_s": ("sdp.problem.",),
    "sdp.solver.solve_s": ("sdp.solver.solve",),
    "linalg.s": ("linalg.",),
}
CALLS = {
    "hypotest.binomial_calls": ("hypotest.binomial_beta",),
    "hypotest.classical_np_calls": ("hypotest.classical_np_beta",),
    "bounds.calls": ("bounds.",),
    "sdp.solver.solves": ("sdp.solver.solve",),
    "linalg.calls": ("linalg.",),
}
MAXIMA = ("sdp.problem.rows_max", "sdp.solver.schur_mb", "sdp.solver.constraint_mb")
# every metric a traced pass yields, with its unit (run.py adds trace.overhead_frac)
UNITS = {
    "cli.load_s": "s", "cli.emit_s": "s", "cli.points": "count",
    "quantum.channel_s": "s", "quantum.tensor_power_s": "s",
    "hypotest.binomial_s": "s", "hypotest.binomial_calls": "count",
    "hypotest.classical_np_s": "s", "hypotest.classical_np_calls": "count",
    "bounds.self_s": "s", "bounds.calls": "count",
    "sdp.problem.assemble_s": "s", "sdp.problem.rows_max": "count",
    "sdp.problem.rows_total": "count",
    "sdp.solver.solve_s": "s", "sdp.solver.solves": "count", "sdp.solver.iterations": "count",
    "sdp.solver.s_per_iteration": "s", "sdp.solver.first_solve_s": "s",
    "sdp.solver.schur_mb": "MiB_computed", "sdp.solver.constraint_mb": "MiB_computed",
    "sdp.solver.nonoptimal": "count",
    "linalg.s": "s", "linalg.calls": "count",
}


def invocation_metrics(spans: list[list]) -> dict[str, float]:
    """Layer metrics of one CLI process."""
    dur = [(s[END] - s[START]) * 1e-9 for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += dur[i]

    def outermost(i: int, prefixes: tuple) -> bool:
        p = spans[i][PARENT]
        while p >= 0:
            if spans[p][NAME].startswith(prefixes):
                return False
            p = spans[p][PARENT]
        return True

    out = {}
    for metric, prefixes in TIMES.items():
        out[metric] = sum(dur[i] for i, s in enumerate(spans)
                          if s[NAME].startswith(prefixes) and outermost(i, prefixes))
    for metric, prefixes in CALLS.items():
        out[metric] = sum(1 for s in spans if s[NAME].startswith(prefixes))
    out["bounds.self_s"] = sum(dur[i] - child_time[i] for i, s in enumerate(spans)
                               if s[NAME].startswith("bounds."))
    out["cli.points"] = sum(s[ATTRS]["rows"] for s in spans if s[NAME] == "cli.emit_rows")

    solves = sorted((i for i, s in enumerate(spans) if s[NAME] == "sdp.solver.solve"),
                    key=lambda i: spans[i][START])
    attrs = [spans[i][ATTRS] for i in solves]
    out["sdp.solver.first_solve_s"] = dur[solves[0]] if solves else 0.0
    out["sdp.solver.iterations"] = sum(a["iterations"] for a in attrs)
    out["sdp.solver.nonoptimal"] = sum(1 for a in attrs if a["status"] != "optimal")
    out["sdp.problem.rows_total"] = sum(a["rows"] for a in attrs)
    out["sdp.problem.rows_max"] = max((a["rows"] for a in attrs), default=0)
    # computed, not measured: dense float64 Schur matrix m x m and complex128
    # constraint tensors m x d x d over every block, slacks included
    out["sdp.solver.schur_mb"] = max((8.0 * a["rows"] ** 2 / MIB for a in attrs), default=0.0)
    out["sdp.solver.constraint_mb"] = max((16.0 * a["rows"] * a["sum_d2"] / MIB for a in attrs),
                                          default=0.0)
    return out


def load(path: Path) -> dict[str, float]:
    with open(path, encoding="utf-8") as fh:
        return invocation_metrics(json.load(fh)["spans"])


def combine(parts: list[dict[str, float]]) -> dict[str, float]:
    """Sum the invocations of one workload pass (maxima stay maxima)."""
    out = {k: (max if k in MAXIMA else sum)(p[k] for p in parts) for k in parts[0]}
    out["sdp.solver.s_per_iteration"] = (out["sdp.solver.solve_s"] / out["sdp.solver.iterations"]
                                         if out["sdp.solver.iterations"] else 0.0)
    return out
