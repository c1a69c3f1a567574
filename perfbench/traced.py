"""Run one ``qconv`` CLI invocation with a span around every call into a layer.

    python3 perfbench/traced.py SPANS_PATH -- <qconv arguments>

The wrappers are installed from outside the program: each wrapped function
is swapped in the namespace where its caller looks it up (the module
attribute, the importing module's global, or the class attribute), so the
package sources are not modified. Spans are kept in memory and written to
SPANS_PATH as JSON when the CLI returns; ``layers.py`` turns them into
per-layer metrics. Grid output is unchanged by the tracing.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time

NAME, THREAD, START, END, PARENT, ATTRS = range(6)


class Tracer:
    """Collects spans ``[name, thread, start_ns, end_ns, parent, attrs]``;
    ``parent`` is the index of the enclosing span on the same thread, or -1."""

    def __init__(self):
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, name: str, fn, attrs=None, result_attrs=None):
        """``attrs(*args, **kwargs)`` is evaluated as the call enters and
        ``result_attrs(result)`` as it returns; both give dicts kept on the span."""
        spans, lock, local, clock = self.spans, self._lock, self._local, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name, threading.get_ident(), 0, 0, stack[-1] if stack else -1,
                    attrs(*args, **kwargs) if attrs else None]
            with lock:
                index = len(spans)
                spans.append(span)
            stack.append(index)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if result_attrs:
                span[ATTRS] = {**(span[ATTRS] or {}), **result_attrs(result)}
            return result

        return traced

    def swap(self, owner, attr: str, name: str, **kw) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), **kw))

    def dump(self, path: str) -> None:
        threads = sorted({s[THREAD] for s in self.spans})
        for s in self.spans:
            s[THREAD] = threads.index(s[THREAD])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh, separators=(",", ":"))


def _problem_size(problem, *_args, **_kwargs) -> dict:
    """Rows and summed squared block sizes as the solver will see them: each
    scalar inequality gets its own 1x1 slack block."""
    slacks = sum(1 for c in problem.constraints if c.sense != "==")
    return {"rows": len(problem.constraints),
            "sum_d2": sum(d * d for d in problem.block_dims) + slacks}


def install(tracer: Tracer) -> None:
    from qconv import bounds, cli, linalg, quantum, sdp
    from qconv.sdp import problem

    # the command functions call these by their cli-global names
    tracer.swap(cli, "load_channel", "cli.load_channel")
    tracer.swap(cli, "emit_rows", "cli.emit_rows", attrs=lambda rows, *a, **k: {"rows": len(rows)})
    # cli and quantum itself reach these through the quantum module
    tracer.swap(quantum, "tensor_power", "quantum.tensor_power")
    tracer.swap(quantum, "channel_from_choi", "quantum.channel_from_choi")
    tracer.swap(quantum.QuantumChannel, "__init__", "quantum.QuantumChannel")
    # bounds imported the hypothesis-test solvers by name
    for fn in ("binomial_beta", "classical_np_beta"):
        tracer.swap(bounds, fn, f"hypotest.{fn}")
    # cli calls the bound programs through the bounds module
    for fn in ("depolarising_exact", "ea_bound", "ea_bound_opt_rho", "classical_converse"):
        tracer.swap(bounds, fn, f"bounds.{fn}")
    for fn in ("__init__", "add_block", "set_objective", "add_constraint",
               "add_operator_equality"):
        tracer.swap(problem.SdpProblem, fn, f"sdp.problem.{fn}")
    # bounds calls sdp.solve through the sdp package
    tracer.swap(sdp, "solve", "sdp.solver.solve", attrs=_problem_size,
                result_attrs=lambda sol: {"iterations": sol.iterations, "status": sol.status})
    # every module, linalg included, calls these through the linalg module
    for fn in ("require_matrix", "hermitian_part", "require_hermitian", "kron",
               "partial_trace", "partial_transpose", "eigh", "herm_sqrt", "herm_inv_sqrt",
               "support_projector"):
        tracer.swap(linalg, fn, f"linalg.{fn}")


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print("usage: traced.py SPANS_PATH -- <qconv arguments>", file=sys.stderr)
        return 2
    tracer = Tracer()
    install(tracer)
    from qconv import cli

    try:
        return cli.main(sys.argv[3:])
    finally:
        tracer.dump(sys.argv[1])


if __name__ == "__main__":
    sys.exit(main())
