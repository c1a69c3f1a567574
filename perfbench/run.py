#!/usr/bin/env python3
"""qconv benchmark: cold CLI processes on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the package is taken from
``src/`` there. One client runs one CLI child at a time (closed loop), each
with the shipped defaults: no ``--threads``, and ``QCONV_THREADS`` and every
``*_NUM_THREADS`` variable removed from its environment. A pass runs every
invocation of the workload once; passes repeat for about ``--seconds`` (the
count that lands nearest to it), and the outputs of every pass are checked
against references computed before timing starts.

``--trace 0`` reports the end-to-end metrics (medians over passes).
``--trace 1`` alternates untraced passes with traced ones (``traced.py``)
and reports the per-layer metrics of the traced passes plus the tracing
overhead. Earlier lines of standard output describe the run (machine,
settings, input hash, samples, failures); the last line is the result JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
LAUNCH = ["-c", "import sys; from qconv.cli import main; sys.exit(main())"]
TRACED = str(Path(__file__).resolve().parent / "traced.py")
SETUP_PER_PASS = 2
CHILD_TIMEOUT_S = 120.0
MAX_FAILURES_SHOWN = 20


def _thread_vars(env) -> dict[str, str]:
    return {k: v for k, v in env.items() if k == "QCONV_THREADS" or k.endswith("_NUM_THREADS")}


def child_env() -> dict[str, str]:
    """The caller's environment without thread settings, importing from src/."""
    env = {k: v for k, v in os.environ.items() if k not in _thread_vars(os.environ)}
    env["PYTHONPATH"] = str(SRC)
    return env


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def _steal_ticks() -> int | None:
    """CPU time the hypervisor gave to other guests, in clock ticks."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def machine_record() -> dict:
    import mpmath
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        blas = {"name": "unknown", "version": "unknown"}
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), "blas": blas,
            "thread_env_of_caller": _thread_vars(os.environ),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "mpmath": mpmath.__version__, "loadavg_start": _loadavg(),
            "steal_ticks_start": _steal_ticks()}


@dataclass
class Child:
    wall: float  # s
    cpu: float  # user + sys, s
    maxrss_kb: int
    code: int


def launch(args: list[str], env: dict, stderr_path: Path) -> Child:
    """Run one child to completion and take its own rusage. A child still
    running after CHILD_TIMEOUT_S is killed and reports a non-zero code."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], env=env, cwd=ROOT,
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode)


@dataclass
class Pass:
    traced: bool
    walls: list[float]  # per invocation
    cpus: list[float]
    peak_rss_mb: float
    attempted: int
    failed: dict
    problems: list[str]
    outputs: list[bytes | None]
    layers: dict | None = None


def run_pass(wl: workloads.Workload, workdir: Path, env: dict, traced: bool) -> Pass:
    children, paths = [], []
    for i in range(len(wl.invocations)):
        out = workdir / f"out{i}.csv"
        out.unlink(missing_ok=True)
        argv = wl.argv(i, workdir, out)
        prefix = [TRACED, str(workdir / f"spans{i}.json"), "--"] if traced else LAUNCH
        children.append(launch(prefix + argv, env, workdir / f"stderr{i}.txt"))
        paths.append(out)
    # everything below is outside the timed region
    outputs = [p.read_bytes() if p.exists() else None for p in paths]
    rows = [workloads.read_rows(p) if p.exists() else None for p in paths]
    codes = [c.code for c in children]
    attempted, failed, problems = workloads.check(wl, rows, codes)
    for i, c in enumerate(children):
        if c.code != 0:
            err = (workdir / f"stderr{i}.txt").read_text(errors="replace").strip()[-300:]
            problems.append(f"invocation {i} exited {c.code}: {err}")
    layer = None
    if traced and all(c == 0 for c in codes):
        layer = layers.combine([layers.load(workdir / f"spans{i}.json")
                                for i in range(len(wl.invocations))])
    return Pass(traced, [c.wall for c in children], [c.cpu for c in children],
                max(c.maxrss_kb for c in children) / 1024.0, attempted, failed, problems,
                outputs, layer)


def setup_launch(sub: str, workdir: Path, env: dict) -> float:
    """Cold interpreter start, imports and argument parsing: ``qconv <sub> --help``."""
    child = launch(LAUNCH + [sub, "--help"], env, workdir / "stderr_setup.txt")
    if child.code != 0:
        raise RuntimeError(f"qconv {sub} --help exited {child.code}")
    return child.wall


def per_invocation_median(passes: list[Pass], attr: str) -> float:
    """Sum over invocations of each invocation's median over passes, so one
    slow child in one pass does not move the workload figure."""
    per_pass = [getattr(p, attr) for p in passes]
    return sum(statistics.median(col) for col in zip(*per_pass))


def run(args) -> tuple[dict, dict]:
    wl = workloads.build(args.workload, args.seed, tiny=args.tiny)
    env = child_env()
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "input_sha256": wl.input_hash(),
              "cli_settings": {"threads_flag": "not passed",
                               "thread_env_removed": sorted(_thread_vars(os.environ)),
                               "client": "closed loop, one CLI child at a time"},
              "machine": machine_record()}
    workdir = WORK / f"{wl.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl.write_inputs(workdir)
        start = time.perf_counter()
        workloads.compute_references(wl, SRC)
        record["reference_s"] = time.perf_counter() - start
        for sub in wl.subcommands:  # unmeasured: compiles the bytecode cache
            setup_launch(sub, workdir, env)

        # set-up launches are spread between the passes, so a transient
        # load on the machine touches few of them
        setup: list[float] = []
        passes: list[Pass] = []
        start = time.perf_counter()
        while True:
            for _ in range(SETUP_PER_PASS):
                setup.append(setup_launch(wl.subcommands[len(setup) % len(wl.subcommands)],
                                          workdir, env))
            passes.append(run_pass(wl, workdir, env, traced=bool(args.trace) and len(passes) % 2 == 1))
            elapsed = time.perf_counter() - start
            # stop where the run lands nearest to --seconds
            if len(passes) >= (2 if args.trace else 1) and \
                    elapsed * (1.0 + 0.5 / len(passes)) >= args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    problems = [p for ps in passes for p in ps.problems]
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    for t in traced:  # the trace must not change the grid output
        if t.outputs != plain[0].outputs:
            problems.append("traced output differs from untraced output")
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failed) for p in passes)
    failures = [f"pass {k} {key}: {why}" for k, p in enumerate(passes)
                for key, why in p.failed.items()]

    if args.trace:
        if any(p.layers is None for p in traced):
            problems.append("a traced pass had a failed invocation; no layer metrics")
            metrics = {}
        else:
            metrics = {name: {"value": statistics.median(p.layers[name] for p in traced),
                              "unit": unit} for name, unit in layers.UNITS.items()}
            overhead = per_invocation_median(traced, "walls") / \
                per_invocation_median(plain, "walls") - 1.0
            metrics["trace.overhead_frac"] = {"value": overhead, "unit": "frac"}
    else:
        metrics = {
            "wall_s": {"value": per_invocation_median(plain, "walls"), "unit": "s"},
            "cpu_s": {"value": per_invocation_median(plain, "cpus"), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p.peak_rss_mb for p in plain),
                            "unit": "MiB"},
            "ok_frac": {"value": 1.0 - failed / attempted, "unit": "frac"},
        }
    record.update({
        "passes": len(passes),
        "samples": {"wall_s": [p.walls for p in plain], "cpu_s": [p.cpus for p in plain],
                    "peak_rss_mb": [p.peak_rss_mb for p in plain], "setup_s": setup,
                    "traced_wall_s": [p.walls for p in traced]},
        "failures": failures[:MAX_FAILURES_SHOWN], "problems": problems[:MAX_FAILURES_SHOWN],
        "loadavg_end": _loadavg(), "steal_ticks_end": _steal_ticks()})

    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrunken grids, for smoke tests")
    args = parser.parse_args(argv)
    if not (SRC / "qconv" / "cli.py").is_file():
        print(f"error: no qconv sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    record, result = run(args)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
