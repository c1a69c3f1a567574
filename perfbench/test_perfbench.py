"""Smoke tests for the benchmark itself (tiny grids).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_every_workload_runs_tiny_and_reports_the_declared_metrics(workload):
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.NAMES)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = _bench(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_inputs_are_a_function_of_the_seed():
    for name in workloads.NAMES:
        assert workloads.build(name, 7).input_hash() == workloads.build(name, 7).input_hash()
        assert workloads.build(name, 7).input_hash() != workloads.build(name, 8).input_hash()


def _tiny_outputs(wl: workloads.Workload, tmp_path: Path, traced: bool) -> list[bytes]:
    wl.write_inputs(tmp_path)
    outputs = []
    for i in range(len(wl.invocations)):
        out = tmp_path / f"{'t' if traced else 'u'}{i}.csv"
        prefix = [run.TRACED, str(tmp_path / f"spans{i}.json"), "--"] if traced else run.LAUNCH
        child = run.launch(prefix + wl.argv(i, tmp_path, out), run.child_env(),
                           tmp_path / "stderr.txt")
        assert child.code == 0, (tmp_path / "stderr.txt").read_text()
        outputs.append(out.read_bytes())
    return outputs


@pytest.mark.parametrize("workload", ["depol-sweep", "sdp-small"])
def test_traced_output_is_byte_identical(workload, tmp_path):
    wl = workloads.build(workload, 5, tiny=True)
    assert _tiny_outputs(wl, tmp_path, traced=True) == _tiny_outputs(wl, tmp_path, traced=False)
    spans = json.loads((tmp_path / "spans0.json").read_text())["spans"]
    assert any(s[0].startswith("bounds.") for s in spans)


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_a_corrupted_row_counts_as_failed(workload, tmp_path):
    wl = workloads.build(workload, 11, tiny=True)
    outputs = _tiny_outputs(wl, tmp_path, traced=False)
    workloads.compute_references(wl, run.SRC)
    paths = [tmp_path / f"u{i}.csv" for i in range(len(outputs))]
    rows = [workloads.read_rows(p) for p in paths]
    codes = [0] * len(rows)
    attempted, failed, problems = workloads.check(wl, rows, codes)
    assert attempted >= 1 and not failed and not problems

    # push one checked row's bound well above its reference
    if workload == "depol-sweep":
        n, eps = wl.params["picks"][0]
        target = next(r for r in rows[0] if int(r["n"]) == n and float(r["epsilon"]) == eps)
    else:
        target = rows[0][0]
    bits = float(target["bound_bits"]) + 0.5
    target["bound_bits"] = repr(bits)
    target["rate_bits_per_use"] = repr(bits / int(target["n"]))
    target["beta"] = repr(2.0 ** -bits)
    attempted2, failed, _ = workloads.check(wl, rows, codes)
    assert attempted2 == attempted and 0 < len(failed) < attempted

    # so does a corrupted reference
    rows = [workloads.read_rows(p) for p in paths]
    key = next(iter(wl.references))
    saved = wl.references[key]
    wl.references[key] = (saved[0] * 2, saved[1] + 1.0) if workload == "depol-sweep" \
        else saved + 0.5
    assert len(workloads.check(wl, rows, codes)[1]) == 1
    wl.references[key] = saved

    # a missing row and a non-zero exit fail their points too
    del rows[-1][-1]
    assert len(workloads.check(wl, rows, codes)[1]) == 1
    assert len(workloads.check(wl, rows, [3] * len(rows))[1]) == attempted


def test_span_aggregation_self_time_and_nesting():
    import layers

    spans = [
        ["bounds.ea_bound", 0, 0, 10_000_000_000, -1, None],
        ["sdp.problem.add_operator_equality", 0, 1_000_000_000, 3_000_000_000, 0, None],
        ["sdp.problem.add_constraint", 0, 1_500_000_000, 2_000_000_000, 1, None],
        ["sdp.solver.solve", 0, 4_000_000_000, 9_000_000_000, 0,
         {"rows": 10, "sum_d2": 5, "iterations": 20, "status": "optimal"}],
        ["linalg.hermitian_part", 0, 5_000_000_000, 6_000_000_000, 3, None],
    ]
    got = layers.combine([layers.invocation_metrics(spans)])
    assert got["bounds.self_s"] == pytest.approx(3.0)
    assert got["sdp.problem.assemble_s"] == pytest.approx(2.0)
    assert got["sdp.solver.solve_s"] == pytest.approx(5.0)
    assert got["sdp.solver.s_per_iteration"] == pytest.approx(0.25)
    assert got["linalg.s"] == pytest.approx(1.0) and got["linalg.calls"] == 1
    assert got["sdp.solver.schur_mb"] == pytest.approx(800 / 2**20)
    assert set(got) == set(layers.UNITS)


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in Path(run.__file__).parent.glob("*.py"):
        (bench / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((run.ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "classical",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
