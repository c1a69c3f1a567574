import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

from qconv import bounds, cli, quantum, sdp


def _write_identity_channel(path, d=2):
    eye = [[[1.0 if r == c else 0.0, 0.0] for c in range(d)] for r in range(d)]
    spec = {"dimIn": d, "dimOut": d, "representation": "kraus", "data": [eye]}
    path.write_text(json.dumps(spec))
    return path


def _mat_to_pairs(m):
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def _write_depol_choi(path, p=0.15):
    chan = quantum.depolarising_channel(2, p)
    spec = {"dimIn": 2, "dimOut": 2, "representation": "choi",
            "data": _mat_to_pairs(chan.choi)}
    path.write_text(json.dumps(spec))
    return path


def _write_phase_depol_kraus(path, p=0.15):
    """The qubit depolarising channel followed by the phase gate diag(1, i),
    whose Choi matrix is complex, as Kraus operators."""
    kraus = [np.diag([1.0, 1j]) @ m for m in quantum.depolarising_channel(2, p).kraus]
    spec = {"dimIn": 2, "dimOut": 2, "representation": "kraus",
            "data": [_mat_to_pairs(m) for m in kraus]}
    path.write_text(json.dumps(spec))
    return path


GRID_COMMANDS = ("depol", "bound", "classical")

HUGE = 10**400  # a JSON integer beyond float range


def _grid_argv(tmp_path, command):
    """A grid command on a small input, short of --eps and --n."""
    if command == "depol":
        return ["depol", "--d", "2", "--p", "0.15"]
    if command == "bound":
        return ["bound", "--channel", str(_write_depol_choi(tmp_path / "depol.json"))]
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"data": [[0.9, 0.2], [0.1, 0.8]]}))
    return ["classical", "--channel", str(path)]


class TestChannelParsing:
    def test_identity_kraus(self, tmp_path):
        chan = cli.load_channel(_write_identity_channel(tmp_path / "id.json"))
        assert chan.dim_in == chan.dim_out == 2
        assert_allclose(chan.choi, quantum.max_entangled_op(2), atol=1e-12)

    def test_depol_choi_roundtrip(self, tmp_path):
        chan = cli.load_channel(_write_depol_choi(tmp_path / "depol.json"))
        assert np.abs(chan.choi - quantum.depolarising_channel(2, 0.15).choi).max() < 1e-10

    def test_non_trace_preserving_reports_residual(self):
        bad = {"dimIn": 2, "dimOut": 2, "representation": "kraus",
               "data": [[[[0.9, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.9, 0.0]]]]}
        with pytest.raises(ValueError, match="trace preserving"):
            cli.parse_channel(bad)

    def test_missing_field(self):
        with pytest.raises(ValueError, match="missing"):
            cli.parse_channel({"dimIn": 2})

    def test_bad_complex_entry(self):
        bad = {"dimIn": 1, "dimOut": 1, "representation": "kraus", "data": [[[1.0]]]}
        with pytest.raises(ValueError):
            cli.parse_channel(bad)


class TestArgumentParsing:
    def test_eps_list(self):
        assert cli.parse_eps_list("1e-2,1e-4") == [0.01, 0.0001]
        with pytest.raises(ValueError):
            cli.parse_eps_list("0.5,1.5")

    def test_n_list(self):
        assert cli.parse_n_list("1..4") == [1, 2, 3, 4]
        assert cli.parse_n_list("1,5,9") == [1, 5, 9]
        with pytest.raises(ValueError):
            cli.parse_n_list("0..3")
        with pytest.raises(ValueError, match="below its start"):
            cli.parse_n_list("1,3..2")

    def test_fmt_significant_digits(self):
        assert cli.fmt(1) == "1"
        assert cli.fmt(0.05) == "5.00000000000e-02"
        assert float(cli.fmt(np.pi)) == pytest.approx(np.pi, abs=1e-11)
        tiny = mp.mpf(2) ** -1500
        assert mp.mpf(cli.fmt(tiny)) == pytest.approx(tiny, rel=1e-11)


class TestGridCommands:
    """depol, bound and classical share one grid runner and one emitter."""

    @pytest.mark.parametrize("command", GRID_COMMANDS)
    def test_grid_shape_and_sorting(self, tmp_path, command):
        ns = {"depol": [3, 1, 2], "bound": [2, 1], "classical": [1]}[command]
        eps = [0.25, 0.05, 0.1]
        args = _grid_argv(tmp_path, command) + ["--eps", ",".join(map(str, eps))]
        if command != "classical":
            args += ["--n", ",".join(map(str, ns))]
        out = tmp_path / "grid.csv"
        assert cli.main(args + ["--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == cli.CSV_HEADER
        keys = []
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 7
            keys.append((int(fields[0]), float(fields[1])))
        assert keys == sorted((n, e) for n in ns for e in eps)

    @pytest.mark.parametrize("command", GRID_COMMANDS)
    def test_timing_flag_populates_wall_ms(self, tmp_path, command):
        args = _grid_argv(tmp_path, command) + ["--eps", "0.05"]
        if command != "classical":
            args += ["--n", "50" if command == "depol" else "1"]
        out = tmp_path / "grid.csv"
        assert cli.main(args + ["--out", str(out), "--timing"]) == 0
        wall = out.read_text().strip().splitlines()[1].split(",")[6]
        assert float(wall) > 0.0

    @pytest.mark.parametrize("command", ["bound", "classical"])
    def test_bad_eps_fails_before_any_solve(self, tmp_path, monkeypatch, capsys, command):
        # 0.9999999999 lies in (0, 1) but above bounds.EPS_MAX: every eps of
        # the grid is checked before the first program is built
        solves = []
        monkeypatch.setattr(sdp, "solve", lambda problem: solves.append(problem))
        args = _grid_argv(tmp_path, command) + ["--eps", "0.05,0.9999999999"]
        assert cli.main(args + ["--out", str(tmp_path / "grid.csv")]) == 2
        assert "eps must be in" in capsys.readouterr().err
        assert solves == []

    def test_state_of_the_wrong_dimension_fails_before_any_solve(self, tmp_path, monkeypatch,
                                                                 capsys):
        # a qubit state fits n = 1 but not n = 2: the grid solves nothing
        solves = []
        monkeypatch.setattr(sdp, "solve", lambda problem: solves.append(problem))
        state = tmp_path / "rho.json"
        state.write_text(json.dumps({"dim": 2, "data": _mat_to_pairs(np.eye(2) / 2)}))
        args = _grid_argv(tmp_path, "bound") + ["--eps", "0.05,0.1", "--n", "1,2",
                                                "--rho", str(state)]
        assert cli.main(args + ["--out", str(tmp_path / "grid.csv")]) == 2
        assert "state dim 2 != channel input dim 4 at n = 2" in capsys.readouterr().err
        assert solves == []

    def test_one_program_per_n(self, tmp_path, monkeypatch):
        built, solved = [], []
        build, solve = bounds._ea_problem, sdp.solve

        def counted_build(*args, **kwargs):
            built.append(args[3])
            return build(*args, **kwargs)

        def counted_solve(problem):
            solved.append(problem)
            return solve(problem)

        monkeypatch.setattr(bounds, "_ea_problem", counted_build)
        monkeypatch.setattr(sdp, "solve", counted_solve)
        args = _grid_argv(tmp_path, "bound") + ["--eps", "0.05,0.1,0.2", "--n", "1,2",
                                                "--rho", "optimize", "--class", "ppt"]
        assert cli.main(args + ["--out", str(tmp_path / "grid.csv")]) == 0
        assert built == [bounds.TestClass.PPT] * 2
        assert len(solved) == 6 and len(set(map(id, solved))) == 2


class TestDepolCommand:
    @pytest.mark.parametrize("command,form", [("depol", "csv"), ("depol", "json"),
                                              ("bound", "csv"), ("bound", "json"),
                                              ("classical", "csv"), ("classical", "json")])
    def test_byte_determinism(self, tmp_path, command, form):
        args = _grid_argv(tmp_path, command) + {
            "depol": ["--eps", "1e-2,1e-4", "--n", "1..20"],
            "bound": ["--eps", "0.05,0.25", "--n", "1,2"],
            "classical": ["--eps", "0.05,0.25"]}[command]
        out1, out2 = tmp_path / "a.out", tmp_path / "b.out"
        assert cli.main(args + ["--format", form, "--out", str(out1)]) == 0
        assert cli.main(args + ["--format", form, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_reparsed_values_match_in_memory(self, tmp_path):
        out = tmp_path / "grid.csv"
        cli.main(["depol", "--d", "2", "--p", "0.15", "--eps", "0.05",
                  "--n", "1,2", "--out", str(out)])
        lines = out.read_text().strip().splitlines()[1:]
        for line, n in zip(lines, (1, 2)):
            fields = line.split(",")
            res = bounds.depolarising_exact(2, 0.15, n, 0.05)
            assert fields[2] == "ALL"
            assert fields[3] == cli.fmt(res.beta)
            assert float(fields[4]) == pytest.approx(res.bits, rel=1e-11)
            assert float(fields[5]) == pytest.approx(res.bits / n, rel=1e-11)

    def test_json_format(self, tmp_path):
        out = tmp_path / "grid.json"
        cli.main(["depol", "--d", "2", "--p", "0.15", "--eps", "0.05",
                  "--n", "1", "--out", str(out), "--format", "json"])
        rows = json.loads(out.read_text())
        assert len(rows) == 1
        assert rows[0]["test_class"] == "ALL"
        assert rows[0]["bound_bits"] == pytest.approx(0.5849625, abs=1e-6)

    def test_large_n_beta_serialized_as_string_in_json(self, tmp_path):
        out = tmp_path / "grid.json"
        cli.main(["depol", "--d", "2", "--p", "0.15", "--eps", "0.01",
                  "--n", "1000", "--out", str(out), "--format", "json"])
        rows = json.loads(out.read_text())
        beta = rows[0]["beta"]
        assert isinstance(beta, str)
        assert mp.mpf(beta) > 0

    # The output bytes are part of the interface, so they are frozen as
    # digests. Only depol is frozen: its arithmetic is integer and mpmath,
    # so its bytes do not depend on the platform, while the SDP commands'
    # last digits follow the BLAS build's rounding.
    @pytest.mark.parametrize("args,form,digest", [
        pytest.param(["--eps", "1e-2,1e-4,1e-6", "--n", "1..400"], "csv",
                     "a8659b85fa6664d1d5fe0c03e2362453b35248aa19dc88f9b82d393ba6eaa1ff",
                     id="sweep-csv"),
        pytest.param(["--eps", "1e-2,1e-4,1e-6", "--n", "1..400"], "json",
                     "420e90f74db0ac83c21e92d886be9873dadf371545ff151222c630583a40131b",
                     id="sweep-json"),
        # beta = 1.05e-366 is below float64 range, so it is a JSON string
        pytest.param(["--eps", "0.01", "--n", "1000"], "json",
                     "8ea41b41a8ada710f890f37b2f2b15abe0028b0e469e865f6b8926bf04bd289a",
                     id="n1000-json")])
    def test_bytes_match_frozen_digest(self, tmp_path, args, form, digest):
        out = tmp_path / f"grid.{form}"
        assert cli.main(["depol", "--d", "2", "--p", "0.15", *args,
                         "--format", form, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestOtherCommands:
    def test_capacity(self, tmp_path, capsys):
        path = _write_depol_choi(tmp_path / "depol.json")
        assert cli.main(["capacity", "--channel", str(path)]) == 0
        value = float(capsys.readouterr().out.strip())
        assert value == pytest.approx(1.31428, abs=1e-5)

    def test_bound_identity_ppt(self, tmp_path):
        chan = _write_identity_channel(tmp_path / "id.json")
        out = tmp_path / "out.csv"
        rc = cli.main(["bound", "--channel", str(chan), "--eps", "1e-9",
                       "--class", "ppt", "--rho", "maximally-mixed",
                       "--out", str(out)])
        assert rc == 0
        fields = out.read_text().strip().splitlines()[1].split(",")
        assert fields[2] == "PPT"
        assert float(fields[4]) == pytest.approx(1.0, abs=1e-4)

    def test_bound_optimized_input(self, tmp_path):
        chan = _write_identity_channel(tmp_path / "id.json")
        out = tmp_path / "out.csv"
        rc = cli.main(["bound", "--channel", str(chan), "--eps", "0.05",
                       "--rho", "optimize", "--out", str(out)])
        assert rc == 0
        bits = float(out.read_text().strip().splitlines()[1].split(",")[4])
        assert bits == pytest.approx(2 - np.log2(0.95), abs=1e-4)

    def test_bound_two_uses(self, tmp_path):
        chan = _write_identity_channel(tmp_path / "id.json")
        out = tmp_path / "out.csv"
        rc = cli.main(["bound", "--channel", str(chan), "--eps", "1e-9",
                       "--n", "2", "--out", str(out)])
        assert rc == 0
        fields = out.read_text().strip().splitlines()[1].split(",")
        assert int(fields[0]) == 2
        assert float(fields[4]) == pytest.approx(4.0, abs=1e-3)
        assert float(fields[5]) == pytest.approx(2.0, abs=1e-3)

    def test_bound_two_optimised_uses(self, tmp_path):
        chan = _write_identity_channel(tmp_path / "id.json")
        out = tmp_path / "out.csv"
        rc = cli.main(["bound", "--channel", str(chan), "--eps", "0.05", "--n", "1,2",
                       "--rho", "optimize", "--out", str(out)])
        assert rc == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        assert [int(r[0]) for r in rows] == [1, 2]
        for n, row in zip((1, 2), rows):
            assert float(row[4]) == pytest.approx(2 * n - np.log2(0.95), abs=1e-4)

    def test_bound_state_file_loaded_once(self, tmp_path, monkeypatch):
        chan = _write_identity_channel(tmp_path / "id.json")
        state = tmp_path / "rho.json"
        state.write_text(json.dumps({"dim": 2, "data": _mat_to_pairs(np.eye(2) / 2)}))
        loads = []

        def counting_load(path):
            loads.append(path)
            return quantum.maximally_mixed(2)

        monkeypatch.setattr(cli, "load_state", counting_load)
        assert cli.main(["bound", "--channel", str(chan), "--eps", "0.05,0.1,0.2",
                         "--rho", str(state), "--out", str(tmp_path / "out.csv")]) == 0
        assert loads == [str(state)]

    def test_classical_command(self, tmp_path, capsys):
        spec = tmp_path / "w.json"
        spec.write_text(json.dumps({"data": [[0.89, 0.11], [0.11, 0.89]]}))
        out = tmp_path / "out.csv"
        rc = cli.main(["classical", "--channel", str(spec), "--eps", "0.05",
                       "--out", str(out)])
        assert rc == 0
        assert out.read_text().startswith(cli.CSV_HEADER)

    def test_classical_with_input_distribution_file(self, tmp_path):
        spec = tmp_path / "w.json"
        spec.write_text(json.dumps({"data": [[0.89, 0.11], [0.11, 0.89]]}))
        pfile = tmp_path / "p.json"
        pfile.write_text(json.dumps([0.5, 0.5]))
        out = tmp_path / "out.csv"
        rc = cli.main(["classical", "--channel", str(spec), "--eps", "0.05",
                       "--p", str(pfile), "--out", str(out)])
        assert rc == 0
        assert float(out.read_text().strip().splitlines()[1].split(",")[4]) > 0.0

    def test_chi_command(self, tmp_path, capsys):
        chan = _write_identity_channel(tmp_path / "id.json")
        ens = tmp_path / "ens.json"
        ens.write_text(json.dumps({
            "probs": [0.5, 0.5],
            "states": [_mat_to_pairs(np.diag([1.0, 0.0]).astype(complex)),
                       _mat_to_pairs(np.diag([0.0, 1.0]).astype(complex))]}))
        assert cli.main(["chi", "--channel", str(chan), "--ensemble", str(ens),
                         "--eps", "0.05"]) == 0
        value = float(capsys.readouterr().out.strip())
        assert value > 0.9

    def test_minentropy_depol(self, capsys):
        rc = cli.main(["minentropy", "--depol-d", "2", "--depol-p", "0.15",
                       "--eps", "0.25", "--n", "20", "--rate", "30.0"])
        assert rc == 0
        value = float(capsys.readouterr().out.strip())
        assert value == pytest.approx(-np.log2(0.75), abs=1e-9)


class TestExitCodes:
    def test_validation_error_is_2(self, tmp_path):
        assert cli.main(["bound", "--channel", str(tmp_path / "missing.json"),
                         "--eps", "0.05"]) == 2
        assert cli.main(["depol", "--d", "2", "--p", "2.0", "--eps", "0.05",
                         "--n", "1"]) == 2

    @pytest.mark.parametrize("extra", [["--n", "16"], ["--n", "140"],
                                       ["--rho", "optimize", "--n", "20"],
                                       ["--rho", "optimize", "--n", "100"],
                                       ["--rho", "optimize", "--n", "400"],
                                       ["--n", "1000000000000"],
                                       ["--rho", "optimize", "--n", "1000000000000"]])
    def test_many_uses_are_2_with_the_size_message(self, tmp_path, monkeypatch, capsys, extra):
        # sixteen fixed uses have more Hermitian rows than len() counts, 140
        # need more GiB than a float holds, and the optimised programs have
        # more Schur-Weyl sub-blocks than memory holds and R rows over the
        # limit, checked before the frames: each is sized in closed form and
        # rejected before the channel, at 10^12 uses before any n-use
        # dimension or any sum over the uses
        def unbuilt(*args):
            raise AssertionError("tensor_power ran for a rejected program")

        chan = _write_depol_choi(tmp_path / "depol.json")
        monkeypatch.setattr(quantum, "tensor_power", unbuilt)
        assert cli.main(["bound", "--channel", str(chan), "--eps", "0.1", *extra]) == 2
        assert "GiB of constraint coefficients" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [["--eps", "0.9999999999"], ["--eps", "0.05", "--n", "4"]])
    def test_unsupported_bound_is_2(self, tmp_path, extra):
        # eps above 1 - 1e-9; four uses need about 257 GiB of coefficients
        chan = _write_depol_choi(tmp_path / "depol.json")
        assert cli.main(["bound", "--channel", str(chan), *extra]) == 2

    # a complex Choi matrix keeps the complex coordinates, where the PPT program
    # is about 4.1 GiB; the depolarising channel's real programs are admitted
    @pytest.mark.parametrize("cls", ["ppt"])
    def test_four_optimised_uses_are_2_before_the_channel(self, tmp_path, monkeypatch, cls):
        def unbuilt(*args):
            raise AssertionError("tensor_power ran for a rejected program")

        chan = _write_phase_depol_kraus(tmp_path / "phase-depol.json")
        monkeypatch.setattr(quantum, "tensor_power", unbuilt)
        assert cli.main(["bound", "--channel", str(chan), "--eps", "0.05", "--n", "4",
                         "--class", cls, "--rho", "optimize"]) == 2

    @pytest.mark.parametrize("command", [
        ["bound", "--eps", "0.05", "--n", "4"],
        ["bound", "--eps", "0.05", "--n", "4", "--class", "ppt"],
        ["minentropy", "--eps", "0.25", "--n", "4", "--rate", "30"]])
    def test_four_fixed_input_uses_are_2_before_the_channel(self, tmp_path, monkeypatch,
                                                            command):
        def unbuilt(*args):
            raise AssertionError("tensor_power ran for a rejected program")

        chan = _write_depol_choi(tmp_path / "depol.json")
        monkeypatch.setattr(quantum, "tensor_power", unbuilt)
        assert cli.main([*command, "--channel", str(chan)]) == 2

    @pytest.mark.parametrize("rep,data", [
        ("kraus", 5), ("choi", [1.0, 0.0, 0.0, 1.0]),
        ("kraus", [[[[None, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]),
        pytest.param("kraus", [[[[HUGE, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]],
                     id="kraus-huge"),
        pytest.param("choi", [[[HUGE if r == c == 0 else 0.0, 0.0] for c in range(4)]
                              for r in range(4)], id="choi-huge"),
        # dimensions that are not integral numbers, on otherwise valid data
        pytest.param("kraus", {"dimIn": 2.7}, id="kraus-dimIn-2.7"),
        pytest.param("kraus", {"dimIn": True, "dimOut": True, "data": [[[[1.0, 0.0]]]]},
                     id="kraus-dims-bool")])
    def test_malformed_channel_data_is_2(self, tmp_path, rep, data):
        spec = {"dimIn": 2, "dimOut": 2, "representation": rep, "data": data}
        if isinstance(data, dict):  # dimensions over the 2x2 identity channel
            spec.update({"data": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]],
                         **data})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        assert cli.main(["bound", "--channel", str(path), "--eps", "0.05"]) == 2

    @pytest.mark.parametrize("ensemble", [{"probs": [1.0], "states": [5]},
                                          {"probs": [None], "states": [[[[1.0, 0.0]]]]},
                                          {"probs": 5, "states": []},
                                          {"probs": [HUGE], "states": [[[[1.0, 0.0]]]]},
                                          {"probs": [1.0], "states": [[[[HUGE, 0.0]]]]}])
    def test_malformed_ensemble_is_2(self, tmp_path, ensemble):
        chan = _write_identity_channel(tmp_path / "id.json")
        path = tmp_path / "ens.json"
        path.write_text(json.dumps(ensemble))
        assert cli.main(["chi", "--channel", str(chan), "--ensemble", str(path),
                         "--eps", "0.05"]) == 2

    @pytest.mark.parametrize("state", [
        {"dim": None, "data": []}, [[[1.0, 0.0]]],
        {"dim": 2.9, "data": _mat_to_pairs(np.eye(2) / 2)},
        {"dim": False, "data": []},
        {"dim": 1, "data": [[[HUGE, 0.0]]]}])
    def test_malformed_state_is_2(self, tmp_path, state):
        chan = _write_identity_channel(tmp_path / "id.json")
        path = tmp_path / "rho.json"
        path.write_text(json.dumps(state))
        assert cli.main(["bound", "--channel", str(chan), "--eps", "0.05",
                         "--rho", str(path)]) == 2

    @pytest.mark.parametrize("channel,p", [
        ([[0.9, 0.1], [0.1, 0.9]], None),
        ({"data": [[0.9, 0.1], [0.1, 0.9]]}, {"p": [0.5, 0.5]}),
        ({"data": [[0.9, 0.1], [0.1, 0.9]]}, [{"p": 0.5}, 0.5]),
        ({"data": [[0.9, 0.1], [0.1, 0.9]]}, [None, 0.5]),
        ({"data": [[0.9, HUGE], [0.1, 0.9]]}, None),
        ({"data": [[0.9, 0.1], [0.1, 0.9]]}, [HUGE, 0.5])])
    def test_malformed_classical_input_is_2(self, tmp_path, channel, p):
        path = tmp_path / "w.json"
        path.write_text(json.dumps(channel))
        argv = ["classical", "--channel", str(path), "--eps", "0.05"]
        if p is not None:
            (tmp_path / "p.json").write_text(json.dumps(p))
            argv += ["--p", str(tmp_path / "p.json")]
        assert cli.main(argv) == 2

    @pytest.mark.parametrize("command,flag", [
        pytest.param(["chi", "--eps", "0.05,0.1"], "--eps", id="chi-eps"),
        pytest.param(["minentropy", "--eps", "0.25,0.9", "--n", "20"], "--eps",
                     id="minentropy-eps"),
        pytest.param(["minentropy", "--eps", "0.25", "--n", "20,1..5"], "--n",
                     id="minentropy-n")])
    def test_scalar_flag_with_several_values_is_2(self, tmp_path, capsys, command, flag):
        if command[0] == "chi":
            chan = _write_identity_channel(tmp_path / "id.json")
            ens = tmp_path / "ens.json"
            ens.write_text(json.dumps({"probs": [1.0], "states": [_mat_to_pairs(np.eye(2) / 2)]}))
            command = [*command, "--channel", str(chan), "--ensemble", str(ens)]
        else:
            command = [*command, "--depol-d", "2", "--depol-p", "0.15", "--rate", "30"]
        assert cli.main(command) == 2
        assert f"{flag} takes one value" in capsys.readouterr().err

    @pytest.mark.parametrize("rate", ["nan", "inf", "-1"])
    def test_minentropy_rate_that_is_not_bits_is_2(self, capsys, rate):
        assert cli.main(["minentropy", "--depol-d", "2", "--depol-p", "0.15", "--eps", "0.25",
                         "--n", "20", f"--rate={rate}"]) == 2
        assert "code rate" in capsys.readouterr().err

    def test_minentropy_without_channel_is_2(self):
        assert cli.main(["minentropy", "--eps", "0.25", "--rate", "30.0"]) == 2

    # a channel file with the depolarising flags: one source would be ignored
    @pytest.mark.parametrize("flags,message", [
        pytest.param(["--depol-d", "2", "--depol-p", "1.0"], "one source", id="depol-d"),
        pytest.param(["--depol-p", "1.0"], "--depol-p goes with --depol-d", id="depol-p")])
    def test_minentropy_with_two_sources_is_2(self, tmp_path, capsys, flags, message):
        chan = _write_depol_choi(tmp_path / "depol.json")
        assert cli.main(["minentropy", "--channel", str(chan), *flags, "--eps", "0.25",
                         "--n", "3", "--rate", "1.5"]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    @pytest.mark.parametrize("argv", [
        pytest.param(["depol", "--d", str(HUGE), "--p", "0.15", "--n", "1"], id="depol-d"),
        pytest.param(["depol", "--d", "2", "--p", "0.15", "--n", str(HUGE)], id="depol-n"),
        pytest.param(["minentropy", "--depol-d", str(HUGE), "--n", "1", "--rate", "30"],
                     id="minentropy-depol-d")])
    def test_integer_flag_beyond_float_range_is_2(self, capsys, argv):
        assert cli.main([*argv, "--eps", "0.25"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_solver_failure_is_3(self, tmp_path, monkeypatch):
        chan = _write_identity_channel(tmp_path / "id.json")

        def boom(*args, **kwargs):
            raise bounds.SolverFailure("stalled")

        monkeypatch.setattr(bounds, "ea_bound", boom)
        assert cli.main(["bound", "--channel", str(chan), "--eps", "0.05"]) == 3


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


class TestThreadDefault:
    @pytest.mark.parametrize("caller,want", [({}, "1"),
                                             ({"OPENBLAS_NUM_THREADS": "2"}, "2"),
                                             ({"OMP_NUM_THREADS": "2"}, "None")])
    def test_import_sets_one_openblas_thread_unless_the_caller_chose(self, caller, want):
        env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
        env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c",
             "import os, qconv; print(os.environ.get('OPENBLAS_NUM_THREADS'))"],
            env={**env, **caller}, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == want
