"""Command-line front end: channel ingestion, bound grids, CSV/JSON emission.

Subcommands: depol, bound, classical, capacity, chi, minentropy. The grid
commands (depol, bound, classical) differ only in their (n, eps) points and
the bound they evaluate; one runner evaluates each n's whole eps list in
one call, on one OpenBLAS thread unless the caller's environment sets the
thread count (see the ``qconv`` package). bound and classical build one
program per n (and test class) and solve it once per eps. The runner emits
rows with the columns

    n,epsilon,test_class,beta,bound_bits,rate_bits_per_use,wall_ms

sorted by (n, epsilon). Numbers are serialized with 12 significant digits
and no locale dependence, so identical configurations produce identical
output bytes. The wall_ms column is 0 unless --timing is passed (measured
times would break byte-for-byte reproducibility); with --timing it is the
time the bound spent on that point, and the first eps of each n carries
the build of the program. A JSON value is float()
of its CSV field, except test_class and a non-zero beta below float64
range, which stay strings. The scalar flags (chi --eps, minentropy --eps
and --n) take exactly one value, and minentropy takes one source,
--channel or --depol-d. Every number read from an input file goes through
one conversion, ``_numbers``.

Exit codes: 0 success, 2 validation error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

import mpmath as mp
import numpy as np

from . import bounds, quantum
from .bounds import SolverFailure, TestClass

CSV_HEADER = "n,epsilon,test_class,beta,bound_bits,rate_bits_per_use,wall_ms"


def fmt(x) -> str:
    """Serialize a number with 12 significant digits."""
    if isinstance(x, mp.mpf):
        return mp.nstr(x, 12)
    x = float(x)
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return f"{x:.11e}"


def _numbers(data, shape: tuple, what: str) -> np.ndarray:
    """The one conversion of numbers read from an input file: ``data`` as a
    float64 array of ``shape``, where None matches any length. Entries that
    are not numbers, integers beyond float range and any other shape raise
    ValueError naming ``what``."""
    try:
        arr = np.array(data, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{what} must be numbers: {exc}") from exc
    if arr.ndim != len(shape) or any(w is not None and w != a for a, w in zip(arr.shape, shape)):
        want = ", ".join("*" if w is None else str(w) for w in shape)
        raise ValueError(f"{what} must have shape ({want}), got {arr.shape}")
    return arr


def _complex(data, shape: tuple, what: str) -> np.ndarray:
    """Complex entries of ``shape`` given as [re, im] pairs: ``_numbers`` of
    shape (*shape, 2) viewed as complex128, each entry complex(re, im)."""
    return _numbers(data, (*shape, 2), f"{what} ([re, im] pairs)").view(complex)[..., 0]


def _dimension(value, what: str) -> int:
    """A JSON dimension as an int: an integral number, not a bool or a fraction."""
    if isinstance(value, bool) or not (isinstance(value, int)
                                       or (isinstance(value, float) and value.is_integer())):
        raise ValueError(f"{what} must be an integral number, got {value!r}")
    return int(value)


def parse_channel(spec: dict) -> quantum.QuantumChannel:
    """Build a channel from the JSON schema {dimIn, dimOut, representation, data}."""
    try:
        dim_in = _dimension(spec["dimIn"], "dimIn")
        dim_out = _dimension(spec["dimOut"], "dimOut")
        rep = spec["representation"]
        data = spec["data"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"channel spec missing field: {exc}") from exc
    if dim_in < 1 or dim_out < 1:
        raise ValueError("channel dimensions must be positive")
    if rep == "kraus":
        kraus = _complex(data, (None, dim_out, dim_in), "kraus data")
        return quantum.QuantumChannel(list(kraus), atol=1e-8)
    if rep == "choi":
        choi = _complex(data, (dim_in * dim_out, dim_in * dim_out), "choi data")
        return quantum.channel_from_choi(choi, dim_in, dim_out, atol=1e-8)
    raise ValueError(f"representation must be 'kraus' or 'choi', got {rep!r}")


def _load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _load_object(path: str) -> dict:
    spec = _load_json(path)
    if not isinstance(spec, dict):
        raise ValueError(f"{path} must hold a JSON object")
    return spec


def load_channel(path: str) -> quantum.QuantumChannel:
    return parse_channel(_load_object(path))


def load_state(path: str) -> quantum.DensityMatrix:
    spec = _load_object(path)
    d = _dimension(spec["dim"], "state dim")
    return quantum.DensityMatrix(_complex(spec["data"], (d, d), "state data"), atol=1e-8)


def load_ensemble(path: str) -> list[tuple[float, quantum.DensityMatrix]]:
    spec = _load_object(path)
    probs = _numbers(spec["probs"], (None,), "ensemble probs")
    states = _complex(spec["states"], (len(probs), None, None), "ensemble states")
    return [(float(pr), quantum.DensityMatrix(st, atol=1e-8)) for pr, st in zip(probs, states)]


def parse_eps_list(text: str) -> list[float]:
    values = [float(tok) for tok in text.split(",") if tok]
    if not values or any(not 0.0 < v < 1.0 for v in values):
        raise ValueError(f"eps values must lie in (0, 1): {text!r}")
    return values


class _NValues:
    """The n values of an --n list in order, each a..b held as a range."""

    def __init__(self, ranges: list[range]):
        self.ranges = ranges

    def __len__(self) -> int:
        return sum(map(len, self.ranges))

    def __iter__(self):
        return itertools.chain.from_iterable(self.ranges)

    def __eq__(self, other) -> bool:
        return list(self) == list(other)


def parse_n_list(text: str) -> _NValues:
    """Comma-separated n values and inclusive a..b ranges, none expanded."""
    ranges = []
    for tok in filter(None, (t.strip() for t in text.split(","))):
        a, b = (int(x) for x in tok.split("..")) if ".." in tok else (int(tok),) * 2
        if b < a:
            raise ValueError(f"n range {tok!r} ends below its start")
        ranges.append(range(a, b + 1))
    if not ranges or min(r.start for r in ranges) < 1:
        raise ValueError(f"n values must be >= 1: {text!r}")
    return _NValues(ranges)


def emit_rows(rows: list[tuple], path: str, form: str) -> None:
    """Write ``(n, eps, test_class, beta, bits, wall_ms)`` rows sorted by (n, eps)."""
    rows = sorted(rows, key=lambda r: r[:2])
    lines = [[fmt(n), fmt(eps), cls, fmt(beta), fmt(bits), fmt(bits / n), fmt(ms)]
             for n, eps, cls, beta, bits, ms in rows]
    if form == "csv":
        text = "\n".join([CSV_HEADER] + [",".join(fields) for fields in lines]) + "\n"
    else:
        names = CSV_HEADER.split(",")
        payload = []
        for row, fields in zip(rows, lines):
            obj = {name: value if name == "test_class" else float(value)
                   for name, value in zip(names, fields)}
            if obj["beta"] == 0.0 and row[3] != 0:
                obj["beta"] = fields[3]  # beta below float64 range stays a string
            payload.append(obj)
        text = json.dumps(payload, indent=1) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _grid(args, ns, eps_list: list[float], bound) -> int:
    """Evaluate ``bound(n, eps_list)``, one result per eps, at each n and emit
    the rows; a row's wall_ms is its result's ``diagnostics["wall_s"]``."""
    rows = []
    for n in ns:
        for eps, res in zip(eps_list, bound(n, eps_list), strict=True):
            wall_ms = res.diagnostics["wall_s"] * 1e3 if args.timing else 0.0
            rows.append((n, eps, res.test_class.value, res.beta, res.bits, wall_ms))
    emit_rows(rows, args.out, args.format)
    return 0


def _single(values, flag: str):
    """The one value of a scalar flag; a list or range of several is an error."""
    if len(values) != 1:
        raise ValueError(f"{flag} takes one value, got {len(values)}")
    return next(iter(values))


def cmd_depol(args) -> int:
    eps_list = parse_eps_list(args.eps)
    return _grid(args, parse_n_list(args.n), eps_list,
                 lambda n, eps_list: [bounds.depolarising_exact(args.d, args.p, n, eps)
                                      for eps in eps_list])


def cmd_bound(args) -> int:
    channel = load_channel(args.channel)
    eps_list = parse_eps_list(args.eps)
    ns = parse_n_list(args.n)
    cls = TestClass(args.cls.upper())
    opt = args.rho == "optimize"
    rho = None if opt or args.rho == "maximally-mixed" else load_state(args.rho)
    # every n must fit its program (and the state) before the first solve, not when
    # the grid reaches it; the largest first, so that a long range is rejected at once
    for n in itertools.chain([max(r[-1] for r in ns.ranges)], ns):
        if opt:
            bounds.check_optimised_input(channel, n)
        else:
            bounds.check_fixed_input(channel, rho, n)
    return _grid(args, ns, eps_list, lambda n, eps_list: (
        bounds.ea_bound_opt_rho(channel, eps_list, cls, n) if opt
        else bounds.ea_bound(channel, rho, eps_list, cls, n)))


def cmd_classical(args) -> int:
    w = _numbers(_load_object(args.channel)["data"], (None, None), "classical channel data")
    p = None
    if args.p and args.p != "optimize":
        p = _numbers(_load_json(args.p), (None,), "input distribution")
    return _grid(args, [1], parse_eps_list(args.eps),
                 lambda n, eps_list: bounds.classical_converse(w, eps_list, p))


def cmd_capacity(args) -> int:
    channel = load_channel(args.channel)
    if args.rho == "maximally-mixed":
        rho = quantum.maximally_mixed(channel.dim_in)
    else:
        rho = load_state(args.rho)
    print(fmt(quantum.mutual_information(channel, rho)))
    return 0


def cmd_chi(args) -> int:
    channel = load_channel(args.channel)
    ensemble = load_ensemble(args.ensemble)
    eps = _single(parse_eps_list(args.eps), "--eps")
    print(fmt(bounds.wang_renner_chi(ensemble, channel, eps)))
    return 0


def cmd_minentropy(args) -> int:
    eps = _single(parse_eps_list(args.eps), "--eps")
    n = _single(parse_n_list(args.n), "--n")
    if (args.channel is None) == (args.depol_d is None):
        raise ValueError("minentropy takes one source: --channel or --depol-d")
    if args.depol_d is None:
        if args.depol_p is not None:
            raise ValueError("--depol-p goes with --depol-d, not --channel")
        res = bounds.ea_bound_opt_rho(load_channel(args.channel), eps, TestClass.ALL, n)
    else:
        res = bounds.depolarising_exact(args.depol_d, args.depol_p or 0.0, n, eps)
    print(fmt(bounds.noisy_storage_minentropy(args.rate, res)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qconv",
        description="Finite-blocklength converse bounds for quantum channels")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--out", default="-", help="output path, or - for stdout")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--timing", action="store_true",
                        help="record measured wall_ms (breaks byte determinism)")

    sp = sub.add_parser("depol", help="exact bound for the depolarising channel")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--eps", required=True, help="comma-separated list in (0,1)")
    sp.add_argument("--n", required=True, help="list/range, e.g. 1..1000 or 1,2,10")
    add_common(sp)
    sp.set_defaults(func=cmd_depol)

    sp = sub.add_parser("bound", help="SDP converse bound for a channel file")
    sp.add_argument("--channel", required=True)
    sp.add_argument("--eps", required=True)
    sp.add_argument("--n", default="1")
    sp.add_argument("--class", dest="cls", choices=("all", "ppt"), default="all")
    sp.add_argument("--rho", default="maximally-mixed",
                    help="maximally-mixed, optimize, or a state JSON path")
    add_common(sp)
    sp.set_defaults(func=cmd_bound)

    sp = sub.add_parser("classical", help="converse for a classical stochastic matrix")
    sp.add_argument("--channel", required=True, help="JSON with 'data' = column-stochastic matrix")
    sp.add_argument("--eps", required=True)
    sp.add_argument("--p", default="optimize", help="'optimize' or a JSON distribution path")
    add_common(sp)
    sp.set_defaults(func=cmd_classical)

    sp = sub.add_parser("capacity", help="quantum mutual information of a channel")
    sp.add_argument("--channel", required=True)
    sp.add_argument("--rho", default="maximally-mixed")
    sp.set_defaults(func=cmd_capacity)

    sp = sub.add_parser("chi", help="fixed-ensemble hypothesis-testing bound")
    sp.add_argument("--channel", required=True)
    sp.add_argument("--ensemble", required=True)
    sp.add_argument("--eps", required=True)
    sp.set_defaults(func=cmd_chi)

    sp = sub.add_parser("minentropy", help="noisy-storage min-entropy guarantee")
    sp.add_argument("--channel")
    sp.add_argument("--depol-d", type=int)
    sp.add_argument("--depol-p", type=float, help="depolarising parameter, default 0")
    sp.add_argument("--eps", required=True)
    sp.add_argument("--n", default="1")
    sp.add_argument("--rate", type=float, required=True,
                    help="total bits pushed through the storage channel")
    sp.set_defaults(func=cmd_minentropy)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OverflowError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
