"""Command-line interface.

Subcommands: f1, evolve, fockprep, landscape, sweep, validate.
Exit codes: 0 success, 2 scenario/schema error, 3 numerical-tolerance
failure, 4 convergence failure.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from ._e17 import csv_rows
from .dynamics import fock_state, rwa_crosscheck
from .errors import (
    ConvergenceFailure,
    NoSignChange,
    PositivityLoss,
    SchemaError,
    StepTooLarge,
    TruncationTooSmall,
)
from .fock import BARRIER_BRACKET, HilbertSpace, barrier_eta, f1_diagonal, f1_scalar
from .protocols import f1_landscape, run_fock_prep
from .runner import (CONVERGENCE_BUMP, check_truncation_convergence, output_dir, run, sweep,
                     time_grid, write_json, write_landscape_csv)
from .scenario import (SCHEMA_VERSION, YamlLoader, _need_int, _need_min, _need_number,
                       landscape_from_dict, parse_landscape, parse_scenario,
                       scenario_from_dict)

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_NUMERICAL = 3
EXIT_CONVERGENCE = 4


_THREADS_HELP = "accepted for existing command lines; has no effect"


@functools.cache   # built once per process: a build takes about 1.5 ms
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ionrabi",
        description="Trapped-ion spin-boson simulator beyond the Lamb-Dicke regime",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("f1", help="evaluate the nonlinear coupling f1, table it, or find zeros")
    p.add_argument("--eta", type=float, help="Lamb-Dicke parameter")
    p.add_argument("--n", type=int, help="single Fock index to evaluate")
    p.add_argument("--table", action="store_true", help="emit CSV table (columns n,f1)")
    p.add_argument("--n-max", type=int, default=60, help="table extent (default 60)")
    p.add_argument("--find-zero", type=int, metavar="N",
                   help="find the smallest eta with f1(N, eta)=0")
    p.add_argument("--bracket", type=float, nargs=2, default=BARRIER_BRACKET,
                   help="eta search bracket for --find-zero (default %s %s)" % BARRIER_BRACKET)
    p.add_argument("--out-file", help="write table here instead of stdout")

    p = sub.add_parser("evolve", help="run a scenario file")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", help=f"output directory (default ${'{'}IONRABI_OUTDIR{'}'} or ./runs)")
    p.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    p.add_argument("--check-convergence", action="store_true",
                   help="rerun at n_max+20 and require observable changes < 1e-6")

    p = sub.add_parser("fockprep", help="dissipative Fock-state preparation; writes "
                       "trajectory.csv, metadata.json and report.json")
    p.add_argument("--target", type=int, required=True, metavar="N")
    p.add_argument("--eta", type=float, help="override the blockade eta "
                   "barrier_eta(N); the truncation is the larger of 40, the thermal "
                   "start's bound and twice this eta's blockade level, and must reach N")
    p.add_argument("--nbar", type=float, default=1.0, help="initial thermal occupation")
    p.add_argument("--g-khz", type=float, default=45.24,
                   help="coupling g in 2*pi*kHz (default 45.24)")
    p.add_argument("--gamma-ratio", type=float, default=2.0)
    p.add_argument("--duration", type=float, default=100.0, help="cycles of 2*pi/g")
    p.add_argument("--points", type=int, default=201)
    p.add_argument("--out")

    p = sub.add_parser("landscape", help="log10|f1| heat-map table over (n, eta)")
    p.add_argument("--config", help="landscape config file (alternative to flags)")
    p.add_argument("--n-min", type=int, default=0)
    p.add_argument("--n-max", type=int)
    p.add_argument("--eta-min", type=float)
    p.add_argument("--eta-max", type=float)
    p.add_argument("--grid", type=int, help="number of eta points")
    p.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    p.add_argument("--out")

    p = sub.add_parser("sweep", help="run a scenario template over parameter axes")
    p.add_argument("--template", required=True)
    p.add_argument("--axis", action="append", required=True,
                   help="key.path=start:stop:count or key.path=[v1,v2,...] (repeatable)")
    p.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    p.add_argument("--out")

    p = sub.add_parser("validate", help="truncation convergence + vibrational-RWA cross-check")
    p.add_argument("--scenario", required=True)
    p.add_argument("--t-cycles", type=float, default=3.0,
                   help="cross-check span in cycles of 2*pi/g (default 3)")
    p.add_argument("--tolerance", type=float, default=0.01)
    p.add_argument("--out")
    return parser


def _cmd_f1(args) -> int:
    # the schema's number check, so that a bad value is a schema error naming the flag
    for flag, value, minimum, need in (
            ("--eta", args.eta, 0, _need_number), ("--n", args.n, 0, _need_int),
            ("--n-max", args.n_max, 0, _need_int), ("--find-zero", args.find_zero, 1, _need_int)):
        if value is not None:
            _need_min(value, minimum, flag, need)
    if args.find_zero is not None:
        lo, hi = args.bracket
        if not 0 < lo < hi:
            raise SchemaError(f"--bracket: need 0 < lo < hi, got {lo} {hi}")
        eta = barrier_eta(args.find_zero, (lo, hi))
        print(f"barrier_eta({args.find_zero}) = {eta:.12f}")
        print(f"f1({args.find_zero}, eta) = {f1_scalar(args.find_zero, eta):.3e}")
        return EXIT_OK
    if args.eta is None:
        raise SchemaError("f1: --eta is required unless --find-zero is used")
    if args.table:
        text = b"n,f1\r\n" + csv_rows([np.arange(args.n_max + 1),
                                       f1_diagonal(args.n_max, args.eta)])
        if args.out_file:
            with open(args.out_file, "wb") as fh:
                fh.write(text)
            print(f"wrote {args.out_file}")
        else:
            sys.stdout.write(text.decode("ascii"))
        return EXIT_OK
    if args.n is None:
        raise SchemaError("f1: provide --n or --table or --find-zero")
    print(f"f1({args.n}, {args.eta}) = {f1_scalar(args.n, args.eta):.17e}")
    return EXIT_OK


def _cmd_evolve(args) -> int:
    scenario = parse_scenario(args.scenario)
    result = run(scenario, out_dir=args.out, check_convergence=args.check_convergence)
    # run raises unless a requested check passes
    print(f"{scenario.name}: wrote {result.csv_path} ({result.wall_time_s:.2f}s, "
          f"convergence {'pass' if args.check_convergence else 'skipped'})")
    return EXIT_OK


# the flag that sets each field of the scenario fockprep builds and of
# landscape's grid, so that a schema error names the flag; the model's own
# check (a "fockprep.model" error) names g or eta
_FLAGS = {"model.g": "--g-khz", "model.eta": "--eta", "initial.nbar": "--nbar",
          "times.t_end": "--duration", "times.n_points": "--points",
          "lindblad.gamma_ratio": "--gamma-ratio", "n_min": "--n-min", "n_max": "--n-max",
          "eta_min": "--eta-min", "eta_max": "--eta-max", "eta_points": "--grid"}


def _from_flags(build, doc, source):
    """build(doc, source), its SchemaError naming the flag that set the field."""
    try:
        return build(doc, source)
    except SchemaError as exc:
        path, _, message = str(exc).partition(": ")
        field = path.removeprefix(f"{source}.")
        if field == "model":
            field += ".eta" if message.startswith("eta ") else ".g"
        raise SchemaError(f"{_FLAGS.get(field, path)}: {message}") from exc


def _cmd_fockprep(args) -> int:
    # barrier_eta reads --target before a scenario exists; it raises ValueError below 1
    _need_min(args.target, 1, "--target", _need_int)
    eta = args.eta if args.eta is not None else barrier_eta(args.target)
    scenario = _from_flags(scenario_from_dict, {
        "schema_version": SCHEMA_VERSION,
        "name": f"fockprep-n{args.target}",
        "model": {"kind": "NonlinearAntiJC", "g": args.g_khz, "eta": eta},
        "initial": {"kind": "thermal", "nbar": args.nbar, "qubit": "down"},
        "times": {"t_end": args.duration, "n_points": args.points},
        "lindblad": {"gamma_ratio": args.gamma_ratio},
    }, "fockprep")
    report = run_fock_prep(scenario, args.target, out_dir=args.out)
    csv_path = os.path.join(output_dir(args.out, scenario.name), "trajectory.csv")
    print(f"fockprep target {args.target}: eta={eta:.6f} "
          f"P_target={report['p_target_final']:.6f} -> {csv_path}")
    return EXIT_OK


def _cmd_landscape(args) -> int:
    if args.config:
        name, grid = parse_landscape(args.config)
    else:
        if args.n_max is None or args.eta_min is None or args.eta_max is None or args.grid is None:
            raise SchemaError("landscape: need --n-max --eta-min --eta-max --grid (or --config)")
        name = "landscape"
        grid = _from_flags(landscape_from_dict, {
            "n_min": args.n_min, "n_max": args.n_max, "eta_min": args.eta_min,
            "eta_max": args.eta_max, "eta_points": args.grid}, "landscape flags")
    out_path = os.path.join(output_dir(args.out, name), "landscape.csv")
    n_values = np.arange(grid["n_min"], grid["n_max"] + 1)
    eta_values = np.linspace(grid["eta_min"], grid["eta_max"], grid["eta_points"])
    write_landscape_csv(out_path, n_values, eta_values, f1_landscape(n_values, eta_values))
    print(f"wrote {out_path} ({len(n_values)} x {len(eta_values)})")
    return EXIT_OK


def _parse_axis(text: str):
    if "=" not in text:
        raise SchemaError(f"axis {text!r} must look like key.path=start:stop:count")
    path, spec = text.split("=", 1)
    spec = spec.strip()
    if spec.startswith("["):
        import yaml

        # read as YAML, as the field would be in a scenario file: 0 stays an
        # int.  Text that starts with "[" loads as a list or not at all
        try:
            values = yaml.load(spec, Loader=YamlLoader())
        except yaml.YAMLError as exc:
            raise SchemaError(f"axis {text!r}: expected a list such as [0, 1]") from exc
        if not values:
            raise SchemaError(f"axis {text!r}: expected a non-empty list")
        for v in values:
            _need_number(v, f"axis {text!r}")
        return path.strip(), values
    parts = spec.split(":")
    if len(parts) != 3:
        raise SchemaError(f"axis {text!r}: expected start:stop:count")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise SchemaError(f"axis {text!r}: {exc}") from exc
    _need_number(start, f"axis {text!r}")
    _need_number(stop, f"axis {text!r}")
    _need_min(count, 1, f"axis {text!r}", _need_int)
    return path.strip(), [float(v) for v in np.linspace(start, stop, count)]


def _cmd_sweep(args) -> int:
    template = parse_scenario(args.template)
    axes = [_parse_axis(a) for a in args.axis]
    index = sweep(template, axes, out_dir=args.out)
    ok = sum(entry["status"] == "ok" for entry in index)
    print(f"sweep {template.name}: {ok}/{len(index)} points succeeded")
    return EXIT_OK if ok == len(index) else EXIT_NUMERICAL


def _cmd_validate(args) -> int:
    _need_min(args.t_cycles, 0, "--t-cycles", strict=True)
    _need_min(args.tolerance, 0, "--tolerance", strict=True)
    scenario = parse_scenario(args.scenario)
    spec = scenario.model_spec()
    report = {"scenario": scenario.name}

    converged, delta, n_max, _ = check_truncation_convergence(scenario)
    report["truncation"] = {"n_max": n_max, "max_delta": delta, "converged": converged}
    print(f"truncation convergence (n_max {n_max} -> {n_max + CONVERGENCE_BUMP}): "
          f"max delta {delta:.3e} -> {'pass' if converged else 'FAIL'}")

    crosscheck_state = "skipped"
    rwa_ok = True
    tt = spec.two_tone() if spec.kind == "NonlinearQRM" and spec.eta > 0 else spec
    if tt.kind != "TwoTone":
        print("rwa cross-check: skipped (needs a NonlinearQRM with eta > 0 or a TwoTone model)")
    else:
        # |down, 0>, not the scenario's own start (ROADMAP item 9), over 61 times
        psi0 = fock_state(HilbertSpace(n_max), 0, "down")
        rep = rwa_crosscheck(tt, psi0, time_grid(tt.g, args.t_cycles, 61))
        rwa_ok = rep.max_deviation < args.tolerance
        crosscheck_state = "pass" if rwa_ok else "fail"
        report["rwa_crosscheck"] = {
            "max_deviation": rep.max_deviation,
            "tolerance": args.tolerance,
            "omega_over_nu": tt.Omega / tt.nu,
            "valid": rwa_ok,
        }
        print(f"rwa cross-check over {args.t_cycles} cycles: max deviation "
              f"{rep.max_deviation:.3e} (tolerance {args.tolerance}) -> {crosscheck_state}; "
              f"top-level population {rep.top_population:.3e} at n_max {n_max}")

    write_json(os.path.join(output_dir(args.out, scenario.name), "validation.json"), report)
    if not converged:
        return EXIT_CONVERGENCE
    if not rwa_ok:
        return EXIT_NUMERICAL
    return EXIT_OK


_COMMANDS = {
    "f1": _cmd_f1,
    "evolve": _cmd_evolve,
    "fockprep": _cmd_fockprep,
    "landscape": _cmd_landscape,
    "sweep": _cmd_sweep,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except ConvergenceFailure as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (StepTooLarge, PositivityLoss, TruncationTooSmall, NoSignChange) as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
