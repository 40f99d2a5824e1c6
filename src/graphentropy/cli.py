"""Command-line interface binding all modules.

Machine-readable results go to stdout or --out; diagnostics go to stderr.
Exit codes: 0 success, 2 invalid arguments, 3 infeasible target, 4 not
converged (only from `entropy`), 5 internal invariant violation.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import traceback
from dataclasses import astuple, fields

# only the standard library and the error types load with the CLI; each
# handler imports the modules it runs, so `region` runs without numpy
from .errors import (
    EmptyTable,
    FormatError,
    GraphEntropyError,
    Infeasible,
    NoTransitionFound,
    ValueOutOfRange,
    open_path,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_NOT_CONVERGED = 4
EXIT_INVARIANT = 5

# ergm --curve's beta2 range and step count when --beta2-min, --beta2-max or
# --steps is not given
CURVE_BETA2 = (0.6, 2.0)
CURVE_STEPS = 8


def _sanitize(obj):
    """JSON-safe copy: numpy to native, non-finite floats to null."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if hasattr(obj, "tolist"):  # a numpy array or scalar, to native lists and numbers
        return _sanitize(obj.tolist())
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    return obj


def _emit(chunks, out_path):
    """Write each string of chunks, in turn, to the file at out_path, or to
    stdout when none is given."""
    if out_path:
        with open_path("output", out_path, "w") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _emit_json(payload, out_path):
    _emit([json.dumps(_sanitize(payload), indent=2, sort_keys=True) + "\n"], out_path)


def _emit_csv(header, rows, out_path):
    """CSV with a header line and one line per row: repr for floats (so the
    values round-trip and nan prints as nan), 0 or 1 for bools, str for
    everything else.  Each line is written as it is formatted, so the text
    of a long table is never held whole."""
    _emit((",".join(repr(v) if isinstance(v, float) else str(int(v)) if isinstance(v, bool)
                    else str(v) for v in row) + "\n"
           for row in itertools.chain([header], rows)), out_path)


def _table(doc, name, keys):
    """doc, checked to be a JSON object with no key outside `keys`."""
    if not isinstance(doc, dict):
        raise FormatError(f"{name} must be a JSON object, got {doc!r}")
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise FormatError(f"unknown {name} keys {unknown}; accepted: {list(keys)}")
    return doc


def _load_config(args, spec=None):
    """OptimConfig from, in order: the defaults, the --config file's optim
    table, the scan spec's optim table, --m, then --seed.  Each layer must
    make a valid OptimConfig by itself, so a bad value is an error even where
    a later layer overrides it.  Each file's optim, if present, must be a
    table.  A file cannot set warm_start."""
    from .problem import OptimConfig

    keys = [f.name for f in fields(OptimConfig) if f.name != "warm_start"]
    layers = []
    if args.config:
        with open_path("--config", args.config) as fh:
            doc = _table(json.load(fh), "config", ("version", "optim"))
        if doc.get("version") != 1:
            raise FormatError("config must be a JSON object with \"version\": 1")
        layers.append(doc.get("optim", {}))
    if spec is not None:
        layers.append(spec.get("optim", {}))
    flags = {"m": getattr(args, "m", None), "seed": args.seed}
    layers.append({k: v for k, v in flags.items() if v is not None})
    values = {}
    for layer in layers:
        OptimConfig(**_table(layer, "optim", keys))
        values.update(layer)
    return OptimConfig(**values)


def _thread_count(text):
    """argparse type for --threads: a positive integer, or 'auto' for every
    CPU this process may run on (sched_getaffinity is Linux-only)."""
    if text == "auto":
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    if not (text.isdigit() and int(text) > 0):
        raise argparse.ArgumentTypeError(f"want a positive integer or 'auto', got {text!r}")
    return int(text)


def _threads(args) -> int:
    return args.threads or 1


def _reject_flags(args, *names, mode=""):
    """A flag the command (in `mode`) has no use for is an error, not a flag
    to ignore: region, census and ergm --curve run no solver, verify's
    solver settings are fixed, region, entropy and ergm run no worker pool,
    and only ergm --curve draws an SVG or reads a beta2 range."""
    given = [f"--{name.replace('_', '-')}" for name in names if getattr(args, name) is not None]
    if given:
        raise ValueOutOfRange(f"{args.command}{mode} takes no {' or '.join(given)}")


def _entropy_payload(res):
    return {
        "s": res.s_value,
        "target": {"e": res.target.e, "t": res.target.t},
        "achieved": {"e": res.achieved.e, "t": res.achieved.t},
        "beta1": res.beta1,
        "beta2": res.beta2,
        "el_residual_norm": res.el_residual_norm,
        "converged": res.converged,
        "multistart_values": res.multistart_values,
        "graphon": res.g_star.values,
    }


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_entropy(args):
    from .problem import DensityPair, Motif, region_precheck

    _reject_flags(args, "threads")
    cfg = _load_config(args)
    motif = Motif.parse(args.motif)
    target = DensityPair(e=args.e, t=args.t)
    # a target outside the proven region exits here, before numpy loads
    region_precheck(target, motif)
    from .optimize import maximize_entropy

    res = maximize_entropy(target, motif, cfg)
    _emit_json(_entropy_payload(res), args.out)
    return EXIT_OK if res.converged else EXIT_NOT_CONVERGED


def _cmd_scan(args):
    from . import phase as phase_mod
    from .problem import Motif

    with open_path("--spec", args.spec) as fh:
        doc = _table(json.load(fh), "scan spec",
                     ("e_grid", "t_grid", "relative", "motif", "optim"))
    cfg = _load_config(args, doc)
    # ScanSpec and Motif.parse check the values; a missing grid is None
    spec = phase_mod.ScanSpec(
        e_grid=doc.get("e_grid"),
        t_grid=doc.get("t_grid"),
        relative=doc.get("relative", True),
        motif=Motif.parse(doc.get("motif", "triangle")),
        config=cfg,
    )
    table = phase_mod.phase_diagram_scan(spec)
    _emit_csv([f.name for f in fields(phase_mod.ScanRow)], map(astuple, table), args.out)
    if args.svg:
        from .figures import heatmap_svg

        _emit([heatmap_svg(table, spec.motif)], args.svg)
    return EXIT_OK


def _cmd_crease(args):
    from . import phase as phase_mod
    from .problem import Motif

    cfg = _load_config(args)
    motif = Motif.parse(args.motif)
    verdicts = phase_mod.crease_report(args.e, motif, cfg)
    payload = [{**{f.name: getattr(v, f.name) for f in fields(v) if f.name != "scan"},
                "left_exponent_fit": v.scan.left_exponent_fit,
                "bounds_all_hold": None if v.scan.bound_checks is None
                else v.scan.bound_checks["all_hold"]}
               for v in verdicts]
    _emit_json(payload, args.out)
    return EXIT_OK


def _cmd_region(args):
    from . import region as region_mod

    _reject_flags(args, "config", "seed", "threads")
    _emit_csv(("e", "upper", "er", "envelope"), region_mod.boundary_table(args.samples),
              args.out)
    return EXIT_OK


def _cmd_ergm(args):
    from . import ergm as ergm_mod

    if args.curve:
        _reject_flags(args, "config", "seed", "threads", mode=" --curve")
        rows = ergm_mod.transition_curve(
            CURVE_BETA2[0] if args.beta2_min is None else args.beta2_min,
            CURVE_BETA2[1] if args.beta2_max is None else args.beta2_max,
            CURVE_STEPS if args.steps is None else args.steps)
        _emit_csv(("beta2", "beta1_critical", "u_low", "u_high"), rows, args.out)
        if args.svg:
            from .figures import transition_curve_svg

            _emit([transition_curve_svg(rows)], args.svg)
        return EXIT_OK
    _reject_flags(args, "svg", "beta2_min", "beta2_max", "steps", "threads",
                  mode=" --verify-thm5" if args.verify_thm5 else " --grid")
    cfg = _load_config(args)
    if args.verify_thm5:
        report = ergm_mod.verify_t_le_e_cubed(ergm_mod.THEOREM5_GRID, cfg)
        _emit_json(report, args.out)
        return EXIT_OK if not report["violations"] else EXIT_INVARIANT
    if len(args.grid) != 6:
        raise ValueOutOfRange("--grid needs b1lo,b1hi,n1,b2lo,b2hi,n2")
    b1lo, b1hi, n1, b2lo, b2hi, n2 = args.grid
    # a whole count becomes an int; NaN, an infinity or a fraction stays a float
    n1, n2 = (int(n) if n.is_integer() else n for n in (n1, n2))
    rows = []
    for p in ergm_mod.parameter_grid(b1lo, b1hi, n1, b2lo, b2hi, n2):
        r = ergm_mod.psi_full(p, cfg)
        d = r.maximizer_densities
        rows.append((p.beta1, p.beta2, r.psi, d.e, d.t, r.degenerate))
    _emit_csv(("beta1", "beta2", "psi", "e", "t", "degenerate"), rows, args.out)
    return EXIT_OK


def _cmd_census(args):
    from . import census as census_mod

    _reject_flags(args, "config", "seed")
    table = census_mod.enumerate_census(args.n, threads=_threads(args))
    _emit_csv(("n", "edges", "triangles", "count"),
              [(table.n, *key, table.counts[key]) for key in sorted(table.counts)], args.out)
    return EXIT_OK


def _cmd_census_compare(args):
    from . import census as census_mod
    from .optimize import maximize_entropy
    from .problem import DensityPair, Motif

    cfg = _load_config(args)
    # every input is checked before the census, which takes seconds at n = 8
    census_mod.check_census_args(args.n, _threads(args))
    census_mod.check_alpha(args.alpha)
    points = []
    with open_path("--points", args.points) as fh:
        header = fh.readline().strip().split(",")
        if header[:2] != ["e", "t"]:
            raise FormatError("points file needs an e,t header")
        for line in fh:
            if not line.strip():
                continue
            try:
                e, t = (float(x) for x in line.strip().split(",")[:2])
            except ValueError:
                raise FormatError(f"bad points row {line.strip()!r}") from None
            points.append(DensityPair(e=e, t=t))
    table = census_mod.enumerate_census(args.n, threads=_threads(args))

    def reference(p):
        try:
            return maximize_entropy(p, Motif.triangle(), cfg).s_value
        except Infeasible:
            return -math.inf

    report = census_mod.compare_to_variational(table, points, args.alpha, reference)
    _emit_json(report, args.out)
    return EXIT_OK


def _cmd_verify(args):
    from . import invariants
    from ._random import Generator
    from .problem import OptimConfig

    _reject_flags(args, "config")
    cfg = _load_config(args)
    rng = Generator(cfg.seed)
    # verify's sample counts; the acceptance suite runs the same checks with more
    checks = (
        (invariants.trace_inequality, rng, 200),
        (invariants.gradient_checks, rng, 10),
        (invariants.closed_form_agreement,),
        (invariants.region_geometry,),
        (invariants.census_hand_enumeration, _threads(args)),
        (invariants.convexity_derivative_paths, 200),
        (invariants.er_curve_ceiling, OptimConfig(m=8, multistart_count=2, seed=cfg.seed)),
    )
    lines, all_ok = [], True
    for check, *check_args in checks:
        try:
            ok, detail = check(*check_args)
        except Exception as exc:  # a failing invariant must not abort the suite
            print(f"{check.__name__} raised:", file=sys.stderr)
            traceback.print_exc()
            ok, detail = False, exc
        all_ok &= bool(ok)
        lines.append(f"PASS {check.__name__}\n" if ok else f"FAIL {check.__name__} ({detail})\n")
    lines.append(f"{'PASS' if all_ok else 'FAIL'} overall\n")
    _emit(lines, args.out)
    return EXIT_OK if all_ok else EXIT_INVARIANT


# ---------------------------------------------------------------------------
# Argument parsing


def _global_flags(p, suppress):
    d = argparse.SUPPRESS if suppress else None
    p.add_argument("--seed", type=int, default=d, help="RNG seed (u64)")
    p.add_argument("--threads", type=_thread_count, default=d,
                   help="census worker count, or 'auto' for every available CPU; "
                   "verify's census check reads it; scan and crease accept it, on one thread")
    p.add_argument("--out", default=d, help="machine-output file (default stdout)")
    p.add_argument("--config", default=d, help="JSON config file, version 1")


def _floats(text):
    """argparse type for a comma-separated list of floats."""
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"want comma-separated numbers, got {text!r}") from None


def _build_parser():
    # exact flags only: argparse's prefix matching would read `crease --m 4` as --motif
    p = argparse.ArgumentParser(
        prog="graphentropy",
        description="Entropy of large dense graphs under edge and motif constraints.",
        allow_abbrev=False,
    )
    _global_flags(p, suppress=False)
    # accepted both before and after the subcommand; the subparser copies use
    # SUPPRESS defaults so they never clobber values parsed up front
    shared = argparse.ArgumentParser(add_help=False)
    _global_flags(shared, suppress=True)
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, summary):
        return sub.add_parser(name, parents=[shared], allow_abbrev=False, help=summary)

    sp = command("entropy", "constrained entropy maximization")
    sp.add_argument("--e", type=float, required=True)
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--motif", default="triangle")
    sp.add_argument("--m", type=int, default=None)
    sp.set_defaults(handler=_cmd_entropy)

    sp = command("scan", "phase-diagram scan from a spec file")
    sp.add_argument("--spec", required=True)
    sp.add_argument("--svg", default=None)
    sp.set_defaults(handler=_cmd_scan)

    sp = command("crease", "one-sided analysis around t = e^k")
    sp.add_argument("--e", type=_floats, required=True, help="comma-separated e values")
    sp.add_argument("--motif", default="triangle")
    sp.set_defaults(handler=_cmd_crease)

    sp = command("region", "boundary curves table")
    sp.add_argument("--samples", type=int, required=True)
    sp.set_defaults(handler=_cmd_region)

    sp = command("ergm", "free energy and transition curve")
    mode = sp.add_mutually_exclusive_group(required=True)
    mode.add_argument("--grid", type=_floats, help="b1lo,b1hi,n1,b2lo,b2hi,n2")
    mode.add_argument("--curve", action="store_true")
    mode.add_argument("--verify-thm5", action="store_true")
    sp.add_argument("--beta2-min", type=float, default=None,
                    help=f"--curve only; default {CURVE_BETA2[0]}")
    sp.add_argument("--beta2-max", type=float, default=None,
                    help=f"--curve only; default {CURVE_BETA2[1]}")
    sp.add_argument("--steps", type=int, default=None, help=f"--curve only; default {CURVE_STEPS}")
    sp.add_argument("--svg", default=None, help="--curve only")
    sp.set_defaults(handler=_cmd_ergm)

    sp = command("census", "exact labeled-graph census")
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(handler=_cmd_census)

    sp = command("census-compare", "finite-n entropy vs the solver")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--points", required=True, help="CSV with e,t header")
    sp.set_defaults(handler=_cmd_census_compare)

    sp = command("verify", "run the cross-module invariant suite")
    sp.set_defaults(handler=_cmd_verify)
    return p


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.handler(args)
    except (Infeasible, EmptyTable) as exc:
        # an empty table to draw means every target of the scan was infeasible
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except NoTransitionFound as exc:
        print(f"no transition: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueOutOfRange, FormatError, OSError, UnicodeDecodeError,
            json.JSONDecodeError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GraphEntropyError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


def main():
    """Entry point of the `graphentropy` command and `python -m graphentropy.cli`.

    The command follows the library's one rule for BLAS threads: numpy loads
    on one OpenBLAS thread unless OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or
    OMP_NUM_THREADS is set (see `graphentropy._numpy`).  `--threads` stays the command's only parallelism.
    """
    sys.exit(run())


if __name__ == "__main__":
    main()
