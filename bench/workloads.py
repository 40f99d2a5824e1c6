"""The two benchmark workloads: their fixed operations and the checks on them.

An op is one call into the package (or one `graphentropy` process) whose
outcome is checked against the paper's references.  Each op's `call` is
timed; its `check` is not.  A check returns one of three statuses:

- ``ok``: the outcome matches the reference;
- ``failed``: the op raised one of the package's own errors
  (`GraphEntropyError`, such as `Infeasible` on a feasible target) where a
  result was due;
- ``wrong``: the op produced a result that contradicts the reference, or a
  result where the paper's geometry says none exists, or it raised any other
  exception, or a command exited with an unexpected code.

Both ``failed`` and ``wrong`` count as failed ops; only ``wrong`` makes the
run's outputs incorrect.

Every solve uses the acceptance configuration with the solver seed pinned
to SOLVER_SEED.  The solver's random starts make its cost depend strongly on
that seed (at (0.5, 0.1253) one solve takes 0.7 s at seed 2 and 15.8 s at
seed 1), so a benchmark seed fed to the solver would measure a different
amount of work in every run.  The benchmark seed instead orders the ops of
each pass, seeds `verify --seed`, and draws the layer-microbenchmark inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable

from graphentropy import (
    DensityPair,
    GraphEntropyError,
    Infeasible,
    Motif,
    OptimConfig,
    ScanSpec,
    closed_form_half,
    crease_report,
    crease_scan,
    f_minus,
    maximize_entropy,
    phase_diagram_scan,
    rate_value,
)

from checkout import SRC

SOLVER_SEED = 0
NAMES = ("solver", "cli")

# Seconds one pass of each workload took when the benchmark was defined (2-CPU
# Xeon VM, in its slower spells).  A run of --seconds S makes
# max(2, round(S / PASS_SECONDS)) passes, a count that depends on S alone: a
# faster commit is measured with as many samples as its parent, and a slow
# spell on the machine cannot cut a run short.  Every op runs at least twice.
PASS_SECONDS = {"solver": 13.0, "cli": 12.0}


def acceptance_config():
    return OptimConfig(m=16, multistart_count=4, seed=SOLVER_SEED)


@dataclass
class Verdict:
    status: str  # ok | failed | wrong
    detail: str = ""
    facts: dict = field(default_factory=dict)  # deterministic outputs of the op


@dataclass
class Op:
    name: str
    metric: str  # the per-layer metric that reports its time in a traced run
    call: Callable  # tracer -> result; an exception raised here is the result
    check: Callable  # result -> Verdict
    target: DensityPair | None = None  # the (e, t) a solve op aims at


@dataclass
class Workload:
    name: str
    seed: int
    ops: list  # timed in every pass
    # An op that takes several seconds cannot repeat within a timed run, and
    # on a shared 2-CPU VM the speed drifted by up to 2x over minutes, so one
    # sample per run spread by a third or more across runs.  Such ops run
    # once, in traced runs only, where they are still checked and timed.
    traced_ops: list = field(default_factory=list)

    def passes(self, seconds):
        return max(2, round(seconds / PASS_SECONDS[self.name]))

    def pass_order(self, index):
        """The ops of pass `index`, in an order drawn from the seed."""
        ops = list(self.ops)
        random.Random(f"{self.seed}:{index}").shuffle(ops)
        return ops


def _error(exc):
    """A package error is a failed op; any other exception is a defect."""
    status = "failed" if isinstance(exc, GraphEntropyError) else "wrong"
    return Verdict(status, f"{type(exc).__name__}: {exc}", {"error": type(exc).__name__})


# ---------------------------------------------------------------------------
# solve: cold maximize_entropy calls on feasible targets


def _solve_op(name, e, t, motif, ref, tol, cfg):
    """ref is the reference s with tolerance tol, or None where only the
    ceiling -I0(e) applies."""
    target = DensityPair(e=e, t=t)
    ceiling = -float(rate_value(e))

    def call(tr):
        return tr.call("optimize.maximize_entropy", maximize_entropy, target, motif, cfg)

    def check(res):
        if isinstance(res, BaseException):
            return _error(res)
        vals = res.multistart_values
        facts = {
            "starts": len(vals),
            "feasible_starts": sum(1 for v in vals if math.isfinite(v)),
            "converged": bool(res.converged),
            "s": float(res.s_value).hex(),
        }
        if res.s_value > ceiling + 1e-6:
            return Verdict("wrong", f"s={res.s_value!r} above the ceiling {ceiling!r}", facts)
        if ref is not None:
            facts["s_err"] = abs(res.s_value - ref)
            if facts["s_err"] > tol:
                return Verdict("wrong", f"|s - ref| = {facts['s_err']:.3g} > {tol}", facts)
        return Verdict("ok", "", facts)

    return Op(name, f"optimize.solve_s.{name}", call, check, target)


def above_ridge_op():
    """(0.5, 0.1253), the dense-random worst case: about 4.4 s, traced runs only."""
    return _solve_op("above_050", 0.5, 0.1253, Motif.triangle(), None, None,
                     acceptance_config())


def solve_ops():
    cfg = acceptance_config()
    tri, star4 = Motif.triangle(), Motif.star(4)
    ops = []
    for name, t in (("half_002", 0.02), ("half_005", 0.05), ("half_008", 0.08),
                    ("half_011", 0.11), ("half_0124", 0.124)):
        ops.append(_solve_op(name, 0.5, t, tri, closed_form_half(t).s_value, 1e-3, cfg))
    for name, e in (("er_030", 0.3), ("er_050", 0.5), ("er_070", 0.7)):
        ops.append(_solve_op(name, e, e ** 3, tri, -float(rate_value(e)), 1e-6, cfg))
    ops += [
        _solve_op("above_030", 0.3, 0.04, tri, None, None, cfg),
        _solve_op("star4_050", 0.5, 0.0725, star4, None, None, cfg),
        _solve_op("upper_025", 0.25, 0.125 - 1e-9, tri, 0.0, 1e-3, cfg),
        _solve_op("upper_050", 0.5, 0.5 ** 1.5 - 1e-9, tri, 0.0, 1e-3, cfg),
        _solve_op("strip_070", 0.7, 0.3, tri, None, None, cfg),
    ]
    return ops


# ---------------------------------------------------------------------------
# reject: 7 targets outside the region, each must raise Infeasible


def _reject_op(name, e, t, motif, cfg):
    target = DensityPair(e=e, t=t)

    def call(tr):
        return tr.call("optimize.maximize_entropy", maximize_entropy, target, motif, cfg)

    def check(res):
        if isinstance(res, Infeasible):
            return Verdict("ok", "", {"outcome": "Infeasible"})
        if isinstance(res, BaseException):
            return _error(res)
        return Verdict("wrong", f"returned s={res.s_value!r} for an infeasible target",
                       {"s": float(res.s_value).hex()})

    return Op(name, f"optimize.solve_s.{name}", call, check, target)


def reject_ops():
    cfg = acceptance_config()
    tri = Motif.triangle()
    return [
        _reject_op("tri_upper_050", 0.5, 0.4, tri, cfg),  # above e^1.5
        _reject_op("tri_envelope_070", 0.7, 0.2, tri, cfg),  # below e(2e-1)
        _reject_op("tri_razborov_070", 0.7, 0.285, tri, cfg),  # envelope < t < Razborov
        _reject_op("star4_jensen_1e-3", 0.5, 1 / 16 - 1e-3, Motif.star(4), cfg),  # t < e^4
        _reject_op("star4_jensen_1e-2", 0.5, 1 / 16 - 1e-2, Motif.star(4), cfg),
        _reject_op("star2_t_gt_e", 0.5, 0.6, Motif.star(2), cfg),  # t > e
    ]


def reject_corner_op():
    """star:2 at (0.999, 0.997), where t < e^2: about 15 s, traced runs only."""
    return _reject_op("star2_t_lt_e2", 0.999, 0.997, Motif.star(2), acceptance_config())


# ---------------------------------------------------------------------------
# crease: a continuation march and criterion-13 scans (timed), and the
# criterion-3 crease report (traced)

CREASE_DELTAS = (1e-3, 3e-3, 1e-2)


def _crease_check(scan, problems):
    """Facts and problems of one CreaseScanResult at e = 1/2 (criterion 3)."""
    fm = f_minus(0.5).f_minus
    points = scan.below + scan.above
    fit = scan.left_exponent_fit
    facts = {
        "statuses": [p.status for p in points],
        "s": [None if p.s is None else float(p.s).hex() for p in points],
        "points_ok": sum(p.status == "ok" for p in points),
    }
    if fit is None:
        problems.append("no exponent fit below the ridge")
        return facts
    facts["exponent_err"] = abs(fit["exponent"] - 2.0 / 3.0)
    if facts["exponent_err"] > 0.1:
        problems.append(f"exponent {fit['exponent']:.4f} not within 0.1 of 2/3")
    if abs(fit["constant"] - fm) > 0.2 * fm:
        problems.append(f"constant {fit['constant']:.4f} not within 20% of f_-={fm:.4f}")
    if facts["points_ok"] != len(points):
        problems.append(f"{len(points) - facts['points_ok']} points not ok")
    return facts


def crease_scan_op():
    """crease_scan(0.5) over CREASE_DELTAS: on each side a march of three
    solves, each warm-started from the previous one; about 3 s."""
    cfg = OptimConfig(m=16, multistart_count=2, seed=SOLVER_SEED)

    def call(tr):
        return tr.call("optimize.crease_scan", crease_scan, 0.5, Motif.triangle(),
                       list(CREASE_DELTAS), cfg)

    def check(scan):
        if isinstance(scan, BaseException):
            return _error(scan)
        problems = []
        facts = _crease_check(scan, problems)
        if not scan.bound_checks["all_hold"]:
            problems.append("an f_- lower bound fails")
        return Verdict("wrong" if problems else "ok", "; ".join(problems), facts)

    return Op("crease_scan", "phase.crease_scan_s", call, check)


def _scan_op(e):
    name = f"scan_{round(100 * e):03d}"
    spec = ScanSpec(e_grid=[e], t_grid=[0.0, -1e-3, 1e-3], relative=True,
                    config=OptimConfig(m=8, multistart_count=2, seed=SOLVER_SEED))

    def call(tr):
        return tr.call("phase.phase_diagram_scan", phase_diagram_scan, spec)

    def check(rows):
        if isinstance(rows, BaseException):
            return _error(rows)
        facts = {
            "statuses": [r.status for r in rows],
            "s": [float(r.s).hex() for r in rows],
            "rows_ok": sum(r.status == "ok" for r in rows),
        }
        if len(rows) != 3 or facts["rows_ok"] != 3:
            return Verdict("wrong", f"rows {facts['statuses']}, want 3 ok", facts)
        return Verdict("ok", "", facts)

    return Op(name, f"phase.{name}_s", call, check)


def crease_ops():
    return [crease_scan_op()] + [_scan_op(e) for e in (0.3, 0.5, 0.7)]


def crease_report_op():
    """crease_report([0.5]) on the acceptance config: about 11 s, traced runs only."""
    cfg = acceptance_config()

    def call(tr):
        return tr.call("phase.crease_report", crease_report, [0.5], Motif.triangle(), cfg)

    def check(verdicts):
        if isinstance(verdicts, BaseException):
            return _error(verdicts)
        v = verdicts[0]
        problems = [] if v.crease_detected else ["crease not detected"]
        facts = _crease_check(v.scan, problems)
        facts["separation_sigma"] = v.separation_sigma
        return Verdict("wrong" if problems else "ok", "; ".join(problems), facts)

    return Op("crease_report", "phase.crease_report_s", call, check)


# ---------------------------------------------------------------------------
# cli: seven graphentropy commands, each in a fresh process


def cli_commands(seed, config_path):
    """(name, argv, expected exit code, stdout check) for each command."""
    half = closed_form_half(0.124).s_value

    def region(out):
        lines = out.splitlines()
        return ("" if len(lines) == 102 and lines[0] == "e,upper,er,envelope"
                else f"{len(lines)} region lines, want 102"), {"lines": len(lines)}

    def census(out):
        total = sum(int(line.rsplit(",", 1)[1]) for line in out.splitlines()[1:])
        return ("" if total == 2 ** 21 else f"census total {total}, want 2^21"), {"total": total}

    def curve(out):
        rows = [[float(x) for x in line.split(",")] for line in out.splitlines()[1:]]
        ok = rows and all(r[2] < r[3] for r in rows)
        return ("" if ok else "transition rows without a jump"), {"rows": len(rows)}

    def thm5(out):
        doc = json.loads(out)
        return ("" if doc["violations"] == [] else f"{len(doc['violations'])} violations"), {
            "points": len(doc["points"]), "violations": len(doc["violations"])}

    def entropy(out):
        s = json.loads(out)["s"]
        err = abs(s - half)
        return ("" if err <= 1e-3 else f"|s - closed form| = {err:.3g}"), {"s": float(s).hex()}

    def no_output(out):
        return ("" if out == "" else "output for an infeasible target"), {}

    def verify(out):
        lines = out.splitlines()
        ok = lines and all(line.startswith("PASS ") for line in lines)
        return ("" if ok else "verify reported FAIL"), {"checks": len(lines)}

    cfg = ["--config", config_path]
    return [
        ("region", ["region", "--samples", "101"], 0, region),
        ("census", ["census", "--n", "7", "--threads", "2"], 0, census),
        ("ergm_curve", ["ergm", "--curve"], 0, curve),
        ("ergm_thm5", ["ergm", "--verify-thm5", *cfg], 0, thm5),
        ("entropy_slice", ["entropy", "--e", "0.5", "--t", "0.124", *cfg], 0, entropy),
        ("entropy_infeasible", ["entropy", "--e", "0.5", "--t", "0.4", *cfg], 3, no_output),
        ("verify", ["verify", "--seed", str(seed)], 0, verify),
    ]


def _cli_check(want_code, check_out):
    def check(res):
        if isinstance(res, BaseException):
            return _error(res)
        code, out = res
        facts = {"exit": code, "stdout_sha256": hashlib.sha256(out.encode()).hexdigest()}
        if code != want_code:
            return Verdict("wrong", f"exit {code}, want {want_code}", facts)
        problem, more = check_out(out)
        facts.update(more)
        return Verdict("wrong" if problem else "ok", problem, facts)

    return check


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def cli_ops(commands):
    env = child_env()

    def process_call(argv):
        def run(cmd):
            proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=170)
            return proc.returncode, proc.stdout

        return lambda tr: tr.call(
            "cli.main", run, [sys.executable, "-m", "graphentropy.cli", *argv])

    return [Op(name, f"cli.cmd_s.{name}", process_call(argv), _cli_check(code, check_out))
            for name, argv, code, check_out in commands]


def cli_inprocess_ops(commands, workdir):
    """The same commands through cli.run in this process, writing --out files."""
    from graphentropy import cli  # the other workloads do not import the CLI

    def inprocess_call(name, argv):
        out = os.path.join(workdir, f"{name}.out")

        def call(tr):
            if os.path.exists(out):
                os.remove(out)
            code = tr.call("cli.run", cli.run, [*argv, "--out", out])
            text = ""
            if os.path.exists(out):
                with open(out) as fh:
                    text = fh.read()
            return code, text

        return call

    return [Op(f"{name}_inproc", f"cli.inproc_s.{name}", inprocess_call(name, argv),
               _cli_check(code, check_out))
            for name, argv, code, check_out in commands]


def _config_file(workdir):
    path = os.path.join(workdir, "acceptance.json")
    with open(path, "w") as fh:
        json.dump({"version": 1, "optim": {"m": 16, "multistart_count": 4,
                                           "seed": SOLVER_SEED}}, fh)
    return path


def build(name, seed, workdir):
    """Set-up: the workload's ops with their references computed."""
    if name == "solver":
        return Workload(name, seed, solve_ops() + reject_ops() + crease_ops(),
                        [above_ridge_op(), reject_corner_op(), crease_report_op()])
    if name == "cli":
        commands = cli_commands(seed, _config_file(workdir))
        return Workload(name, seed, cli_ops(commands), cli_inprocess_ops(commands, workdir))
    raise ValueError(f"unknown workload {name!r}")
