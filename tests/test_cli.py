"""Command-line interface tests (in-process via cli.run)."""

import concurrent.futures
import io
import json
import os
import subprocess
import sys

import pytest

from graphentropy import census, ergm, errors, invariants, region
from graphentropy.cli import (
    EXIT_INFEASIBLE,
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_USAGE,
    _build_parser,
    _load_config,
    _thread_count,
    _threads,
    run,
)
from graphentropy.optimize import OptimConfig


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_census_threads_auto_matches_one_thread(capsys):
    assert run(["census", "--n", "5", "--threads", "1"]) == EXIT_OK
    one = capsys.readouterr().out
    assert one.startswith("n,edges,triangles,count\n")
    assert run(["census", "--n", "5", "--threads", "auto"]) == EXIT_OK
    assert capsys.readouterr().out == one
    # auto means every CPU the process may run on, not a silent 1
    auto = _threads(_build_parser().parse_args(["census", "--n", "5", "--threads", "auto"]))
    assert auto == len(os.sched_getaffinity(0))


@pytest.mark.parametrize("cpus, expected", [(3, 3), (None, 1)])
def test_threads_auto_without_affinity_is_the_cpu_count(monkeypatch, cpus, expected):
    # os.sched_getaffinity is Linux-only; elsewhere auto is os.cpu_count(),
    # or 1 where that is unknown
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert _thread_count("auto") == expected


def test_an_unexpected_package_error_exits_5(monkeypatch, capsys):
    # no input reaches this exit: every package error an input can cause is
    # of a type handled before it
    def boundary_table(samples):
        raise errors.SignPatternUnexpected("boundary out of order")

    monkeypatch.setattr(region, "boundary_table", boundary_table)
    assert run(["region", "--samples", "3"]) == EXIT_INVARIANT
    assert capsys.readouterr().err == "invariant violation: boundary out of order\n"


def test_region_csv(tmp_path):
    out = tmp_path / "region.csv"
    assert run(["region", "--samples", "3", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "e,upper,er,envelope"
    assert len(lines) == 4


@pytest.mark.parametrize("samples", ["1", str(errors.MAX_POINTS + 1)])
def test_region_checks_the_sample_count_before_it_opens_the_out_file(tmp_path, samples):
    # the rows are made as they are written, but the count is checked first
    out = tmp_path / "region.csv"
    assert run(["region", "--samples", samples, "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()


class _Writes(io.TextIOBase):
    """A stdout that records each string written to it."""
    def __init__(self):
        super().__init__()
        self.strings = []

    def write(self, s):
        self.strings.append(s)
        return len(s)


def test_csv_reaches_stdout_one_line_per_write(monkeypatch):
    # each line is written as it is formatted: with the whole text built
    # first, `region --samples 1000000` peaked at 468 MB
    stdout = _Writes()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert run(["region", "--samples", "3"]) == EXIT_OK
    assert stdout.strings[0] == "e,upper,er,envelope\n"
    assert [w.count("\n") for w in stdout.strings] == [1] * 4
    assert all(w.endswith("\n") for w in stdout.strings)


def test_census_csv(tmp_path):
    out = tmp_path / "census.csv"
    assert run(["census", "--n", "3", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines == [
        "n,edges,triangles,count",
        "3,0,0,1",
        "3,1,0,3",
        "3,2,0,3",
        "3,3,1,1",
    ]


def test_entropy_json(tmp_path):
    out = tmp_path / "res.json"
    code = run(["entropy", "--e", "0.5", "--t", "0.124", "--m", "8",
                "--out", str(out), "--seed", "0"])
    assert code == EXIT_OK
    doc = _read_json(out)
    assert doc["converged"] is True
    assert abs(doc["s"] - 0.33650583) < 1e-3
    assert len(doc["graphon"]) == 8


def test_entropy_infeasible_exit_code(tmp_path):
    code = run(["entropy", "--e", "0.5", "--t", "0.05", "--motif", "star:4",
                "--out", str(tmp_path / "x.json")])
    assert code == EXIT_INFEASIBLE


def test_edge_motif_parses(tmp_path):
    # the edge density is e itself, so t = 0.3 at e = 0.5 is rejected up front
    code = run(["entropy", "--e", "0.5", "--t", "0.3", "--motif", "edge",
                "--out", str(tmp_path / "x.json")])
    assert code == EXIT_INFEASIBLE


def _bad_points_file(tmp_path):
    path = tmp_path / "points.csv"
    path.write_text("e,t\n0.5,x\n")
    return str(path)


def _bad_motif_file(tmp_path):
    path = tmp_path / "bad_motif.txt"
    path.write_text("motif v1 ell=3\n1 2\n3\n")
    return str(path)


def _text_file(name, text):
    def make(tmp_path):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return make


def _json_file(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _directory(tmp_path):
    path = tmp_path / "dir"
    path.mkdir()
    return str(path)


def _non_utf8_file(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"\xff\xfe")
    return str(path)


def _spec(**optim):
    return {"e_grid": [0.5], "t_grid": [0.0], "optim": {"m": 4, "multistart_count": 0, **optim}}


def _config(**optim):
    return {"version": 1, "optim": optim}


ENTROPY = ["entropy", "--e", "0.5", "--t", "0.125"]
# the commands and flags that read an input file
FILE_INPUTS = ((ENTROPY, "--config"), (["scan"], "--spec"), (ENTROPY, "--motif"),
               (["census-compare", "--n", "3", "--alpha", "0.1"], "--points"))


@pytest.mark.parametrize("argv", [
    ["entropy", "--e", "0.5", "--t", "0.1", "--motif", "star:x"],
    ["entropy", "--e", "0.5", "--t", "0.1", "--motif", _bad_motif_file],
    ["crease", "--e", "0.5,abc"],
    ["ergm", "--grid", "0,1,x,0,1,2"],
    ["region", "--samples", "2", "--format", "json"],
    ["census-compare", "--n", "3", "--alpha", "0.1", "--points", _bad_points_file],
    ["scan", "--spec", lambda p: _json_file(p, "s.json", {"t_grid": [0.0]})],
    ["scan", "--spec", lambda p: _json_file(p, "s.json", _spec(kkt_tol=1e-5))],
    [*ENTROPY, "--config", lambda p: _json_file(p, "c.json", _config(ansatz_set=[]))],
    [*ENTROPY, "--config", lambda p: _json_file(p, "c.json", _config(m=0))],
    ["scan", "--spec", lambda p: _json_file(p, "s.json", _spec(m="16"))],
    [*ENTROPY, "--config", lambda p: _json_file(p, "c.json", _config(multistart_count=-1))],
    [*ENTROPY, "--config", lambda p: _json_file(p, "c.json", [])],
    # a file cannot set the solver's warm start
    [*ENTROPY, "--config", lambda p: _json_file(p, "c.json", _config(warm_start=None))],
    # a bad --config fails even where the spec's optim overrides the bad key
    ["scan", "--spec", lambda p: _json_file(p, "s.json", _spec()),
     "--config", lambda p: _json_file(p, "c.json", _config(m=-2))],
    ["census", "--n", "3", "--threads", "x"],
    ["census", "--n", "3", "--threads", "0"],
    ["census", "--n", "3", "--threads", "-3"],
    [*ENTROPY, "--seed", "-1"],
    [*ENTROPY, "--m", "0"],
    # region and census run no solver, so they take no --config or --seed
    ["region", "--samples", "3", "--config", "/nonexistent.json", "--seed", "-5"],
    ["region", "--samples", "3", "--seed", "1"],
    ["census", "--n", "3", "--config", lambda p: _json_file(p, "c.json", _config(m=4))],
    ["--seed", "1", "census", "--n", "3"],
    ["scan", "--spec", lambda p: _json_file(p, "s.json", {"e_grid": ["x"], "t_grid": [0.0]})],
    ["scan", "--spec", lambda p: _json_file(p, "s.json", {"e_grid": [0.5], "t_grid": 0.0})],
    ["scan", "--spec", lambda p: _json_file(p, "s.json", 5)],
    # --grid counts are positive integers
    ["ergm", "--grid=0,1,-1,0,1,2"],
    ["ergm", "--grid", "0,1,nan,0,1,2"],
    ["ergm", "--grid", "0,1,2.5,0,1,2"],
    ["ergm", "--curve", "--beta2-min", "nan"],
    # ergm runs exactly one mode
    ["ergm", "--curve", "--verify-thm5"],
    ["ergm", "--grid=0,0,1,0,0,1", "--curve"],
    # only --curve draws an SVG or reads a beta2 range and a step count
    *[["ergm", mode, *flag] for mode in ("--grid=0,0,1,0,0,1", "--verify-thm5")
      for flag in (["--svg", "unused.svg"], ["--beta2-min", "1"], ["--beta2-max", "3"],
                   ["--steps", "9"])],
    # a census above its size cap is invalid input, and no flag lifts the cap
    ["census", "--n", "8", "--allow-large"],
    ["census", "--n", "9"],
    ["census-compare", "--n", "9", "--alpha", "0.1",
     "--points", _text_file("p.csv", "e,t\n0.5,0.1\n")],
    # region runs no worker pool either
    ["region", "--samples", "3", "--threads", "4"],
    ["--threads", "2", "region", "--samples", "3"],
    # a motif file naming an invalid motif is invalid input too
    *[["entropy", "--e", "0.5", "--t", "0.1", "--motif", _text_file("motif.txt", text)]
      for text in ("motif v1 ell=0\n", "motif v1 ell=-2\n",
                   "motif v1 ell=7\n" + "".join(f"1 {j}\n" for j in range(2, 8)),
                   "motif v1 ell=2\n1 1\n", "motif v1 ell=2\n1 2\n2 1\n",
                   "motif v1 ell=4\n1 2\n3 4\n")],
    # alpha is finite and positive, whether or not the points file has a point
    *[["census-compare", "--n", "3", "--alpha", alpha, "--points", _text_file("p.csv", text)]
      for alpha in ("nan", "inf", "0", "-1") for text in ("e,t\n", "e,t\n0.5,0.1\n")],
    # verify's solver settings are fixed, and ergm --curve runs no solver
    *[[*command, "--config", lambda p: _json_file(p, "c.json", _config(m=4))]
      for command in (["verify"], ["ergm", "--curve"])],
    *[["--config", lambda p: _json_file(p, "c.json", _config(m=4)), *command]
      for command in (["verify"], ["ergm", "--curve"])],
    ["ergm", "--curve", "--seed", "9"],
    ["--seed", "9", "ergm", "--curve"],
    # a scan spec and a config file take only the keys they read, of the
    # types they read
    *[["scan", "--spec", lambda p, extra=extra: _json_file(p, "s.json", {**_spec(), **extra})]
      for extra in ({"relativ": False}, {"output_path": "scan.csv"}, {"relative": "false"},
                    {"motif": 3})],
    [*ENTROPY, "--config", lambda p: _json_file(p, "c.json", {**_config(m=4), "solver": {}})],
    # --grid takes exactly six numbers
    ["ergm", "--grid=0,1,2,0,1"],
    # a points file is headed e,t
    ["census-compare", "--n", "3", "--alpha", "0.1",
     "--points", _text_file("p.csv", "x,y\n0.5,0.1\n")],
    # a spec's motif path that no file can have: a null byte, a lone surrogate
    *[["scan", "--spec",
       lambda p, motif=motif: _json_file(p, "s.json", {**_spec(), "motif": motif})]
      for motif in ("a\u0000b", "\ud800.txt")],
    # a motif file's header is version 1 with a whole vertex count
    *[["entropy", "--e", "0.5", "--t", "0.1", "--motif", _text_file("motif.txt", text)]
      for text in ("motif v2 ell=2\n1 2\n", "motif v1 ell=x\n1 2\n")],
    # a grid holds finite numbers: no string, bool, NaN or infinity
    *[["scan", "--spec", _text_file("s.json", text)]
      for text in ('{"e_grid": ["0.5"], "t_grid": [0.0]}', '{"e_grid": [true], "t_grid": [0.0]}',
                   '{"e_grid": [NaN], "t_grid": [0.0]}', '{"e_grid": [0.5], "t_grid": [Infinity]}')],
    # an input file that cannot be read: a directory, or bytes that are not UTF-8
    *[[*command, flag, _directory] for command, flag in FILE_INPUTS],
    *[[*command, flag, _non_utf8_file] for command, flag in FILE_INPUTS[1:]],
    # entropy and ergm run no worker pool, so they take no --threads
    *[argv for command in (ENTROPY, ["ergm", "--curve"], ["ergm", "--grid=0,0,1,0,0,1"],
                           ["ergm", "--verify-thm5"])
      for argv in ([*command, "--threads", "2"], ["--threads", "2", *command])],
    # a grid resolution above the cap is invalid input, from a flag, a config
    # file or a scan spec; numpy refuses 10^9 unallocated, should the cap fail
    [*ENTROPY, "--m", "1000000000"],
    [*ENTROPY, "--config", lambda p: _json_file(p, "c.json", _config(m=10 ** 9))],
    ["scan", "--spec", lambda p: _json_file(p, "s.json", _spec(m=10 ** 9))],
    # a flag matches only its full spelling, before or after the subcommand
    ["verify", "--se", "3"],
    ["--se", "3", "verify"],
    ["census", "--n", "4", "--thr", "2"],
    ["region", "--sam", "3"],
    ["ergm", "--cur", "--st", "2"],
    # a path no file can have, for any file flag: a null byte, a lone surrogate
    *[[*command, flag, path]
      for command, flag in ((["region", "--samples", "3"], "--out"), *FILE_INPUTS[:2],
                            FILE_INPUTS[3])
      for path in ("a\u0000b", "\ud800.txt")],
    # a spec's optim, like a config's, is a table if present
    ["scan", "--spec", lambda p: _json_file(p, "s.json", {**_spec(), "optim": None})],
    [*ENTROPY, "--config", lambda p: _json_file(p, "c.json", {"version": 1, "optim": None})],
])
def test_malformed_input_exits_usage(tmp_path, argv):
    argv = [a(tmp_path) if callable(a) else a for a in argv]
    # given first, so an --out in argv, after the command, overrides it
    assert run(["--out", str(tmp_path / "out"), *argv]) == EXIT_USAGE
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("path", ["a\u0000b", "\ud800.svg"])
def test_an_svg_path_no_file_can_have_exits_usage(tmp_path, path):
    # the CSV is written by then, as for an --svg into a missing directory
    assert run(["ergm", "--curve", "--steps", "2", "--svg", path,
                "--out", str(tmp_path / "curve.csv")]) == EXIT_USAGE


def test_an_out_path_that_is_a_directory_exits_usage(tmp_path, capsys):
    assert run(["region", "--samples", "3", "--out", str(tmp_path)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("invalid input: ")


def test_config_layers_in_order(tmp_path):
    args = _build_parser().parse_args(
        ["scan", "--spec", "unused", "--seed", "5",
         "--config", _json_file(tmp_path, "c.json", _config(m=4, multistart_count=3, seed=1))])
    assert _load_config(args) == OptimConfig(m=4, multistart_count=3, seed=5)
    cfg = _load_config(args, {"optim": {"m": 8, "seed": 2}})
    assert cfg == OptimConfig(m=8, multistart_count=3, seed=5)
    args = _build_parser().parse_args(["entropy", "--e", "0.5", "--t", "0.1", "--m", "6"])
    assert _load_config(args) == OptimConfig(m=6)


def test_cli_import_leaves_scipy_optimize_unloaded(tmp_path):
    # and the commands that run the package's scalar searches load no scipy at all
    import graphentropy

    src = os.path.dirname(os.path.dirname(os.path.abspath(graphentropy.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = f"""
import sys, graphentropy.cli as cli
print('scipy.optimize' in sys.modules)
print(cli.run(["--out", {str(tmp_path / "v")!r}, "verify", "--seed", "1"]),
      cli.run(["--out", {str(tmp_path / "c")!r}, "ergm", "--curve", "--steps", "2"]))
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.splitlines() == ["False", f"{EXIT_OK} {EXIT_OK}", "[]"]


def test_unknown_flag_rejected():
    assert run(["region", "--samples", "3", "--bogus"]) == EXIT_USAGE


def test_missing_subcommand_rejected():
    assert run([]) == EXIT_USAGE


def test_global_flags_accepted_before_subcommand(tmp_path):
    out = tmp_path / "r.csv"
    assert run(["--out", str(out), "region", "--samples", "2"]) == EXIT_OK
    assert out.exists()


def test_config_file_version_guard(tmp_path):
    bad = tmp_path / "cfg.json"
    bad.write_text(json.dumps({"version": 2, "optim": {}}))
    code = run(["entropy", "--e", "0.5", "--t", "0.125",
                "--config", str(bad)])
    assert code == EXIT_USAGE


def test_config_file_applies_and_flags_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"version": 1,
                               "optim": {"m": 4, "multistart_count": 2}}))
    out = tmp_path / "res.json"
    code = run(["entropy", "--e", "0.5", "--t", "0.125",
                "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_OK
    assert len(_read_json(out)["graphon"]) == 4
    code = run(["entropy", "--e", "0.5", "--t", "0.125", "--m", "6",
                "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_OK
    assert len(_read_json(out)["graphon"]) == 6


def test_scan_csv(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "e_grid": [0.5],
        "t_grid": [0.0, -1e-3],
        "relative": True,
        "optim": {"m": 8, "multistart_count": 2},
    }))
    out = tmp_path / "scan.csv"
    assert run(["scan", "--spec", str(spec), "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "e,t,s,beta1,beta2,converged,el_residual,status"
    assert len(lines) == 3


def test_ergm_curve_csv(tmp_path):
    out = tmp_path / "curve.csv"
    code = run(["ergm", "--curve", "--beta2-min", "0.8", "--beta2-max", "1.2",
                "--steps", "2", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "beta2,beta1_critical,u_low,u_high"
    assert len(lines) == 3


def test_ergm_curve_has_a_row_at_every_strong_coupling(tmp_path):
    # beta2 = 0.6 .. 30: in the last three rows the critical beta1 is below -20
    out = tmp_path / "curve.csv"
    assert run(["ergm", "--curve", "--beta2-max", "30", "--steps", "8",
                "--out", str(out)]) == EXIT_OK
    assert len(out.read_text().splitlines()) == 1 + 8


def test_ergm_curve_below_the_critical_coupling_has_no_transition(tmp_path, capsys):
    # every beta2 of the range is below 9/16, where phi has no first-order jump
    out = tmp_path / "curve.csv"
    assert run(["ergm", "--curve", "--beta2-min", "0.1", "--beta2-max", "0.5", "--steps", "2",
                "--out", str(out)]) == EXIT_INFEASIBLE
    assert "no transition" in capsys.readouterr().err
    assert not out.exists()


def test_ergm_requires_a_mode():
    assert run(["ergm"]) == EXIT_USAGE


def _tiny_cfg(tmp_path):
    return _json_file(tmp_path, "tiny.json", _config(m=4, multistart_count=0))


def test_crease_json(tmp_path):
    out = tmp_path / "crease.json"
    assert run(["crease", "--e", "0.5", "--config", _tiny_cfg(tmp_path),
                "--out", str(out)]) == EXIT_OK
    verdict, = _read_json(out)
    assert set(verdict) == {"e", "left_quotient", "right_quotient", "separation_sigma",
                            "crease_detected", "one_sided", "left_exponent_fit",
                            "bounds_all_hold"}


def test_ergm_verify_thm5_json(tmp_path):
    out = tmp_path / "thm5.json"
    assert run(["ergm", "--verify-thm5", "--config", _tiny_cfg(tmp_path),
                "--out", str(out)]) == EXIT_OK
    assert set(_read_json(out)) == {"max_excess", "violations", "points"}


def test_ergm_grid_csv(tmp_path):
    out = tmp_path / "grid.csv"
    assert run(["ergm", "--grid=-1,1,2,-1,1,2", "--config", _tiny_cfg(tmp_path),
                "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "beta1,beta2,psi,e,t,degenerate"
    assert len(lines) == 5


def test_scan_svg(tmp_path):
    spec = _json_file(tmp_path, "spec.json", {"e_grid": [0.5], "t_grid": [0.0, -1e-3]})
    svg = tmp_path / "scan.svg"
    assert run(["scan", "--spec", spec, "--config", _tiny_cfg(tmp_path), "--svg", str(svg),
                "--out", str(tmp_path / "scan.csv")]) == EXIT_OK
    assert svg.read_text().startswith("<svg")


def test_scan_svg_with_no_feasible_point_is_infeasible(tmp_path, capsys):
    # t = 0.45 lies above the upper boundary at e = 0.5: the CSV is written,
    # and there is nothing to draw, so no SVG file is made
    spec = _json_file(tmp_path, "spec.json",
                      {"e_grid": [0.5], "t_grid": [0.45], "relative": False})
    svg, out = tmp_path / "scan.svg", tmp_path / "scan.csv"
    assert run(["scan", "--spec", spec, "--config", _tiny_cfg(tmp_path), "--svg", str(svg),
                "--out", str(out)]) == EXIT_INFEASIBLE
    assert "infeasible: no finite scan rows to render" in capsys.readouterr().err
    assert out.read_text().splitlines()[1].endswith(",infeasible")
    assert not svg.exists()


def test_ergm_curve_svg(tmp_path):
    svg = tmp_path / "curve.svg"
    assert run(["ergm", "--curve", "--steps", "2",
                "--svg", str(svg), "--out", str(tmp_path / "curve.csv")]) == EXIT_OK
    assert svg.read_text().startswith("<svg")


def test_census_compare(tmp_path):
    pts = tmp_path / "points.csv"
    pts.write_text("e,t\n0.5,0.125\n")
    out = tmp_path / "cmp.json"
    code = run(["census-compare", "--n", "5", "--alpha", "0.15",
                "--points", str(pts), "--out", str(out),
                "--config", str(_small_cfg(tmp_path))])
    assert code == EXIT_OK
    doc = _read_json(out)
    assert doc["n"] == 5
    assert len(doc["points"]) == 1


def test_census_compare_skips_blank_lines(tmp_path):
    pts = tmp_path / "points.csv"
    outs = []
    for text in ("e,t\n0.5,0.125\n0.3,0.027\n", "e,t\n0.5,0.125\n\n  \n0.3,0.027\n"):
        pts.write_text(text)
        out = tmp_path / "cmp.json"
        assert run(["census-compare", "--n", "4", "--alpha", "0.2", "--points", str(pts),
                    "--out", str(out), "--config", _tiny_cfg(tmp_path)]) == EXIT_OK
        outs.append(out.read_text())
    assert outs[0] == outs[1]
    assert len(json.loads(outs[0])["points"]) == 2


def test_census_compare_above_the_upper_boundary_is_null(tmp_path):
    # t = 0.5 is above 0.5^(3/2), so the solver rejects the point: its
    # variational s and its gap are -inf or inf, written as null
    pts = tmp_path / "points.csv"
    pts.write_text("e,t\n0.5,0.5\n")
    out = tmp_path / "cmp.json"
    assert run(["census-compare", "--n", "4", "--alpha", "0.2", "--points", str(pts),
                "--out", str(out)]) == EXIT_OK
    (e, t, _, s_variational, gap), = _read_json(out)["points"]
    assert (e, t, s_variational, gap) == (0.5, 0.5, None, None)


def test_census_compare_runs_the_n8_census(tmp_path):
    # the size cap is 8 for census-compare as for census
    pts = tmp_path / "points.csv"
    pts.write_text("e,t\n0.5,0.125\n")
    out = tmp_path / "cmp.json"
    assert run(["census-compare", "--n", "8", "--alpha", "0.15", "--points", str(pts),
                "--threads", "2", "--out", str(out), "--config", _tiny_cfg(tmp_path)]) == EXIT_OK
    doc = _read_json(out)
    assert doc["n"] == 8
    assert [row[0] for row in doc["ridge"]] == list(range(29))
    (_, _, s_empirical, s_variational, _), = doc["points"]
    assert 0.0 < s_empirical < s_variational


@pytest.mark.parametrize("alpha, points", [("nan", "e,t\n0.5,0.125\n"), ("0.1", "")],
                         ids=["alpha_nan", "empty_points"])
def test_census_compare_checks_its_inputs_before_the_census(monkeypatch, tmp_path,
                                                           alpha, points):
    def enumerate_census(n, threads=1):
        raise AssertionError("the census ran")

    monkeypatch.setattr(census, "enumerate_census", enumerate_census)
    pts = tmp_path / "points.csv"
    pts.write_text(points)
    assert run(["census-compare", "--n", "8", "--alpha", alpha, "--points", str(pts)]) == EXIT_USAGE


def _count_solves(monkeypatch):
    """The list of targets the marches of `phase` ask to solve, each answered
    Infeasible."""
    from graphentropy import phase

    calls = []

    def maximize_entropy(target, *rest):
        calls.append(target)
        raise errors.Infeasible("not solved here")

    monkeypatch.setattr(phase, "maximize_entropy", maximize_entropy)
    return calls


@pytest.mark.parametrize("e_grid", [[2.0], [0.5, -0.5]])
def test_a_scan_e_outside_the_unit_interval_exits_before_any_solve(monkeypatch, tmp_path,
                                                                   e_grid):
    calls = _count_solves(monkeypatch)
    spec = _json_file(tmp_path, "s.json", {"e_grid": e_grid, "t_grid": [-1e-3, 0.0, 0.2]})
    assert run(["scan", "--spec", spec, "--out", str(tmp_path / "out")]) == EXIT_USAGE
    assert calls == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("es", ["0.3,0.5,0.7,2.0", "0.5,1e-13"])
def test_every_crease_e_is_checked_before_the_first_scan(monkeypatch, capsys, es):
    calls = _count_solves(monkeypatch)
    assert run(["crease", "--e", es]) == EXIT_USAGE
    assert calls == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"invalid input: e={float(es.split(',')[-1])} outside [")


def test_an_ergm_grid_too_large_to_run_exits_before_any_solve(monkeypatch, capsys):
    from graphentropy import ergm

    def psi_full(params, config):
        raise AssertionError("psi_full ran")

    monkeypatch.setattr(ergm, "psi_full", psi_full)
    # 1e20 only: numpy refuses that count before it allocates anything
    assert run(["ergm", "--grid=0,1,1e20,0,1,1"]) == EXIT_USAGE
    assert "cap" in capsys.readouterr().err


@pytest.mark.parametrize("module, point, argv", [
    (region, "upper_boundary", ["region", "--samples"]),
    (ergm, "find_transition", ["ergm", "--curve", "--steps"]),
], ids=["region", "ergm-curve"])
def test_a_point_count_above_the_cap_exits_before_any_point(monkeypatch, capsys, module,
                                                            point, argv):
    def no_point(*args):
        raise AssertionError("a point was computed")

    monkeypatch.setattr(module, point, no_point)
    cap = errors.MAX_POINTS
    assert run([*argv, str(cap + 1)]) == EXIT_USAGE
    assert capsys.readouterr() == ("", f"invalid input: {argv[-1][2:]}={cap + 1} exceeds "
                                       f"the cap {cap}\n")


@pytest.mark.parametrize("argv", [
    ["census", "--n", "9"],
    ["census-compare", "--n", "9", "--alpha", "0.1", "--points", "unread.csv"],
])
def test_size_cap_names_no_flag(capsys, argv):
    assert run(argv) == EXIT_USAGE
    assert capsys.readouterr().err == "invalid input: n=9 exceeds the cap 8\n"


def _small_cfg(tmp_path):
    cfg = tmp_path / "small.json"
    cfg.write_text(json.dumps({"version": 1,
                               "optim": {"m": 8, "multistart_count": 2}}))
    return cfg


def test_verify_passes(tmp_path):
    out = tmp_path / "verify.txt"
    assert run(["verify", "--seed", "1", "--out", str(out)]) == EXIT_OK
    text = out.read_text()
    assert "PASS overall" in text
    assert "FAIL" not in text


def test_verify_counts_its_census_on_the_threads_given(monkeypatch, capsys):
    # the n = 3 census has 4 items, so --threads 4 starts a pool of 4 real
    # workers, and the report is byte for byte the one-thread report
    pools = []

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    assert run(["verify", "--seed", "7", "--threads", "1"]) == EXIT_OK
    one = capsys.readouterr().out
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    assert run(["verify", "--seed", "7", "--threads", "4"]) == EXIT_OK
    assert capsys.readouterr().out == one
    assert pools == [4]


def test_verify_reports_failing_checks_and_runs_the_rest(tmp_path, monkeypatch, capsys):
    def gradient_checks(rng, samples):
        return False, "max relative error 1.0e+00"

    def region_geometry():
        raise ArithmeticError("boundary out of order")

    monkeypatch.setattr(invariants, "gradient_checks", gradient_checks)
    monkeypatch.setattr(invariants, "region_geometry", region_geometry)
    out = tmp_path / "verify.txt"
    assert run(["verify", "--seed", "1", "--out", str(out)]) == EXIT_INVARIANT
    assert out.read_text().splitlines() == [
        "PASS trace_inequality",
        "FAIL gradient_checks (max relative error 1.0e+00)",
        "PASS closed_form_agreement",
        "PASS slice_multipliers",
        "FAIL region_geometry (boundary out of order)",
        "PASS census_hand_enumeration",
        "PASS convexity_derivative_paths",
        "PASS er_curve_ceiling",
        "FAIL overall",
    ]
    # the raised exception is named, with its traceback, on stderr only
    err = capsys.readouterr().err
    assert "region_geometry raised:" in err
    assert "Traceback" in err
    assert "ArithmeticError: boundary out of order" in err
    assert "gradient_checks" not in err


def test_json_nan_becomes_null(tmp_path):
    # a scan row with an infeasible point must serialize as valid JSON
    from graphentropy.cli import _sanitize
    import math
    doc = _sanitize({"s": math.nan, "v": [math.inf, 1.0]})
    assert doc["s"] is None
    assert doc["v"] == [None, 1.0]
