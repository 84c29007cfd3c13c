import argparse
import ast
import collections
import contextlib
import gc
import io
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import sumspaces as ss
from sumspaces import cli
from sumspaces.cli import COMMANDS, main

from conftest import _count_lapack, captured_stderr, family_to_json, random_subspace


@pytest.fixture
def pair_files(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(ss.subspace_to_json(
        ss.from_spanning(np.array([[1.0], [0.0]])))))
    b.write_text(json.dumps(ss.subspace_to_json(
        ss.from_spanning(np.array([[1.0], [1.0]])))))
    return str(a), str(b)


def _run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def _run_quietly(args, capsys):
    """(exit code, report, stderr) of main(args), a warning counting as its stderr lines."""
    err = []
    with captured_stderr(err):
        code = main(args)
    out = capsys.readouterr().out
    return code, json.loads(out, parse_constant=_refuse_constant) if out.strip() else None, err[0]


def _family_file(tmp_path, family, **params):
    path = tmp_path / f"{family}.json"
    path.write_text(json.dumps({"family": family, **params}))
    return str(path)


def test_pair_command_reports_angle(pair_files, capsys):
    a, b = pair_files
    code, report = _run(["pair", "--a", a, "--b", b], capsys)
    assert code == 0
    assert report["friedrichs_angle"] == pytest.approx(np.pi / 4)
    crits = {e["criterion"] for e in report["margins"]["pair_criteria"]["entries"]}
    assert "c1_one_minus_max_a" in crits and "c6_one_minus_product" in crits
    assert report["provenance"]["version"] == ss.__version__


def test_calculus_command_spectrum(pair_files, capsys):
    a, b = pair_files
    code, report = _run(["calculus", "--a", a, "--b", b,
                         "--f1", "1", "--f2", "1"], capsys)
    assert code == 0
    real_parts = sorted(z[0] for z in report["spectrum"])
    assert real_parts == pytest.approx([1 - np.sqrt(0.5), 1 + np.sqrt(0.5)])


def test_system_command_with_alpha(tmp_path, capsys):
    sysfile = tmp_path / "sys.json"
    e = np.eye(2)
    S = ss.SubspaceSystem(2, [ss.from_spanning(e[:, [0]]),
                              ss.from_spanning(e[:, [1]])])
    sysfile.write_text(json.dumps(ss.system_to_json(S)))
    code, report = _run(["system", "--members", str(sysfile),
                         "--alpha", "1.0,1.0"], capsys)
    assert code == 0
    assert "linear_combination" in report["margins"]
    assert max(report["dilation_spectrum"]) == pytest.approx(0.5)


def test_system_and_preserve_sum_stay_out_of_the_dilation_space(tmp_path, monkeypatch,
                                                                 capsys):
    # d = 8 and member dims (3, 4, 3), which sum to C^8: no np.linalg call may see a
    # matrix side above 12, where the dilation space C^{nd} has 24.  The widest
    # factor is preserve-sum's [G1 | blocks] in C^{r1+r2+r3}: G1 = ker((I - P1)C)
    # has dimension 10 - (8 - 3) = 5, so it is 10 x (5 + 4 + 3)
    gen = np.random.default_rng(7)
    S = ss.SubspaceSystem(8, [random_subspace(gen, 8, r) for r in (3, 4, 3)])
    members = tmp_path / "members.json"
    members.write_text(json.dumps(ss.system_to_json(S)))
    shapes = []
    for name in ("svd", "eigh", "eigvalsh", "eigvals", "norm", "lstsq", "pinv", "inv",
                 "solve", "qr", "cholesky"):
        def recorded(a, *rest, _routine=getattr(np.linalg, name), **kwargs):
            shapes.append(np.shape(a))
            return _routine(a, *rest, **kwargs)
        monkeypatch.setattr(np.linalg, name, recorded)
    for argv in (["system", "--members", str(members), "--alpha", "1,2,3"],
                 ["reduce", "--members", str(members), "--mode", "preserve-sum"]):
        assert _run(argv, capsys)[0] == 0
    assert shapes and max(max(shape[-2:], default=0) for shape in shapes) <= 12


def test_system_request_factors_the_stacked_bases_once(tmp_path, monkeypatch, capsys):
    """sum_gap, the dilation spectrum and the independence epsilon all come
    from one values-only SVD of C = [B1 B2 B3] (7 columns in C^8, so the
    independence epsilon needs sigma_min); --alpha adds the one eigvalsh of
    sum alpha_k P_k and the two norms of its symmetry check.  Decoding the
    three members takes one thin SVD each."""
    gen = np.random.default_rng(7)
    S = ss.SubspaceSystem(8, [random_subspace(gen, 8, r) for r in (2, 3, 2)])
    members = tmp_path / "members.json"
    members.write_text(json.dumps(ss.system_to_json(S)))
    argv = ["system", "--members", str(members)]
    assert _count_lapack(monkeypatch, main, argv) == {"svd_thin": 3, "svdvals": 1}
    assert _count_lapack(monkeypatch, main, argv + ["--alpha", "1,2,3"]) == {
        "svd_thin": 3, "svdvals": 1, "eigvalsh": 1, "norm": 2}
    capsys.readouterr()
    report = _run(argv + ["--alpha", "1,2,3"], capsys)[1]
    sigma = np.linalg.svd(np.hstack([m.basis for m in S.members]), compute_uv=False)
    extras = report["margins"]["linear_combination"]["extras"]
    assert abs(extras["independence_epsilon"] - sigma[-1] ** 2) <= 1e-15
    assert report["margins"]["sum_gap"]["entries"][0]["margin"] == \
        pytest.approx(sigma[-1] ** 2, rel=1e-14)
    assert report["dilation_spectrum"][:17] == [0.0] * 17  # (n - 1) d + d - 7, exactly


@pytest.mark.parametrize("theta", [1e-4, 3e-5, 1e-5, 1e-6])
def test_two_lines_at_a_small_angle_keep_their_gap(theta, tmp_path, capsys):
    """P1 + P2 of two lines at angle theta has the eigenvalues 1 +- cos(theta):
    ``system`` reports the sum C^2 with the borderline gap 1 - cos(theta), and
    ``reduce`` refuses that gap as too small instead of running on the next
    eigenvalue and reporting a violated certificate."""
    members = tmp_path / "members.json"
    members.write_text(json.dumps(ss.system_to_json(ss.SubspaceSystem(2, [
        ss.from_spanning(np.array([[1.0], [0.0]])),
        ss.from_spanning(np.array([[np.cos(theta)], [np.sin(theta)]]))]))))
    code, report = _run(["system", "--members", str(members)], capsys)
    gap = report["margins"]["sum_gap"]
    assert code == 0 and gap["extras"]["sum_dim"] == 2 and gap["extras"]["kernel_dim"] == 0
    assert gap["entries"][0]["verdict"] == "borderline"
    expected = 2 * np.sin(theta / 2) ** 2
    assert abs(gap["entries"][0]["margin"] - expected) <= 1e-12 * expected
    code, report = _run(["reduce", "--members", str(members), "--mode", "system"], capsys)
    assert code == 2 and report["error"]["type"] == "GapTooSmall"


def test_verbose_lists_each_margin_on_stderr_only(pair_files, tmp_path, capsys):
    a, b = pair_files
    sysfile = tmp_path / "sys.json"
    sysfile.write_text(json.dumps(ss.system_to_json(ss.SubspaceSystem(
        2, [ss.from_spanning(np.eye(2)[:, [0]]), ss.from_spanning(np.ones((2, 1)))]))))
    for argv in (["pair", "--a", a, "--b", b],
                 ["system", "--members", str(sysfile), "--alpha", "1.0,2.0"]):
        assert main(argv) == 0
        quiet = capsys.readouterr()
        assert main(argv + ["--verbose"]) == 0
        loud = capsys.readouterr()
        assert loud.out == quiet.out and quiet.err == ""
        # a "[section]" line, then one line per entry in report order
        sections = {}
        for line in loud.err.splitlines():
            if line.startswith("["):
                entries = sections.setdefault(line[1:-1], [])
            else:
                entries.append(line)
        assert sections == {
            name: [f"  {e['criterion']}: {float(e['margin'])} ({e['verdict']})"
                   for e in section["entries"]]
            for name, section in json.loads(quiet.out)["margins"].items()}


def test_seed_flag_accepted_before_and_after_subcommand(pair_files, capsys):
    a, b = pair_files
    code1, r1 = _run(["--seed", "5", "pair", "--a", a, "--b", b], capsys)
    code2, r2 = _run(["pair", "--a", a, "--b", b, "--seed", "5"], capsys)
    assert code1 == code2 == 0
    assert r1["provenance"]["seed"] == r2["provenance"]["seed"] == 5


def test_option_value_named_like_a_command_is_not_the_command(pair_files, tmp_path,
                                                              monkeypatch, capsys):
    a, b = pair_files
    monkeypatch.chdir(tmp_path)
    assert main(["--out", "pair", "calculus", "--a", a, "--b", b,
                 "--f1", "1", "--f2", "1"]) == 0
    assert main(["pair", "--a", a, "--b", b, "--out", "calculus"]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads((tmp_path / "pair").read_text())["request"]["command"] == "calculus"
    assert json.loads((tmp_path / "calculus").read_text())["request"]["command"] == "pair"


def test_help_lists_every_command_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["--help"])
    assert exit_.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    for name, (help_, _, _) in COMMANDS.items():
        assert any(line.split() == [name] + help_.split() for line in lines), name
    assert len(COMMANDS) == 8


def test_command_help_shows_its_options(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["calculus", "--help"])
    assert exit_.value.code == 0
    text = capsys.readouterr().out
    assert "usage: sumspaces calculus" in text and "--f4 F4" in text and "--a A" in text
    assert "polynomial coefficients, ascending, comma-separated" in text
    assert "--members" not in text


def test_one_parse_reads_the_terminal_width_once(monkeypatch, capsys):
    calls = []
    size = shutil.get_terminal_size
    monkeypatch.setattr(shutil, "get_terminal_size",
                        lambda *a, **kw: calls.append(a) or size(*a, **kw))
    assert main(["pair", "--a", "/nonexistent.json", "--b", "/nonexistent.json"]) == 3
    assert len(calls) == 1


def test_help_wraps_at_the_terminal_width(monkeypatch, capsys):
    widths = {}
    for columns in ("60", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit):
            main(["pair", "--help"])
        widths[columns] = max(map(len, capsys.readouterr().out.splitlines()))
    assert widths["60"] <= 58 < widths["200"]


@pytest.mark.parametrize("argv", [[], ["frobnicate"], ["pair", "--a", "{a}"],
                                  ["--seed", "x", "pair", "--a", "{a}", "--b", "{a}"],
                                  ["images", "--operators", "{a}", "--analysis", "sum",
                                   "--depth", "four"],
                                  ["system", "--members", "{a}", "--alpha", "-1,1,1"],
                                  ["pair", "--a", "{a}", "--b", "{a}", "--c", "{a}"]],
                         ids=["no_command", "unknown_command", "missing_flag",
                              "bad_type", "bad_type_after_command", "option_like_value",
                              "unknown_flag"])
def test_usage_error_is_the_json_error(argv, pair_files, capsys):
    code = main([arg.format(a=pair_files[0]) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    error = json.loads(captured.out)["error"]
    assert error["type"] == "ArgumentError" and error["message"]


def test_system_file_as_a_subspace_is_input_error(tmp_path, pair_files, capsys):
    code, report = _run(["pair", "--a", _members_file(tmp_path, 2), "--b", pair_files[1]],
                        capsys)
    assert code == 3
    assert report["error"]["type"] == "MalformedInput"
    assert "vectors" in report["error"]["message"]


OWN_FLAGS = {"pair": 2, "calculus": 6, "system": 2, "graph": 3, "reduce": 3, "images": 4,
             "blocks": 3, "sum-as-two": 2}


def _count_parsers(monkeypatch):
    """Count ArgumentParser constructions and add_argument calls."""
    counts = {"parsers": 0, "add_argument": 0}
    init, add = argparse.ArgumentParser.__init__, argparse.ArgumentParser.add_argument

    def counted_init(self, *args, **kwargs):
        counts["parsers"] += 1
        init(self, *args, **kwargs)

    def counted_add(self, *args, **kwargs):
        counts["add_argument"] += 1
        return add(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted_add)
    return counts


_NO_FILE = {"pair": ["--a", "/nonexistent.json", "--b", "/nonexistent.json"],
            "calculus": ["--a", "/nonexistent.json", "--b", "/nonexistent.json"],
            "images": ["--operators", "/nonexistent.json", "--analysis", "sum"],
            "blocks": ["--family-file", "/nonexistent.json"],
            "sum-as-two": ["--family-file", "/nonexistent.json"]}


@pytest.mark.parametrize("command", list(OWN_FLAGS))
def test_main_builds_only_the_requested_parser(command, monkeypatch, capsys):
    """One parser per call that starts with the command, none kept between
    calls: the command's own (-h, the 6 common flags and its flags).  Common
    flags before the command add the top-level parser (-h, the 6 common flags,
    the command name and the rest)."""
    argv = [command] + _NO_FILE.get(command, ["--members", "/nonexistent.json"])
    counts = _count_parsers(monkeypatch)
    assert main(argv) in (2, 3)
    assert counts == {"parsers": 1, "add_argument": 7 + OWN_FLAGS[command]}
    assert main(["--seed", "3", "--m=1e-8", "--out=/nonexistent/r", "--v"] + argv) in (2, 3)
    assert counts == {"parsers": 3, "add_argument": 2 * (7 + OWN_FLAGS[command]) + 9}


# the top-level parser adds -h, the 6 common flags, the command name and the rest
@pytest.mark.parametrize("argv, parsers, add_argument", [
    (["--help"], 1, 9), ([], 1, 9), (["frobnicate"], 1, 9),
    (["--", "pair"] + _NO_FILE["pair"], 2, 9 + 7 + 2),
    (["pair", "--"] + _NO_FILE["pair"], 2, 9 + 7 + 2),
    (["pair", "--a", "/nonexistent.json"], 1, 7 + 2)],
    ids=["help", "no_command", "unknown_command", "double_dash_first",
         "double_dash_after", "usage_error"])
def test_the_top_level_parser_is_built_only_without_a_parsed_command(
        argv, parsers, add_argument, monkeypatch, capsys):
    """Help, a missing or unknown command and -- go to the two-stage parse: the
    top-level parser, then the command's when the top level names one."""
    counts = _count_parsers(monkeypatch)
    try:
        assert main(argv) in (2, 3)
    except SystemExit as exit_:
        assert exit_.code == 0 and argv == ["--help"]
    assert counts == {"parsers": parsers, "add_argument": add_argument}


def _two_stage_parse(argv):
    """The reference: the top-level parser reads the common flags and the
    command name, then the command's parser the rest."""
    width = shutil.get_terminal_size().columns - 2
    top = cli._parser("sumspaces", [], argparse.RawDescriptionHelpFormatter, width,
                      description="Closedness certificates for sums of subspaces",
                      epilog="commands:\n" + "\n".join(
                          f"  {name:<12} {help_}" for name, (help_, _, _) in COMMANDS.items()))
    top.add_argument("command", choices=COMMANDS, metavar="command",
                     help="one of the commands listed below")
    top.add_argument("args", nargs=argparse.REMAINDER,
                     help="the command's flags (sumspaces <command> --help)")
    args = top.parse_args(argv)
    help_, _, flags = COMMANDS[args.command]
    command = cli._parser(f"sumspaces {args.command}", flags, argparse.HelpFormatter, width,
                          description=help_)
    return command.parse_args(args.args, namespace=args)


def _outcome(parse, argv):
    """The namespace (without the two-stage parse's remainder), the exit code and
    stdout of help, or the usage error's message."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            parsed = vars(parse(list(argv)))
    except SystemExit as exit_:
        return "exit", exit_.code, out.getvalue()
    except argparse.ArgumentError as exc:
        return "error", str(exc)
    parsed.pop("args", None)
    return "parsed", parsed


_COMMON = [flag for flag, _ in cli.COMMON]
_FLAGS = _COMMON + [flag[:k] for flag in _COMMON for k in range(3, len(flag))] + sorted(
    {flag for _, _, flags in COMMANDS.values() for flag, _ in flags})
_VALUES = list(COMMANDS) + ["x", "", "1", "0.5", "-1", "-0.5", "-1,1,1", "a b", "sum"]
_TOKENS = st.one_of(
    st.sampled_from(_FLAGS + _VALUES + ["--", "-h", "--help", "--he", "-", "--=1", "-x"]),
    st.builds("{}={}".format, st.sampled_from(_FLAGS + ["--help", "--"]),
              st.sampled_from(_VALUES)))


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@example([], ["pair"], ["--=1"])
@example([], ["blocks"], ["x", "--=x"])
@given(st.lists(_TOKENS, max_size=3), st.sampled_from([[]] + [[c] for c in COMMANDS]),
       st.lists(_TOKENS, max_size=5))
def test_parse_matches_the_two_stage_parse(before, command, after):
    """Common flags exact, abbreviated or with =value, the commands' own flags,
    values named like a command, negative numbers, -- and -h, before and after
    the command: the same namespace, help and exit code, or usage error."""
    argv = before + command + after
    assert _outcome(cli._parse, argv) == _outcome(_two_stage_parse, argv), argv


def test_missing_file_is_io_error(capsys):
    code = main(["pair", "--a", "/nonexistent.json", "--b", "/nonexistent.json"])
    assert code == 3


def test_malformed_json_is_io_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["pair", "--a", str(bad), "--b", str(bad)])
    assert code == 3


@pytest.mark.parametrize("malformed", [False, True], ids=["exit_0", "exit_3"])
@pytest.mark.parametrize("enabled", [True, False], ids=["gc_on", "gc_off"])
def test_main_restores_the_collector_state(enabled, malformed, pair_files, tmp_path,
                                           monkeypatch, capsys):
    a, b = pair_files
    if malformed:  # the error is raised inside json.load
        b = tmp_path / "bad.json"
        b.write_text("{not json")
    parsing, analysing = [], []
    load, report = json.load, ss.pairs.pair_report
    monkeypatch.setattr(json, "load", lambda fh: parsing.append(gc.isenabled()) or load(fh))
    monkeypatch.setattr(ss.pairs, "pair_report",
                        lambda *args: analysing.append(gc.isenabled()) or report(*args))
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        code = main(["pair", "--a", a, "--b", str(b)])
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert code == (3 if malformed else 0)
    assert parsing == [False, False]  # no collection while a file is parsed
    assert analysing == ([] if malformed else [False])  # nor while it is analysed


def test_precondition_error_is_exit_2(tmp_path, capsys):
    sysfile = tmp_path / "sys.json"
    sysfile.write_text(json.dumps(ss.system_to_json(
        ss.SubspaceSystem(2, [ss.zero_subspace(2), ss.zero_subspace(2)]))))
    code, report = _run(["reduce", "--members", str(sysfile)], capsys)
    assert code == 2
    assert report["error"]["type"] == "GapTooSmall"


BAD_ENTRIES = {"bare_float": 0.5, "infinity": [float("inf"), 0.0],
               "nan": [float("nan"), 0.0], "three_elements": [1.0, 0.0, 0.0],
               "boolean": [True, 0.0], "string": ["1", 0.0]}
# whole-document corruptions: a top level that is not an object, a list dimension
BAD_DOCUMENTS = {"top_level_list": lambda data: [1, 2],
                 "ambient_dim_list": lambda data: {**data, "ambient_dim": [2]}}


@pytest.mark.parametrize("entry", list(BAD_ENTRIES) + list(BAD_DOCUMENTS),
                         ids=list(BAD_ENTRIES) + list(BAD_DOCUMENTS))
@pytest.mark.parametrize("command", ["pair", "images"])
def test_malformed_entry_is_input_error(command, entry, pair_files, tmp_path, capsys):
    if command == "pair":
        with open(pair_files[1]) as fh:
            data = json.load(fh)
        entries = data["vectors"][0]
        argv = ["pair", "--a", pair_files[0], "--b", str(tmp_path / "bad.json")]
    else:
        data = family_to_json(ss.OperatorFamily(2, [np.eye(2)], ["nonnegative"]))
        entries = data["matrices"][0][1]
        argv = ["images", "--operators", str(tmp_path / "bad.json"),
                "--analysis", "pradius"]
    if entry in BAD_DOCUMENTS:
        data = BAD_DOCUMENTS[entry](data)
    else:
        entries[0] = BAD_ENTRIES[entry]
    (tmp_path / "bad.json").write_text(json.dumps(data))
    code, report = _run(argv, capsys)
    assert code == 3
    assert report["error"]["type"] == "MalformedInput"


@pytest.mark.parametrize("argv", [["blocks", "--horizon", "0"],
                                  ["blocks", "--horizon", "-3"],
                                  ["sum-as-two", "--horizon", "0"]])
def test_empty_horizon_is_exit_2(argv, tmp_path, capsys):
    family = _family_file(tmp_path, "one_over_k", n=3)
    code, report = _run(argv + ["--family-file", family], capsys)
    assert code == 2
    assert report["error"]["type"] == "ValueError"


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(ss.__file__)))
    probe = ("import sys, sumspaces.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.strip() == "[]"


def test_no_analysis_layer_imports_another():
    """A command's module pulls in only the core modules, so that cli can import
    the requested one alone; paircalc's API takes a pairs.PairDecomposition."""
    layers = {"pairs", "paircalc", "reduction", "images", "systems", "blockmodel"}
    imported = {}
    for layer in layers:
        with open(os.path.join(os.path.dirname(ss.__file__), f"{layer}.py")) as fh:
            tree = ast.parse(fh.read())
        imported[layer] = {name for node in ast.walk(tree)
                           if isinstance(node, ast.ImportFrom) and node.level == 1
                           for name in ([node.module.split(".")[0]] if node.module
                                        else [alias.name for alias in node.names])}
    assert {layer: names & layers for layer, names in imported.items()} == {
        layer: {"pairs"} if layer == "paircalc" else set() for layer in layers}


def test_numpy_is_the_only_runtime_dependency():
    """Every import in the package, at any depth, is of the standard library,
    numpy or the package itself, and numpy is the one runtime dependency that
    pyproject.toml declares."""
    tomllib = pytest.importorskip("tomllib")  # the standard library from Python 3.11
    package = pathlib.Path(ss.__file__).parent
    allowed = sys.stdlib_module_names | {"numpy", "sumspaces"}
    outside = [f"{path.name}: {name}" for path in sorted(package.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               for name in ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                            else [node.module] if isinstance(node, ast.ImportFrom)
                            and not node.level else [])
               if name.split(".")[0] not in allowed]
    assert not outside, outside
    project = tomllib.loads((package.parents[1] / "pyproject.toml").read_text())["project"]
    assert [re.match(r"[\w.-]+", dep)[0] for dep in project["dependencies"]] == ["numpy"]


def test_every_public_name_is_reached():
    """Every public module-level function or class of the package, and every
    public method of such a class, is loaded by name (an ast.Name or
    ast.Attribute; an import alias does not count) outside its own definition,
    in a package module, a demo or the acceptance tests: the CLI is the product,
    so what only its own tests reach is dead weight.  A method is reached by any
    attribute of its name, whatever the object."""
    root = pathlib.Path(__file__).resolve().parents[1]
    modules = [ast.parse(path.read_text(encoding="utf-8"))
               for path in pathlib.Path(ss.__file__).parent.glob("*.py")
               if path.name != "__init__.py"]
    defs = {node.name: node for tree in modules for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}
    defs.update({f"{cls.name}.{node.name}": node for cls in list(defs.values())
                 if isinstance(cls, ast.ClassDef) for node in cls.body
                 if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")})
    inside = {name: {id(node) for node in ast.walk(d)} for name, d in defs.items()}
    readers = modules + [ast.parse(path.read_text(encoding="utf-8")) for path in
                         [*(root / "demos").glob("*.py"), root / "tests" / "test_acceptance.py"]]
    loads = collections.defaultdict(set)
    for tree in readers:
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                loads[node.id if isinstance(node, ast.Name) else node.attr].add(id(node))
    reached = {name for name in defs if loads[name.rpartition(".")[2]] - inside[name]}
    assert len(defs) > 70
    unreached = sorted(defs.keys() - reached)
    assert not unreached, f"no command, demo or acceptance test reaches {unreached}"


def test_blocks_command_family_file(tmp_path, capsys):
    spec = tmp_path / "family.json"
    spec.write_text(json.dumps({"family": "one_over_k", "n": 3}))
    code, report = _run(["blocks", "--family-file", str(spec),
                         "--horizon", "30"], capsys)
    assert code == 0
    assert report["verdict"]["status"] in ("gap_vanishing", "inconclusive")
    assert len(report["verdict"]["gaps"]) == 30


def test_blocks_echoes_the_subset_it_analysed(tmp_path, capsys):
    """A subset is read as a set: repeats and order do not change the report."""
    family = _family_file(tmp_path, "compact_triple")
    outs = []
    for subset in ("3,1,1", "1,3"):
        assert main(["blocks", "--family-file", family, "--horizon", "20",
                     "--subset", subset]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["request"]["subset"] == [1, 3]


def test_sum_as_two_command(tmp_path, capsys):
    code, report = _run(["sum-as-two", "--family-file", _family_file(tmp_path, "compact_triple"),
                         "--horizon", "10"], capsys)
    assert code == 0
    assert len(report["artifacts"]["m1_dims"]) == 10


def test_images_pradius_command(tmp_path, capsys):
    opfile = tmp_path / "ops.json"
    F = ss.OperatorFamily(2, [np.diag([1.0, 0.0])], ["nonnegative"])
    opfile.write_text(json.dumps(family_to_json(F)))
    code, report = _run(["images", "--operators", str(opfile),
                         "--analysis", "pradius"], capsys)
    assert code == 0
    assert report["verdict"] == "deficient"


@pytest.mark.parametrize("depth", ["0", "-2"])
def test_images_pradius_depth_below_one_is_exit_2(depth, tmp_path, capsys):
    opfile = tmp_path / "ops.json"
    F = ss.OperatorFamily(2, [np.diag([1.0, 0.0])], ["nonnegative"])
    opfile.write_text(json.dumps(family_to_json(F)))
    code, report = _run(["images", "--operators", str(opfile), "--analysis",
                         "pradius", "--depth", depth], capsys)
    assert code == 2
    assert report["error"]["type"] == "ValueError"


def test_out_flag_writes_file(pair_files, tmp_path, capsys):
    a, b = pair_files
    out = tmp_path / "report.json"
    code = main(["pair", "--a", a, "--b", b, "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["request"]["command"] == "pair"


def test_the_json_default_takes_only_margin_reports_and_arrays():
    assert cli._json_value(np.arange(3.0)) == [0.0, 1.0, 2.0]
    report = ss.MarginReport()
    report.add("vacuous", 0.0, 1e-8, vacuous=True)
    assert cli._json_value(report) == {"entries": [
        {"criterion": "vacuous", "margin": "inf", "verdict": "satisfied", "note": "vacuous"}]}
    for value in (1j, np.float64(0.5), np.int64(1), np.bool_(True), {1, 2}, Fraction(1, 2),
                  object()):
        with pytest.raises(TypeError, match=type(value).__name__):
            cli._json_value(value)


@pytest.mark.parametrize("leak", [np.inf, np.nan, np.array([1.0, np.inf])],
                         ids=["inf", "nan", "array"])
def test_a_non_finite_number_outside_a_margin_is_exit_2(leak, pair_files, monkeypatch,
                                                        capsys):
    """Reports are strict JSON: a non-finite value anywhere but a margin is an
    error from the emit step, inside main's exit-code mapping, and no report."""
    help_, _, flags = COMMANDS["pair"]
    monkeypatch.setitem(COMMANDS, "pair", (help_, lambda args, tol: {"leak": leak}, flags))
    a, b = pair_files
    code, report = _run(["pair", "--a", a, "--b", b], capsys)
    assert code == 2
    assert report["error"]["type"] == "ValueError"
    assert "JSON compliant" in report["error"]["message"]


def _members_file(tmp_path, n):
    path = tmp_path / "members.json"
    e = np.eye(n)
    path.write_text(json.dumps(ss.system_to_json(ss.SubspaceSystem(
        n, [ss.from_spanning(e[:, [k]]) for k in range(n)]))))
    return str(path)


BAD_GRAPHS = {"n_list": {"n": [2], "edges": [[1, 2, 1.0]]},
              "n_string": {"n": "2", "edges": [[1, 2, 1.0]]},
              "edges_number": {"n": 2, "edges": 5},
              "edge_pair": {"n": 2, "edges": [[1, 2]]},
              "edge_string": {"n": 2, "edges": ["12x"]},
              "weight_string": {"n": 2, "edges": [[1, 2, "1"]]},
              "weight_nan": {"n": 2, "edges": [[1, 2, float("nan")]]},
              "weight_past_float": {"n": 2, "edges": [[1, 2, 10 ** 400]]},
              "vertex_fraction": {"n": 2, "edges": [[1.5, 2, 1]]}}


@pytest.mark.parametrize("graph", list(BAD_GRAPHS))
def test_malformed_graph_file_is_input_error(graph, tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(BAD_GRAPHS[graph]))
    code, report = _run(["graph", "--members", _members_file(tmp_path, 2),
                         "--graph", str(path)], capsys)
    assert code == 3
    assert report["error"]["type"] == "MalformedInput"


# every key but "family" is a parameter read as a number, so a "params" list or
# object is malformed
BAD_FAMILIES = {"n_list": {"family": "one_over_k", "n": [3]},
                "params_list": {"family": "halmos_accumulating", "params": [1]},
                "params_object": {"family": "halmos_accumulating", "params": {"rate": 0.5}},
                "rate_list": {"family": "halmos_accumulating", "rate": [1]},
                "rate_string": {"family": "halmos_accumulating", "rate": "x"},
                "n_param_string": {"family": "one_over_k", "n": "x"},
                "rate_infinite": {"family": "halmos_accumulating", "rate": float("inf")},
                "n_param_fraction": {"family": "one_over_k", "n": 2.5},
                "family_number": {"family": 5},
                "family_list": {"family": ["one_over_k"]},
                "family_null": {"family": None}}


@pytest.mark.parametrize("command", ["blocks", "sum-as-two"])
@pytest.mark.parametrize("family", list(BAD_FAMILIES))
def test_malformed_family_file_is_input_error(family, command, tmp_path, capsys):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(BAD_FAMILIES[family]))
    code, report = _run([command, "--family-file", str(path), "--horizon", "5"], capsys)
    assert code == 3
    assert report["error"]["type"] == "MalformedInput"


_EYE2 = family_to_json(ss.OperatorFamily(2, [np.eye(2)]))["matrices"][0]
BAD_SYSTEMS = {"members_number": {"ambient_dim": 2, "members": 5},
               "members_string": {"ambient_dim": 2, "members": ["x"]}}
BAD_OPERATORS = {"matrices_number": {"ambient_dim": 2, "matrices": 5},
                 "kind_number": {"ambient_dim": 2, "matrices": [_EYE2], "kind": 5},
                 "kind_unknown": {"ambient_dim": 2, "matrices": [_EYE2], "kind": ["x"]},
                 "kind_short": {"ambient_dim": 2, "matrices": [_EYE2, _EYE2],
                                "kind": ["nonnegative"]},
                 "ambient_dim_zero": {"ambient_dim": 0, "matrices": []},
                 "empty_matrices": {"ambient_dim": 2, "matrices": []}}


@pytest.mark.parametrize("name", list(BAD_SYSTEMS) + list(BAD_OPERATORS))
def test_malformed_system_or_operator_file_is_input_error(name, tmp_path, capsys):
    path = tmp_path / "input.json"
    if name in BAD_SYSTEMS:
        path.write_text(json.dumps(BAD_SYSTEMS[name]))
        argv = ["reduce", "--members", str(path)]
    else:
        path.write_text(json.dumps(BAD_OPERATORS[name]))
        argv = ["images", "--operators", str(path), "--analysis", "sum"]
    code, report = _run(argv, capsys)
    assert code == 3
    assert report["error"]["type"] == "MalformedInput"


@pytest.mark.parametrize("analysis", ["douglas", "sum", "pradius", "membership"])
def test_empty_operator_family_is_named(analysis, tmp_path, capsys):
    path = tmp_path / "ops.json"
    path.write_text(json.dumps(BAD_OPERATORS["empty_matrices"]))
    code, report = _run(["images", "--operators", str(path), "--analysis", analysis], capsys)
    assert code == 3
    assert report["error"]["type"] == "MalformedInput"
    assert '"matrices" is []' in report["error"]["message"]


@pytest.mark.parametrize("analysis, error", [("pradius", "ComputationFailed"),
                                             ("sum", "ComputationFailed"),
                                             ("membership", "ComputationFailed"),
                                             ("douglas", "OverflowError")])
def test_overflowing_operator_entry_is_named(analysis, error, tmp_path, capsys):
    """One finite 1e300 entry overflows inside the analysis: exit 2 with an
    error that names the overflow, not a failed SVD or a NaN asymmetry."""
    A = np.eye(2, dtype=complex)
    A[0, 0] = 1e300
    path = tmp_path / "ops.json"
    path.write_text(json.dumps(family_to_json(ss.OperatorFamily(
        2, [A, np.diag([2.0, 1.0])], ["nonnegative"] * 2))))
    code, report, err = _run_quietly(["images", "--operators", str(path), "--analysis",
                                      analysis], capsys)
    assert code == 2 and err == ""
    assert report["error"]["type"] == error
    assert "overflow" in f"{error} {report['error']['message']}".lower()


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("depth", ["2", "3"])
def test_overflowing_p_radius_words_are_named(depth, tmp_path, capsys):
    """Words of I - T_i with entries 1e300 overflow at depth 2: exit 2 naming the
    overflow at every depth, not a NaN in the sequence (which is not JSON) or an
    unconverged SVD."""
    path = tmp_path / "ops.json"
    path.write_text(json.dumps(family_to_json(ss.OperatorFamily(2, [np.full((2, 2), 1e300)] * 2))))
    code, report, err = _run_quietly(["images", "--operators", str(path), "--analysis",
                                      "pradius", "--depth", depth], capsys)
    assert code == 2 and err == ""
    assert report["error"]["type"] == "ComputationFailed"
    assert "overflow" in report["error"]["message"]


def test_an_allocation_numpy_cannot_make_is_exit_2(tmp_path, capsys):
    # the 10^8 x 10^8 complex identity of one block is 142 PiB, past any 64-bit
    # address space, so numpy refuses it at once
    family = _family_file(tmp_path, "one_over_k", n=100000000)
    code, report = _run(["blocks", "--family-file", family,
                         "--subset", "1", "--horizon", "1"], capsys)
    assert code == 2
    assert "MemoryError" in report["error"]["type"]
    assert "Unable to allocate" in report["error"]["message"]


@pytest.mark.parametrize("d, r", [(8, 4), (64, 32)], ids=["thin_svd", "qr"])
def test_overflowing_subspace_is_refused_not_read_as_zero(d, r, tmp_path, capsys):
    """Finite vectors, doubled until their singular values overflow: exit 2
    with ComputationFailed naming the overflow, on either side of the QR size
    rule, never the zero subspace with every independent_pair margin satisfied."""
    assert (min(d, r) > ss.subspaces.QR_MIN_SIDE) == (d == 64)
    rng = np.random.default_rng(d)
    V = (rng.uniform(-1, 1, (d, r)) + 1j * rng.uniform(-1, 1, (d, r))) * 1e300
    with np.errstate(all="ignore"):
        while np.isfinite(np.linalg.svd(V, compute_uv=False)).all():
            V *= 2
    assert np.isfinite(V.view(float)).all()
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"ambient_dim": d, "vectors": [[[z.real, z.imag] for z in col]
                                                             for col in V.T]}))
    code, report, err = _run_quietly(["pair", "--a", str(path), "--b", str(path)], capsys)
    assert code == 2 and err == ""
    assert report["error"]["type"] == "ComputationFailed"
    assert "overflow" in report["error"]["message"]


@pytest.mark.parametrize("case, error", [("f_overflow", "ComputationFailed"),
                                         ("f_subnormal", "HypothesisViolated"),
                                         ("alpha_overflow", "ComputationFailed")])
def test_overflow_in_an_analysis_leaves_stderr_empty(case, error, pair_files, tmp_path,
                                                     capsys):
    """Inputs whose arithmetic overflows or divides by a subnormal inside the
    analysis: exit 2 with the JSON error and no floating-point warning on stderr."""
    a, b = pair_files
    argv = {"f_overflow": ["calculus", "--a", a, "--b", b, "--f1", "1e308,1e308", "--f2", "1"],
            "f_subnormal": ["calculus", "--a", a, "--b", b, "--f1", "1e-320", "--f2", "1e-320"],
            "alpha_overflow": ["system", "--members", _members_file(tmp_path, 3),
                               "--alpha", "1e308,1e308,1e308"]}[case]
    code, report, err = _run_quietly(argv, capsys)
    assert code == 2 and err == ""
    assert report["error"]["type"] == error


BAD_NUMBER_FAMILIES = {"family_n_zero": {"family": "one_over_k", "n": 0},
                       "rate_two": {"family": "halmos_accumulating", "rate": 2},
                       "rate_negative": {"family": "halmos_accumulating", "rate": -1},
                       "halmos_n": {"family": "halmos_accumulating", "n": 2},
                       "compact_triple_n_param": {"family": "compact_triple", "n": 3},
                       "zzz_param": {"family": "compact_triple", "zzz": 1},
                       "one_over_k_rate": {"family": "one_over_k", "rate": 0.5}}


@pytest.mark.parametrize("case", ["p_nan", "f1_nan", "family_n_zero",
                                  "rate_two", "rate_negative", "halmos_n",
                                  "compact_triple_n_param", "compact_triple_n",
                                  "zzz_param", "one_over_k_rate", "f_overflow",
                                  "rank_tol_inf", "rank_tol_three_quarters", "rank_tol_one",
                                  "eig_tol_inf", "eig_tol_tenth", "eig_tol_fifth",
                                  "margin_tol_inf"])
def test_bad_number_is_exit_2(case, pair_files, tmp_path, capsys):
    a, b = pair_files
    path = tmp_path / "input.json"
    if case == "p_nan":
        path.write_text(json.dumps(family_to_json(ss.OperatorFamily(2, [np.eye(2)]))))
        argv = ["images", "--operators", str(path), "--analysis", "pradius", "--p", "nan"]
    elif case == "f1_nan":
        argv = ["calculus", "--a", a, "--b", b, "--f1", "nan"]
    elif case == "f_overflow":  # finite coefficients, T(x) and D(x) overflow
        argv = ["calculus", "--a", a, "--b", b, "--f1", "1e300", "--f2", "1e300"]
    elif case == "compact_triple_n":  # blocks reads the family file as sum-as-two does
        argv = ["blocks", "--family-file", _family_file(tmp_path, "compact_triple", n=7),
                "--horizon", "5"]
    elif case == "rank_tol_inf":  # would report an empty image
        path.write_text(json.dumps(family_to_json(ss.OperatorFamily(2, [np.eye(2)]))))
        argv = ["images", "--operators", str(path), "--analysis", "sum", "--rank-tol", "inf"]
    elif case == "rank_tol_three_quarters":  # the 45 degree pair would be meet and orthogonal
        argv = ["pair", "--a", a, "--b", b, "--rank-tol", "0.75"]
    elif case == "rank_tol_one":  # every member would decode as the zero subspace
        argv = ["system", "--members", _members_file(tmp_path, 2), "--rank-tol", "1"]
    elif case in ("eig_tol_tenth", "eig_tol_fifth"):  # the gap cap 1 - 10 eig_tol <= 0
        argv = ["reduce", "--members", _members_file(tmp_path, 2),
                "--eig-tol", "0.1" if case == "eig_tol_tenth" else "0.2"]
    elif case == "eig_tol_inf":  # would report all-zero dimensions
        argv = ["sum-as-two", "--family-file", _family_file(tmp_path, "one_over_k", n=3),
                "--horizon", "5", "--eig-tol", "inf"]
    elif case == "margin_tol_inf":
        argv = ["pair", "--a", a, "--b", b, "--margin-tol", "inf"]
    else:
        path.write_text(json.dumps(BAD_NUMBER_FAMILIES[case]))
        argv = ["sum-as-two", "--family-file", str(path), "--horizon", "5"]
    code = main(argv)
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert code == 2 and err == ""
    assert report["error"]["type"] == "ValueError"
    for key in ("rate", "zzz", "rank_tol", "eig_tol"):  # the offending value is named
        if key in case:
            assert key in report["error"]["message"]


@pytest.mark.parametrize("command", ["blocks", "sum-as-two"])
def test_the_family_file_is_the_only_family_flag(command, tmp_path, monkeypatch, capsys):
    """--n is no flag, --family abbreviates --family-file (a path) and the family
    file is required: each a JSON error, never a report of a default family."""
    monkeypatch.chdir(tmp_path)
    family = _family_file(tmp_path, "one_over_k", n=3)
    for argv, code, error_type, named in [
            (["--family-file", family, "--n", "3"], 2, "ArgumentError", "--n"),
            (["--family", "one_over_k"], 3, "FileNotFoundError", "'one_over_k'"),
            (["--horizon", "5"], 2, "ArgumentError", "--family-file")]:
        assert main([command] + argv) == code, argv
        out, err = capsys.readouterr()
        error = json.loads(out)["error"]
        assert err == "" and error["type"] == error_type and named in error["message"], argv


@pytest.mark.parametrize("command", ["blocks", "sum-as-two"])
def test_family_file_rate_is_a_parameter(command, tmp_path, capsys):
    """{"family": ..., "rate": c} reports as paper_families(..., {"rate": c})."""
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"family": "halmos_accumulating", "rate": 0.5}))
    code, report = _run([command, "--family-file", str(path), "--horizon", "5"], capsys)
    assert code == 0
    assert report["request"]["params"] == {"rate": 0.5}
    BS = ss.paper_families("halmos_accumulating", {"rate": 0.5})
    if command == "blocks":
        verdict = ss.certify(BS, [1, 2], 5)
        assert report["verdict"] == json.loads(json.dumps(
            {"status": verdict.status, "inf_gap": verdict.inf_gap, "gaps": verdict.gaps,
             "trend_slope": verdict.trend_slope, "trend_residual": verdict.trend_residual}))
    else:
        m1, m2, margins = ss.sum_as_two(BS, 5)
        assert report["artifacts"] == {"m1_dims": [s.dim for s in m1],
                                       "m2_dims": [s.dim for s in m2]}
        assert report["margins"]["sum_as_two"] == json.loads(json.dumps(margins.to_dict()))


@pytest.mark.parametrize("command", ["blocks", "sum-as-two"])
def test_family_file_echoes_the_default_rate(command, tmp_path, capsys):
    """A halmos_accumulating file with no rate reports, byte for byte, as one
    with the default "rate": 1.0: the echoed params are the rate used."""
    path = tmp_path / "family.json"
    outs = []
    for params in ({}, {"rate": 1.0}):
        path.write_text(json.dumps({"family": "halmos_accumulating", **params}))
        assert main([command, "--family-file", str(path), "--horizon", "5"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["request"]["params"] == {"rate": 1.0}


@pytest.mark.parametrize("argv_alpha", [["--alpha", ""], ["--alpha="], ["--alpha", "1,,2"]],
                         ids=["empty", "empty_equals", "empty_entry"])
def test_malformed_alpha_is_exit_2(argv_alpha, tmp_path, capsys):
    """An empty --alpha is refused like any other malformed list, not skipped."""
    code, report = _run(["system", "--members", _members_file(tmp_path, 3)] + argv_alpha,
                        capsys)
    assert code == 2
    assert report["error"]["type"] == "ValueError"


@pytest.mark.parametrize("alpha", ["nan,1,1", "inf,1,1"])
def test_non_finite_alpha_is_exit_2(alpha, tmp_path, capsys):
    code = main(["system", "--members", _members_file(tmp_path, 3), "--alpha", alpha])
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    error = json.loads(captured.out)["error"]
    assert error["type"] == "DimensionMismatch" and "alpha" in error["message"]


@pytest.mark.parametrize("case", ["reduce_pair_three_members", "douglas_one_operator"])
def test_member_count_refusals_are_dimension_mismatch(case, tmp_path, capsys):
    """A member count the analysis cannot take is a DimensionMismatch, as the
    --alpha length and the graph order are."""
    if case == "reduce_pair_three_members":
        argv = ["reduce", "--members", _members_file(tmp_path, 3), "--mode", "pair"]
        named = "pair mode needs exactly two members"
    else:
        path = tmp_path / "ops.json"
        path.write_text(json.dumps(family_to_json(ss.OperatorFamily(2, [np.eye(2)]))))
        argv = ["images", "--operators", str(path), "--analysis", "douglas"]
        named = "douglas analysis needs exactly two operators"
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    error = json.loads(captured.out)["error"]
    assert error["type"] == "DimensionMismatch" and named in error["message"]


def test_reduce_of_an_empty_sum_is_one_refusal(tmp_path, capsys):
    """Members that all span {0} have no gap and no certificate: both reduction
    modes exit 2 with the same GapTooSmall error, and neither reports a result."""
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"ambient_dim": 3, "members": [
        {"ambient_dim": 3, "vectors": []}, {"ambient_dim": 3, "vectors": []}]}))
    outs = []
    for mode in ("system", "preserve-sum"):
        code = main(["reduce", "--members", str(path), "--mode", mode])
        captured = capsys.readouterr()
        assert code == 2 and captured.err == "", mode
        outs.append(captured.out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0]) == {"error": {"type": "GapTooSmall",
                                             "message": "the members span {0}"}}


def test_graph_file_is_read(tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps({"n": 2, "edges": [[1, 2, 2]]}))
    code, report = _run(["graph", "--members", _members_file(tmp_path, 2),
                         "--graph", str(path)], capsys)
    assert code == 0
    assert report["margins"]["complement_graph"]["entries"][0]["margin"] == pytest.approx(2.0)


_EMPTY_SUBSPACE = {"ambient_dim": 0, "vectors": []}
_EMPTY_SYSTEM = {"ambient_dim": 0, "members": [_EMPTY_SUBSPACE, _EMPTY_SUBSPACE]}


@pytest.mark.parametrize("argv", [["pair", "--a", "{f}", "--b", "{f}"],
                                  ["calculus", "--a", "{f}", "--b", "{f}", "--f1", "1"],
                                  ["system", "--members", "{f}"],
                                  ["graph", "--members", "{f}"],
                                  ["reduce", "--members", "{f}", "--mode", "pair"],
                                  ["reduce", "--members", "{f}"]],
                         ids=["pair", "calculus", "system", "graph", "reduce_pair",
                              "reduce_system"])
def test_zero_ambient_dim_is_input_error(argv, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(_EMPTY_SUBSPACE if argv[0] in ("pair", "calculus")
                               else _EMPTY_SYSTEM))
    code, report = _run([arg.format(f=path) for arg in argv], capsys)
    assert code == 3
    assert report["error"]["type"] == "MalformedInput"
    assert "ambient_dim" in report["error"]["message"]
