import argparse
import gc
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import sumspaces as ss
from sumspaces.cli import COMMANDS, main

from conftest import random_subspace


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
    # d = 8 and member dims (3, 4, 3): no np.linalg call may see a matrix side
    # above max(d, 3 + 4 + 3) = 10, where the dilation space C^{nd} has 24
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
    assert shapes and max(max(shape[-2:], default=0) for shape in shapes) <= 10


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
    monkeypatch.setattr(shutil, "get_terminal_size", lambda *a: calls.append(a) or size(*a))
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
             "blocks": 5, "sum-as-two": 4}


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


@pytest.mark.parametrize("command", list(OWN_FLAGS))
def test_main_builds_only_the_requested_parser(command, monkeypatch, capsys):
    """Two parsers per call, none kept between calls: the top one (-h, the 6
    common flags, the command name and its arguments) and the command's own
    (-h, the 6 common flags and its flags)."""
    argv = {"pair": ["--a", "/nonexistent.json", "--b", "/nonexistent.json"],
            "calculus": ["--a", "/nonexistent.json", "--b", "/nonexistent.json"],
            "images": ["--operators", "/nonexistent.json", "--analysis", "sum"],
            "blocks": ["--horizon", "0"], "sum-as-two": ["--horizon", "0"]}.get(
                command, ["--members", "/nonexistent.json"])
    counts = _count_parsers(monkeypatch)
    assert main([command] + argv) in (2, 3)
    assert counts == {"parsers": 2, "add_argument": 9 + 7 + OWN_FLAGS[command]}
    assert main([command] + argv) in (2, 3)
    assert counts == {"parsers": 4, "add_argument": 2 * (9 + 7 + OWN_FLAGS[command])}


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
    parsing = []
    load = json.load
    monkeypatch.setattr(json, "load", lambda fh: parsing.append(gc.isenabled()) or load(fh))
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        code = main(["pair", "--a", a, "--b", str(b)])
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert code == (3 if malformed else 0)
    assert parsing == [False, False]  # no collection while a file is parsed


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
        data = ss.OperatorFamily(2, [np.eye(2)], ["nonnegative"]).to_json()
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
def test_empty_horizon_is_exit_2(argv, capsys):
    code, report = _run(argv, capsys)
    assert code == 2
    assert report["error"]["type"] == "ValueError"


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(ss.__file__)))
    probe = ("import sys, sumspaces.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.strip() == "[]"


def test_blocks_command_family_file(tmp_path, capsys):
    spec = tmp_path / "family.json"
    spec.write_text(json.dumps({"family": "one_over_k", "n": 3}))
    code, report = _run(["blocks", "--family-file", str(spec),
                         "--horizon", "30"], capsys)
    assert code == 0
    assert report["verdict"]["status"] in ("gap_vanishing", "inconclusive")
    assert len(report["verdict"]["gaps"]) == 30


def test_blocks_echoes_the_subset_it_analysed(capsys):
    """A subset is read as a set: repeats and order do not change the report."""
    outs = []
    for subset in ("3,1,1", "1,3"):
        assert main(["blocks", "--family", "compact_triple", "--horizon", "20",
                     "--subset", subset]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["request"]["subset"] == [1, 3]


def test_sum_as_two_command(capsys):
    code, report = _run(["sum-as-two", "--family", "compact_triple",
                         "--horizon", "10"], capsys)
    assert code == 0
    assert len(report["artifacts"]["m1_dims"]) == 10


def test_images_pradius_command(tmp_path, capsys):
    opfile = tmp_path / "ops.json"
    F = ss.OperatorFamily(2, [np.diag([1.0, 0.0])], ["nonnegative"])
    opfile.write_text(json.dumps(F.to_json()))
    code, report = _run(["images", "--operators", str(opfile),
                         "--analysis", "pradius"], capsys)
    assert code == 0
    assert report["verdict"] == "deficient"


@pytest.mark.parametrize("depth", ["0", "-2"])
def test_images_pradius_depth_below_one_is_exit_2(depth, tmp_path, capsys):
    opfile = tmp_path / "ops.json"
    F = ss.OperatorFamily(2, [np.diag([1.0, 0.0])], ["nonnegative"])
    opfile.write_text(json.dumps(F.to_json()))
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


BAD_FAMILIES = {"n_list": {"family": "one_over_k", "n": [3]},
                "params_list": {"family": "halmos_accumulating", "params": [1]},
                "rate_string": {"family": "halmos_accumulating", "params": {"rate": "x"}},
                "n_param_string": {"family": "one_over_k", "params": {"n": "x"}},
                "rate_infinite": {"family": "halmos_accumulating",
                                  "params": {"rate": float("inf")}},
                "n_param_fraction": {"family": "one_over_k", "params": {"n": 2.5}}}


@pytest.mark.parametrize("command", ["blocks", "sum-as-two"])
@pytest.mark.parametrize("family", list(BAD_FAMILIES))
def test_malformed_family_file_is_input_error(family, command, tmp_path, capsys):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(BAD_FAMILIES[family]))
    code, report = _run([command, "--family-file", str(path), "--horizon", "5"], capsys)
    assert code == 3
    assert report["error"]["type"] == "MalformedInput"


_EYE2 = ss.OperatorFamily(2, [np.eye(2)]).to_json()["matrices"][0]
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
    path.write_text(json.dumps(ss.OperatorFamily(
        2, [A, np.diag([2.0, 1.0])], ["nonnegative"] * 2).to_json()))
    with np.errstate(all="ignore"):
        code, report = _run(["images", "--operators", str(path), "--analysis", analysis],
                            capsys)
    assert code == 2
    assert report["error"]["type"] == error
    assert "overflow" in f"{error} {report['error']['message']}".lower()


BAD_NUMBER_FAMILIES = {"family_n_zero": {"family": "one_over_k", "n": 0},
                       "rate_two": {"family": "halmos_accumulating", "params": {"rate": 2}},
                       "rate_negative": {"family": "halmos_accumulating",
                                         "params": {"rate": -1}},
                       "halmos_n": {"family": "halmos_accumulating", "n": 2},
                       "compact_triple_n_param": {"family": "compact_triple",
                                                  "params": {"n": 3}},
                       "zzz_param": {"family": "compact_triple", "params": {"zzz": 1}},
                       "one_over_k_rate": {"family": "one_over_k", "params": {"rate": 0.5}},
                       "top_level_rate": {"family": "halmos_accumulating", "rate": 0.5},
                       "n_twice": {"family": "one_over_k", "n": 3, "params": {"n": 4}}}


@pytest.mark.parametrize("case", ["p_nan", "f1_nan", "n_zero", "family_n_zero",
                                  "rate_two", "rate_negative", "halmos_n",
                                  "compact_triple_n_param", "compact_triple_n",
                                  "zzz_param", "one_over_k_rate", "top_level_rate",
                                  "n_twice", "f_overflow", "rank_tol_inf",
                                  "eig_tol_inf", "margin_tol_inf"])
def test_bad_number_is_exit_2(case, pair_files, tmp_path, capsys):
    a, b = pair_files
    path = tmp_path / "input.json"
    if case == "p_nan":
        path.write_text(json.dumps(ss.OperatorFamily(2, [np.eye(2)]).to_json()))
        argv = ["images", "--operators", str(path), "--analysis", "pradius", "--p", "nan"]
    elif case == "f1_nan":
        argv = ["calculus", "--a", a, "--b", b, "--f1", "nan"]
    elif case == "f_overflow":  # finite coefficients, T(x) and D(x) overflow
        argv = ["calculus", "--a", a, "--b", b, "--f1", "1e300", "--f2", "1e300"]
    elif case == "n_zero":
        argv = ["sum-as-two", "--n", "0", "--horizon", "5"]
    elif case == "compact_triple_n":
        argv = ["blocks", "--family", "compact_triple", "--n", "7", "--horizon", "5"]
    elif case == "rank_tol_inf":  # would report an empty image
        path.write_text(json.dumps(ss.OperatorFamily(2, [np.eye(2)]).to_json()))
        argv = ["images", "--operators", str(path), "--analysis", "sum", "--rank-tol", "inf"]
    elif case == "eig_tol_inf":  # would report all-zero dimensions
        argv = ["sum-as-two", "--n", "3", "--horizon", "5", "--eig-tol", "inf"]
    elif case == "margin_tol_inf":
        argv = ["pair", "--a", a, "--b", b, "--margin-tol", "inf"]
    else:
        path.write_text(json.dumps(BAD_NUMBER_FAMILIES[case]))
        argv = ["sum-as-two", "--family-file", str(path), "--horizon", "5"]
    code, report = _run(argv, capsys)
    assert code == 2
    assert report["error"]["type"] == "ValueError"
    for key in ("rate", "zzz"):  # the offending parameter is named
        if key in case:
            assert key in report["error"]["message"]


@pytest.mark.parametrize("alpha", ["nan,1,1", "inf,1,1"])
def test_non_finite_alpha_is_exit_2(alpha, tmp_path, capsys):
    code = main(["system", "--members", _members_file(tmp_path, 3), "--alpha", alpha])
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    error = json.loads(captured.out)["error"]
    assert error["type"] == "DimensionMismatch" and "alpha" in error["message"]


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
