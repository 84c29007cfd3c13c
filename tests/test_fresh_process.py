"""The CLI as a user runs it: ``python -m sumspaces.cli`` in a new process,
where an uncaught exception would end in exit 1 and a traceback on stderr."""

import json
import os
import resource
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import sumspaces as ss
from sumspaces.cli import COMMANDS

from conftest import family_to_json

SRC = os.path.dirname(os.path.dirname(os.path.abspath(ss.__file__)))


def _cli(argv, cwd, preexec_fn=None):
    return subprocess.run([sys.executable, "-m", "sumspaces.cli", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": SRC}, preexec_fn=preexec_fn)


def _run_all(argvs, cwd):
    """Each argv in its own process, four at a time."""
    with ThreadPoolExecutor(4) as pool:
        return list(pool.map(lambda argv: _cli(argv, cwd), argvs))


def _strict(name):
    raise ValueError(f"{name} is not JSON")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A pair of lines in C^2, three coordinate lines of C^3, two 2 x 2 operators
    and two block families."""
    work = tmp_path_factory.mktemp("inputs")
    e = np.eye(3)
    files = {"a.json": ss.subspace_to_json(ss.from_spanning(np.array([[1.0], [0.0]]))),
             "b.json": ss.subspace_to_json(ss.from_spanning(np.array([[1.0], [1.0]]))),
             "members.json": ss.system_to_json(ss.SubspaceSystem(
                 3, [ss.from_spanning(e[:, [k]]) for k in range(3)])),
             "ops.json": family_to_json(ss.OperatorFamily(2, [np.eye(2), np.diag([1.0, 0.0])])),
             "one_over_k.json": {"family": "one_over_k", "n": 3},
             "compact_triple.json": {"family": "compact_triple"}}
    for name, data in files.items():
        (work / name).write_text(json.dumps(data))
    (work / "deep.json").write_text("[" * 100000 + "]" * 100000)
    (work / "latin1.json").write_bytes('{"ambient_dim": "é"}'.encode("latin-1"))
    return work


SMOKE = [["pair", "--a", "a.json", "--b", "b.json"],
         ["calculus", "--a", "a.json", "--b", "b.json", "--f1", "1", "--f2", "1"],
         ["system", "--members", "members.json", "--alpha", "1,0.5,2"],
         ["graph", "--members", "members.json", "--modulus", "--seed", "7"],
         ["reduce", "--members", "members.json", "--mode", "preserve-sum"],
         ["images", "--operators", "ops.json", "--analysis", "sum"],
         ["blocks", "--family-file", "one_over_k.json", "--horizon", "5"],
         ["sum-as-two", "--family-file", "compact_triple.json", "--horizon", "5"]]

BOUNDARY = {"out_in_missing_directory": ["pair", "--a", "a.json", "--b", "b.json",
                                         "--out", "missing/report.json"],
            "out_onto_a_directory": ["pair", "--a", "a.json", "--b", "b.json", "--out", "."],
            "not_utf8": ["pair", "--a", "latin1.json", "--b", "b.json"],
            "nested_past_the_recursion_limit": ["pair", "--a", "deep.json", "--b", "b.json"]}


def test_every_command_gives_strict_json_in_a_fresh_process(inputs):
    """Exit 0, nothing on stderr, and a report that parses as strict JSON:
    a non-finite number appears only as a margin's "inf" string."""
    assert [argv[0] for argv in SMOKE] == list(COMMANDS)
    for argv, res in zip(SMOKE, _run_all(SMOKE, inputs)):
        assert (res.returncode, res.stderr) == (0, ""), argv
        report = json.loads(res.stdout, parse_constant=_strict)
        assert report["request"]["command"] == argv[0]


def test_common_flags_before_or_after_the_command_give_one_report(inputs, tmp_path):
    """main() reads sys.argv: the common flags before the command (the two-stage
    parse) write the same bytes as the same flags after it (the command's parser)."""
    first, last = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    runs = _run_all([["--seed", "7", "--out", first, "graph", "--members", "members.json",
                      "--modulus"],
                     ["graph", "--members", "members.json", "--modulus", "--seed", "7",
                      "--out", last]], inputs)
    assert [(res.returncode, res.stdout, res.stderr) for res in runs] == [(0, "", "")] * 2
    report = (tmp_path / "r1.json").read_bytes()
    assert report == (tmp_path / "r2.json").read_bytes()
    assert json.loads(report)["provenance"]["seed"] == 7


@pytest.fixture(scope="module")
def boundary_runs(inputs):
    return dict(zip(BOUNDARY, _run_all(list(BOUNDARY.values()), inputs)))


@pytest.mark.parametrize("case, error_type", [
    ("out_in_missing_directory", "FileNotFoundError"),
    ("out_onto_a_directory", "IsADirectoryError"),
    ("not_utf8", "MalformedInput"),
    ("nested_past_the_recursion_limit", "MalformedInput")])
def test_boundary_failure_exits_3_with_one_json_error(case, error_type, boundary_runs):
    """An --out that cannot be written, a file that is not UTF-8 and JSON nested
    past the recursion limit: exit 3 with the JSON error, never a traceback."""
    res = boundary_runs[case]
    assert (res.returncode, res.stderr) == (3, "")
    assert json.loads(res.stdout)["error"]["type"] == error_type
    assert list(json.loads(res.stdout)) == ["error"]


def _two_gib_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def test_a_huge_family_fails_before_its_subset_is_listed(tmp_path):
    """one_over_k builds its n x n identity with the family, so n = 10^8 with the
    default --subset all is a MemoryError naming that shape; listing 10^8 subset
    indices first would take about 4 GB."""
    (tmp_path / "family.json").write_text(json.dumps({"family": "one_over_k", "n": 100000000}))
    res = _cli(["blocks", "--family-file", "family.json", "--horizon", "1"],
               tmp_path, preexec_fn=_two_gib_address_space)
    assert (res.returncode, res.stderr) == (2, "")
    error = json.loads(res.stdout)["error"]
    assert error["type"] == "MemoryError"
    assert "(100000000, 100000000)" in error["message"]
