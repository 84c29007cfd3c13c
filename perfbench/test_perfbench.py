"""Tests of the benchmark itself: python -m pytest perfbench -q"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import scipy.linalg  # noqa: E402
import sumspaces.cli as cli  # noqa: E402

from bench import Loop, evaluate  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, pair_request, sum_images_request  # noqa: E402


def _requests(tmp_path, seed=5, workload="small_mix"):
    workdir = tmp_path / f"{workload}-{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload].generate(np.random.default_rng(seed), str(workdir))


def _traced(requests, count):
    tracer = Tracer()
    loop = Loop(cli, requests, tracer)
    tracer.install()
    try:
        loop.run(count=count)
        patched = tracer.patched
    finally:
        tracer.uninstall()
    return tracer, loop, patched


def test_same_seed_gives_same_inputs(tmp_path):
    a, b = _requests(tmp_path / "a"), _requests(tmp_path / "b")
    for ra, rb in zip(a, b):
        files = [x for x in ra.argv if x.endswith(".json")]
        assert files and [os.path.basename(x) for x in files] == \
            [os.path.basename(x) for x in rb.argv if x.endswith(".json")]
        for fa in files:
            fb = fa.replace(str(tmp_path / "a"), str(tmp_path / "b"))
            assert open(fa).read() == open(fb).read()


def test_two_traced_runs_give_identical_counts(tmp_path):
    requests = _requests(tmp_path)
    runs = []
    for _ in range(2):
        tracer, _, _ = _traced(requests, len(requests))
        calls, _ = tracer.summary()
        runs.append((dict(calls), dict(tracer.work)))
    assert runs[0] == runs[1]
    assert runs[0][0]["cli.main"] == len(requests)
    assert runs[0][1]["lapack.svd"] > 0


def test_traced_output_matches_untraced_and_passes_checks(tmp_path):
    requests = _requests(tmp_path)
    plain = Loop(cli, requests)
    plain.run(count=len(requests))
    _, traced, _ = _traced(requests, len(requests))
    assert [o[2] for o in plain.outputs] == [o[2] for o in traced.outputs]
    assert evaluate(requests, plain.outputs + traced.outputs) == (0, [])


def test_uninstall_restores_every_original(tmp_path):
    originals = {"svd": np.linalg.svd, "norm": np.linalg.norm,
                 "scipy_eigh": scipy.linalg.eigh,
                 "complement": sys.modules["sumspaces.pairs"].complement}
    _, _, patched = _traced(_requests(tmp_path)[:1], 1)
    owners = {(owner, attr) for owner, attr, _ in patched}
    # the copies made by "from .subspaces import complement" are rebound too
    for mod in ("subspaces", "pairs", "systems"):
        assert (sys.modules[f"sumspaces.{mod}"], "complement") in owners
    for owner, attr, original in patched:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original, (owner, attr)
    assert np.linalg.svd is originals["svd"] and np.linalg.norm is originals["norm"]
    assert scipy.linalg.eigh is originals["scipy_eigh"]
    assert sys.modules["sumspaces.pairs"].complement is originals["complement"]


def test_flipped_verdict_is_a_failure(tmp_path):
    req = pair_request("p", np.random.default_rng(0), str(tmp_path), 12, 4, 5)
    loop = Loop(cli, [req])
    loop.run(count=2)
    assert evaluate([req], loop.outputs) == (0, [])
    report = json.loads(loop.outputs[0][2])
    entry = report["margins"]["pair_criteria"]["entries"][0]
    assert entry["verdict"] == "satisfied"
    entry["verdict"] = "violated"
    flipped = json.dumps(report, sort_keys=True, indent=2) + "\n"
    failed, problems = evaluate([req], [(0, 0, flipped)])
    assert failed == 1 and any("verdict" in p for p in problems)


def test_repeated_request_with_other_bytes_is_a_failure(tmp_path):
    req = pair_request("p", np.random.default_rng(0), str(tmp_path), 12, 4, 5)
    loop = Loop(cli, [req])
    loop.run(count=1)
    text = loop.outputs[0][2]
    failed, _ = evaluate([req], [(0, 0, text), (0, 0, text.replace("\n", " \n", 1))])
    assert failed == 1


def test_relative_latency_uses_nearby_calibrations():
    loop = Loop(cli, [])
    loop.starts, loop.latencies = [0.0, 10.0], [0.5, 0.2]
    loop.calibrations = [(-0.1, 0.01), (0.6, 0.03), (0.7, 0.02), (5.0, 1.0)]
    # the first request sees the three calibrations within 1 s of it; the
    # second has none that close and falls back to the nearest one
    assert loop.relative() == pytest.approx([25.0, 0.2])


@pytest.mark.xfail(strict=True, reason="known defect: sum_of_images reports a full "
                   "image for rank-deficient families (square-root rank cutoff)")
def test_sum_of_images_rank_deficient_family(tmp_path):
    req = sum_images_request("s", np.random.default_rng(1), str(tmp_path), 10, (2, 3, 3))
    loop = Loop(cli, [req])
    loop.run(count=1)
    assert evaluate([req], loop.outputs) == (0, [])


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "small_mix",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and proc.stdout == ""
