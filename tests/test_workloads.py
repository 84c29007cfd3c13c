"""The benchmark's workload requests, each with its independent plain-numpy
check, run through ``cli.main`` for seeds 1-3 (117 requests).

The generators and ``evaluate`` are imported from ``perfbench/`` as they are,
so a request fails here exactly when the benchmark would count it as failed:
a non-zero exit code, a failed check or differing bytes on a repeat.
"""

import pathlib
import sys

import numpy as np
import pytest

from sumspaces import cli

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))

from bench import call, evaluate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_requests_pass_their_checks(workload, seed, tmp_path):
    requests = WORKLOADS[workload].generate(np.random.default_rng(seed), str(tmp_path))
    outputs = [(i, *call(cli.main, request.argv)) for i, request in enumerate(requests)]
    assert len(outputs) == (15 if workload == "small_mix" else 8)  # 117 over 3 seeds
    assert evaluate(requests, outputs) == (0, [])
