"""The benchmark's workload requests, each with its independent plain-numpy
check, run through ``cli.main`` for seeds 1-3 (117 requests).

The generators and ``evaluate`` are imported from ``perfbench/`` as they are,
so a request fails here exactly when the benchmark would count it as failed:
a non-zero exit code, a failed check or differing bytes on a repeat.

The same run checks that each request factors every matrix once: a spy on
``numerics._lapack`` takes a sha1 of the shape, dtype and bytes of every array
handed to LAPACK, and no digest may repeat within one request.  The one allowed
repeat is ``reduce --mode system``'s stacked member bases, factored exactly twice
(for the sum span, and for an eps that must equal ``sum_gap``'s bit for bit).
"""

import collections
import hashlib
import pathlib
import sys

import numpy as np
import pytest

from sumspaces import cli, numerics

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))

from bench import call, evaluate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _digest(args) -> str:
    """sha1 of the shape, dtype and bytes of each array among ``args``."""
    h = hashlib.sha1()
    for a in args:
        if isinstance(a, np.ndarray):
            h.update(repr((a.shape, a.dtype.str)).encode())
            h.update(a.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_requests_pass_their_checks(workload, seed, tmp_path, monkeypatch):
    requests = WORKLOADS[workload].generate(np.random.default_rng(seed), str(tmp_path))
    lapack, digests = numerics._lapack, collections.Counter()

    def spy(routine, *args, **kwargs):
        digests[_digest(args)] += 1
        return lapack(routine, *args, **kwargs)

    monkeypatch.setattr(numerics, "_lapack", spy)
    outputs, repeats = [], []
    for i, request in enumerate(requests):
        digests.clear()
        outputs.append((i, *call(cli.main, request.argv)))
        counts = sorted(c for c in digests.values() if c > 1)
        allowed = [[], [2]] if request.argv[0] == "reduce" and "system" in request.argv else [[]]
        if counts not in allowed:
            repeats.append((request.key, request.argv[0], counts))
    assert len(outputs) == (15 if workload == "small_mix" else 8)  # 117 over 3 seeds
    assert evaluate(requests, outputs) == (0, [])
    assert repeats == []
