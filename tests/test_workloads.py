"""The benchmark's workload requests, each with its independent plain-numpy
check, run through ``cli.main`` for seeds 1-3 (117 requests).

The generators and ``evaluate`` are imported from ``perfbench/`` as they are,
so a request fails here exactly when the benchmark would count it as failed:
a non-zero exit code, a failed check or differing bytes on a repeat.  No
request may write to stderr; a warning counts as the line it would print.

The same run checks that each request factors every matrix once: a spy on
``numerics._lapack`` takes a sha1 of the shape, dtype and bytes of every array
handed to LAPACK, and no digest may repeat within one request.  The one allowed
repeat is ``reduce --mode system``'s stacked member bases, factored exactly twice
(for the sum span, and for an eps that must equal ``sum_gap``'s bit for bit).

The spy also records each call as its routine and input shape, counted per
request, and the run compares them with the committed ledger
``factorization_ledger.json``.  Shapes follow from ranks, not from the bits of
the BLAS build.  A graph request records the shapes of its ``eigh`` calls
without their counts, since the modulus descent's iteration count moves with
rounding.  After a change to the factorizations, regenerate the ledger with

    PYTHONPATH=src python tests/test_workloads.py --write-ledger

and cite its diff.
"""

import collections
import contextlib
import hashlib
import json
import pathlib
import sys
import tempfile

import numpy as np
import pytest

from sumspaces import cli, numerics

from conftest import captured_stderr

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))

from bench import call, evaluate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

LEDGER = pathlib.Path(__file__).with_name("factorization_ledger.json")
SEEDS = (1, 2, 3)


def _digest(args) -> str:
    """sha1 of the shape, dtype and bytes of each array among ``args``."""
    h = hashlib.sha1()
    for a in args:
        if isinstance(a, np.ndarray):
            h.update(repr((a.shape, a.dtype.str)).encode())
            h.update(a.tobytes())
    return h.hexdigest()


def _label(routine, args, kwargs) -> str:
    """The routine (an SVD as svd, svd_thin or svdvals) and its input's shape."""
    name = routine.__name__
    if name == "svd":
        options = dict(zip(("full_matrices", "compute_uv"), args[1:]), **kwargs)
        if not options.get("compute_uv", True):
            name = "svdvals"
        elif not options.get("full_matrices", True):
            name = "svd_thin"
    return f"{name} {'x'.join(map(str, np.shape(args[0])))}"


@contextlib.contextmanager
def _spy():
    """Route ``numerics._lapack`` through a spy; yields the (digests, labels)
    Counters it fills."""
    lapack, digests, labels = numerics._lapack, collections.Counter(), collections.Counter()

    def spy(routine, *args, **kwargs):
        digests[_digest(args)] += 1
        labels[_label(routine, args, kwargs)] += 1
        return lapack(routine, *args, **kwargs)

    numerics._lapack = spy
    try:
        yield digests, labels
    finally:
        numerics._lapack = lapack


def _main_to(stderr: list):
    """cli.main, appending to ``stderr`` what the request wrote there, warnings included."""
    def main(argv):
        with captured_stderr(stderr):
            return cli.main(argv)
    return main


def run_workload(workload, seed, workdir):
    """Run every request of the workload once.  Returns the requests, their
    (index, code, stdout) outputs, the requests whose stderr was not empty, the
    requests with a repeated LAPACK input, and the ledger entries."""
    requests = WORKLOADS[workload].generate(np.random.default_rng(seed), workdir)
    outputs, noisy, repeats, ledger, stderr = [], [], [], {}, []
    with _spy() as (digests, labels):
        for i, request in enumerate(requests):
            digests.clear()
            labels.clear()
            outputs.append((i, *call(_main_to(stderr), request.argv)))
            if stderr[-1]:
                noisy.append((request.key, stderr[-1]))
            counts = sorted(c for c in digests.values() if c > 1)
            allowed = [[], [2]] if request.argv[0] == "reduce" and "system" in request.argv \
                else [[]]
            if counts not in allowed:
                repeats.append((request.key, request.argv[0], counts))
            ledger[f"{workload}/{seed}/{request.key}"] = {
                label: None if request.argv[0] == "graph" and label.startswith("eigh ")
                else count for label, count in sorted(labels.items())}
    return requests, outputs, noisy, repeats, ledger


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_requests_pass_their_checks(workload, seed, tmp_path):
    requests, outputs, noisy, repeats, ledger = run_workload(workload, seed, str(tmp_path))
    assert len(outputs) == (15 if workload == "small_mix" else 8)  # 117 over 3 seeds
    assert evaluate(requests, outputs) == (0, [])
    assert noisy == []
    assert repeats == []
    committed = json.loads(LEDGER.read_text())
    assert ledger == {key: committed.get(key) for key in ledger}


def write_ledger() -> None:
    """Run the 117 requests and write their calls to the committed ledger."""
    ledger = {}
    for workload in sorted(WORKLOADS):
        for seed in SEEDS:
            with tempfile.TemporaryDirectory() as workdir:
                ledger.update(run_workload(workload, seed, workdir)[4])
    LEDGER.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(ledger)} requests to {LEDGER}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-ledger"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_workloads.py --write-ledger")
    write_ledger()
