"""Benchmark worker: one process, one client, closed loop over ``cli.main``.

Started by ``run.py`` with BLAS pinned to one thread and ``src`` on the
path; run from the root of a checkout.  Prints a few readable lines and, as
the last line, the JSON result.

The speed of a shared host drifts by up to 1.5x over tens of seconds, and
Python code and LAPACK slow down together, if not by the same amount.  So a
fixed reference kernel that does not touch sumspaces is timed between
requests, and the gated latency and throughput metrics are expressed in
units of its nearby run time ("ref").  The raw wall-clock figures are
printed beside them.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

from tracing import LAPACK, LAYERS, Tracer
from workloads import WORKLOADS

SETUP_REPEATS = 7    # fresh-interpreter imports, spread evenly over the run
REF_EVERY_S = 0.3    # calibrate after a request once this much time has passed
REF_REPEATS = 3      # reference kernels per calibration; their median is kept
REF_WINDOW_S = 1.0   # a request is measured against calibrations this close to it
IMPORT_CMD = "import sumspaces.cli"
RESULTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")

# Per-layer metric names, as listed in BENCHMARK.json.
SPAN_METRICS = (
    ["cli.main", "cli.decode"]
    + [f"subspaces.{f}" for f in ("from_spanning", "complement", "intersect", "sum_span",
                                  "Subspace.projector")]
    + [f"pairs.{f}" for f in ("halmos_decompose", "pair_criteria", "friedrichs_angle",
                              "independent_pair_constants")]
    + [f"numerics.{f}" for f in ("eig_hermitian", "svd", "operator_norm",
                                 "smallest_nonzero_singular_value", "matrix_function",
                                 "pinv")]
    + [f"paircalc.{f}" for f in ("calculus_criteria", "spectrum_of_b", "build_b")]
    + [f"reduction.{f}" for f in ("reduce_system", "reduce_preserving_sum", "reduce_pair",
                                  "independence_certificate")]
    + [f"images.{f}" for f in ("douglas_factor", "sum_of_images", "p_radius",
                               "m_membership_identity")]
    + [f"systems.{f}" for f in ("sum_gap", "dilation", "complement_graph_margin",
                                "linear_combination_check")]
    + [f"blockmodel.{f}" for f in ("certify", "sum_as_two", "BlockSystem.block",
                                   "paper_families")]
)


def machine_block(seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        openblas = "unknown"
    return {"cores": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": openblas,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"), "seed": seed}


def setup_time():
    """Seconds from spawning a fresh interpreter until it has imported
    sumspaces.cli, read on the shared monotonic clock."""
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", f"{IMPORT_CMD}; import time; "
                          "print(repr(time.perf_counter()))"],
                         check=True, capture_output=True, text=True).stdout
    return float(out) - start


class Reference:
    """A fixed kernel that never calls sumspaces, so a change to the program
    cannot change its time; only the host's speed can.  Two kinds, because
    Python-bound code and large LAPACK calls slow down with the host by
    different amounts:

    - small: eight 16 x 16 complex Hermitian eigh calls, each with a JSON
      decode, then one 64 x 64 complex SVD (about 4-6 ms on a 2-core test
      box);
    - dense: a 96 x 96 complex Hermitian eigh, SVDs of a 96 x 48 and a
      256 x 128 complex matrix and a 256 x 256 complex product (about
      15-25 ms).
    """

    def __init__(self, dense):
        rng = np.random.default_rng(0)

        def gaussian(m, n):
            return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))

        self.dense = dense
        h = gaussian(16, 16)
        self.tiny = h + h.conj().T
        self.doc = json.dumps(np.stack([h.real, h.imag], axis=-1).tolist())
        self.square = gaussian(64, 64)
        h = gaussian(96, 96)
        self.small = h + h.conj().T
        self.tall = gaussian(96, 48)
        self.wide = gaussian(256, 128)
        h = gaussian(256, 256)
        self.large = h + h.conj().T

    def once(self):
        """Seconds for one run of the kernel."""
        start = time.perf_counter()
        if self.dense:
            np.linalg.eigh(self.small)
            np.linalg.svd(self.tall)
            np.linalg.svd(self.wide, full_matrices=False)
            self.large @ self.large
        else:
            for _ in range(8):
                np.linalg.eigh(self.tiny)
                json.loads(self.doc)
            np.linalg.svd(self.square)
        return time.perf_counter() - start

    def calibrate(self):
        """Median seconds of REF_REPEATS runs of the kernel."""
        return statistics.median(self.once() for _ in range(REF_REPEATS))


def import_breakdown():
    """numpy and scipy: cumulative import time of their outermost modules;
    sumspaces: self time of the package's own modules (-X importtime, ms)."""
    err = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT_CMD],
                         check=True, capture_output=True, text=True).stderr
    rows = []
    for line in err.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        own, cumulative, field = line[len("import time:"):].split("|", 2)
        if not own.strip().isdigit():
            continue  # header
        name = field.strip()
        rows.append(((len(field) - len(field.lstrip())) // 2, name,
                     int(own) / 1e3, int(cumulative) / 1e3))
    out = {}
    for pkg in ("numpy", "scipy"):
        total, stack = 0.0, []
        for depth, name, _, cumulative in reversed(rows):  # parents first
            while stack and stack[-1][0] >= depth:
                stack.pop()
            inside = bool(stack) and stack[-1][1]
            match = name == pkg or name.startswith(pkg + ".")
            if match and not inside:
                total += cumulative
            stack.append((depth, inside or match))
        out[f"import.{pkg}_ms"] = total
    out["import.sumspaces_ms"] = sum(own for _, name, own, _ in rows
                                     if name == "sumspaces" or name.startswith("sumspaces."))
    return out


def call(main, argv):
    """Run cli.main(argv) once with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # an uncaught exception fails the request, not the run
            code = 1
    return code, out.getvalue()


class Loop:
    """Closed loop over the distinct requests, recording latency and output.

    With a ``reference``, the reference kernel is timed before the first
    request and after any request that ends REF_EVERY_S or more after the
    last calibration; ``calibrations`` holds (time, seconds) pairs.
    """

    def __init__(self, cli, requests, tracer=None, reference=None):
        self.cli, self.requests, self.tracer = cli, requests, tracer
        self.reference = reference
        self.latencies, self.starts = [], []
        self.outputs = []   # (request index, code, text)
        self.calibrations = []
        if reference is not None:
            self._calibrate()

    def _calibrate(self):
        at = time.perf_counter()
        self.calibrations.append((at, self.reference.calibrate()))

    def step(self, i):
        """Run request i, cycling over the distinct requests; return its end time."""
        idx = i % len(self.requests)
        if self.tracer is not None:
            self.tracer.request = len(self.outputs)
        t0 = time.perf_counter()
        code, text = call(self.cli.main, self.requests[idx].argv)
        t1 = time.perf_counter()
        self.latencies.append(t1 - t0)
        self.starts.append(t0)
        self.outputs.append((idx, code, text))
        if self.reference is not None and t1 - self.calibrations[-1][0] >= REF_EVERY_S:
            self._calibrate()
        return t1

    def relative(self):
        """Each latency divided by the median calibration within REF_WINDOW_S
        of the request (the closest calibration if none is that close)."""
        times = [at for at, _ in self.calibrations]
        out = []
        for t0, lat in zip(self.starts, self.latencies):
            lo = bisect.bisect_left(times, t0 - REF_WINDOW_S)
            hi = bisect.bisect_right(times, t0 + lat + REF_WINDOW_S)
            if lo == hi:
                nearest = min(range(len(times)), key=lambda k: abs(times[k] - t0))
                lo, hi = nearest, nearest + 1
            out.append(lat / statistics.median(s for _, s in self.calibrations[lo:hi]))
        return out

    def run(self, count):
        """Run ``count`` requests."""
        for i in range(count):
            self.step(i)


def evaluate(requests, outputs):
    """Count failed requests: bad exit code, failed check, or bytes differing
    from the first reply to the same request.  Checks run once per distinct
    request, after timing."""
    first, verdicts, problems = {}, {}, []
    failed = 0
    for idx, code, text in outputs:
        req = requests[idx]
        if idx not in verdicts:
            first[idx] = text
            if code != 0:
                found = [f"exit code {code}"]
            else:
                try:
                    found = req.check(json.loads(text))
                except (ValueError, KeyError, TypeError, IndexError) as exc:
                    found = [f"report not checkable: {exc!r}"]
            verdicts[idx] = not found
            problems += [f"{req.key} ({req.argv[0]}): {p}" for p in found]
        ok = verdicts[idx]
        if text != first[idx]:
            ok = False
            problems.append(f"{req.key}: output bytes differ on a repeated request")
        failed += not ok
    return failed, problems


def tail(latencies, percentile):
    """Nearest-rank percentile, with the number of samples beyond it."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def timed_run(args, wl, cli, requests):
    """Closed loop for args.seconds of loop time.  The set-up probes are
    spread evenly over it; they pause the loop and their time is not counted."""
    loop = Loop(cli, requests, reference=Reference(wl.dense_reference))
    setup = []
    paused = 0.0
    start = time.perf_counter()
    i = 0
    while True:
        if (len(setup) < SETUP_REPEATS and time.perf_counter() - start - paused
                >= len(setup) * args.seconds / SETUP_REPEATS):
            t0 = time.perf_counter()
            setup.append(setup_time())
            paused += time.perf_counter() - t0
        end = loop.step(i)
        i += 1
        if end - start - paused >= args.seconds:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, problems = evaluate(requests, loop.outputs)
    n = len(loop.latencies)
    rel = loop.relative()
    tail_ref, beyond = tail(rel, wl.tail_percentile)
    tail_s, _ = tail(loop.latencies, wl.tail_percentile)
    ref_s = statistics.median(s for _, s in loop.calibrations)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "throughput_per_ref": (n / sum(rel), "req/ref"),
        "latency_p50_ref": (statistics.median(rel), "ref"),
        "latency_tail_ref": (tail_ref, "ref"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    notes = [f"the latency_tail metrics are p{wl.tail_percentile:g} of {n} requests, "
             f"{beyond} samples beyond it",
             f"1 ref = the reference kernel's time next to each request; median "
             f"{ref_s * 1e3:.4g} ms over {len(loop.calibrations)} calibrations",
             f"wall clock: throughput_rps {n / sum(loop.latencies):.6g} req/s, "
             f"latency_p50_ms {statistics.median(loop.latencies) * 1e3:.6g} ms, "
             f"latency_tail_ms {tail_s * 1e3:.6g} ms",
             f"error_rate = {failed}/{n} = {failed / n:.4g} (ratio)",
             f"setup_s samples: {', '.join(f'{t:.4f}' for t in setup)}"]
    raw = {"setup_s": setup, "start_s": [t - loop.starts[0] for t in loop.starts],
           "latency_s": loop.latencies, "relative": rel,
           "calibration": [(at - loop.starts[0], s) for at, s in loop.calibrations],
           "request": [idx for idx, _, _ in loop.outputs]}
    return n, failed, problems, metrics, notes, raw


def traced_run(args, wl, cli, requests):
    imports = import_breakdown()
    # Untraced and traced calls of each request alternate, so that drift in
    # machine speed affects both sides of the overhead alike.
    tracer = Tracer()
    plain, traced = Loop(cli, requests), Loop(cli, requests, tracer)
    for i in range(wl.trace_requests):
        plain.step(i)
        tracer.install()
        try:
            traced.step(i)
        finally:
            tracer.uninstall()
    failed, problems = evaluate(requests, plain.outputs + traced.outputs)

    calls, self_ms = tracer.summary()
    metrics = {k: (v, "ms") for k, v in imports.items()}
    for name in SPAN_METRICS:
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_ms"] = (self_ms[name], "ms")
    lapack_ms = 0.0
    for op in LAPACK:
        label = f"lapack.{op}"
        metrics[f"{label}.calls"] = (calls[label], "count")
        metrics[f"{label}.ms"] = (self_ms[label], "ms")
        metrics[f"{label}.cubic_work"] = (tracer.work[label], "count")
        lapack_ms += self_ms[label]
    metrics["lapack.total.ms"] = (lapack_ms, "ms")
    share = self_ms["lapack.norm2"] / lapack_ms if lapack_ms else 0.0
    metrics["lapack.norm2.ms_share"] = (share, "ratio")
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = (tracer.errors[layer], "count")

    spans_path = os.path.join(RESULTS, f"spans-{wl.name}-seed{args.seed}.jsonl.gz")
    tracer.write(spans_path)
    n = len(plain.outputs) + len(traced.outputs)
    rps_plain = len(plain.latencies) / sum(plain.latencies)
    rps_traced = len(traced.latencies) / sum(traced.latencies)
    notes = [f"tracing overhead: {rps_plain / rps_traced - 1:+.1%} latency (untraced "
             f"{rps_plain:.4g} req/s, traced {rps_traced:.4g} req/s, "
             f"{wl.trace_requests} requests each, alternating)",
             f"lapack.norm2.ms_share = {self_ms['lapack.norm2']:.4g} ms of "
             f"{lapack_ms:.4g} ms LAPACK time",
             "cubic_work is computed from call shapes: sum of m*n*min(m,n)",
             f"error_rate = {failed}/{n} = {failed / n:.4g} (ratio)",
             f"{len(tracer.spans)} spans written to {os.path.relpath(spans_path)}"]
    return n, failed, problems, metrics, notes, {}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    wl = WORKLOADS[args.workload]

    import sumspaces.cli

    machine = machine_block(args.seed)
    workdir = os.path.join(RESULTS, f"inputs-{wl.name}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)  # also creates RESULTS, which outlives the inputs
    try:
        requests = wl.generate(np.random.default_rng(args.seed), os.path.relpath(workdir))
        run = traced_run if args.trace else timed_run
        n, failed, problems, metrics, notes, raw = run(args, wl, sumspaces.cli, requests)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {wl.name}, seed {args.seed}, trace {args.trace}")
    print("machine " + json.dumps(machine, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:>16.6g} {unit}")
    for note in notes:
        print("  " + note)
    for p in problems[:20]:
        print("  FAILED " + p)
    result = {"correct": failed == 0, "attempted": n, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(os.path.join(RESULTS, f"{wl.name}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"machine": machine, "notes": notes, "problems": problems, **result,
                   "raw": raw},
                  fh, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
