"""Entry point: python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a sumspaces checkout.  Starts the worker in a child
process whose environment pins BLAS to one thread and puts ``src`` on the
path; the calling environment is left alone.  Prints the worker's output
only when it succeeds, so a failed run never prints a result.
"""

import os
import signal
import subprocess
import sys

TIMEOUT_S = 170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "src", "sumspaces", "cli.py")):
        sys.stderr.write("perfbench: no sumspaces sources under src/ in this checkout\n")
        return 2
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.Popen([sys.executable, os.path.join(here, "bench.py"), *sys.argv[1:]],
                            cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and its import probes
        proc.communicate()
        sys.stderr.write(f"perfbench: worker exceeded {TIMEOUT_S} s\n")
        return 1
    sys.stderr.write(err)
    if proc.returncode != 0:
        sys.stderr.write(out)
        return proc.returncode
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
