"""Benchmark of splittrap's three routes: DVR sweep, dense Tonks observables, level sweep.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; splittrap is imported from its
``src``.  One run replays a fixed number of seeded sweeps, worked out
from ``--seconds`` and the workload's nominal cycle cost, in one worker
process that calls ``splittrap.cli.main`` in process with BLAS pinned to
one thread; only a far slower program is stopped early.  The
outputs of every sweep are checked against computations made apart from
the program (oracle.py).  Between sweeps, fresh interpreters time the
set-up: importing ``splittrap.cli`` and returning from the smallest valid
call of the workload's subcommand.

The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``attempted`` and
``failed`` count sweeps; a sweep fails when the CLI exits non-zero or a
point misses its check, and ``correct`` is false when a sweep that ran
to completion printed a wrong value.  With ``--trace 0`` the metrics are
the end-to-end ones; with ``--trace 1`` the worker wraps splittrap's
layers (tracer.py), the set-up samples run under ``-X importtime``, the
per-layer metrics are printed, and the spans are written to
``bench/out/trace-<workload>-s<seed>.npz``.  See README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from oracle import CHECKS
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# With two BLAS threads on the two shared cores of the reference machine,
# tonks-dense varied by about 45% between runs (README.md).
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Nominal costs on the reference machine (README.md), used only to turn
# --seconds into a sweep count; the cost of a cycle (one sweep and its
# check) is set per workload in workloads.py.  The count depends on
# nothing the program does, so a faster program is given the same inputs.
WORKER_START_S = 1.0
SETUP_SAMPLE_S = 1.0
SECONDS_PER_SETUP_SAMPLE = 10.0
# A safety stop: no sweep starts that would end after this, so that even
# a far slower program ends inside the 180 s a run may take.
DEADLINE_S = 140.0
SETUP_CODE = "import sys; from splittrap.cli import main; sys.exit(main(sys.argv[1:]))"
IMPORT_LAYERS = ("specfun", "single_particle", "dvr", "analysis", "tonks", "cli")


def pinned_env():
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = str(SRC)
    return env


def plan(seconds, cycle_s):
    """Sweep count and the sweeps to precede with a set-up sample."""
    samples = max(3, round(seconds / SECONDS_PER_SETUP_SAMPLE))
    budget = seconds - WORKER_START_S - samples * SETUP_SAMPLE_S
    sweeps = max(samples, int(budget / cycle_s))
    return sweeps, {k * sweeps // samples for k in range(samples)}


def setup_sample(workload, importtime):
    """Wall time of one fresh interpreter's set-up, and its import times."""
    flags = ["-X", "importtime"] if importtime else []
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *flags, "-c", SETUP_CODE, *workload.setup_argv],
        cwd=ROOT, env=pinned_env(), stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up call exited {proc.returncode}: {proc.stderr[-2000:]}")
    imports = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3:
            name = parts[2].strip()
            # The first line of a module is its own import; a later
            # top-level "splittrap.cli" line also holds the package's.
            if name.startswith("splittrap."):
                imports.setdefault(name.split(".", 1)[1], int(parts[1]) * 1e-6)
    return elapsed, imports


class Worker:
    """The measured process (worker.py), driven one JSON line at a time."""

    def __init__(self, trace):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), *(["--trace"] if trace else [])],
            cwd=ROOT, env=pinned_env(), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        # The worker answers once its imports are done, so that no set-up
        # sample shares the cores with them.
        self.reply()

    def reply(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def request(self, **message):
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()
        return self.reply()

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def run(workload, seed, seconds, trace):
    sweeps, sample_before = plan(seconds, workload.cycle_s)
    out_dir = OUT / f"{workload.name}-s{seed}-{os.getpid()}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    check = CHECKS[workload.name]
    began = time.perf_counter()
    setups, imports, walls, cpus = [], [], [], []
    attempted = failed = wrong = bytes_written = points = 0
    worker = Worker(trace)
    try:
        for index in range(sweeps):
            if walls and time.perf_counter() - began + walls[-1] > DEADLINE_S:
                print(f"safety stop: {index} of {sweeps} sweeps run", file=sys.stderr)
                break
            if index in sample_before:
                elapsed, modules = setup_sample(workload, trace)
                setups.append(elapsed)
                imports.append(modules)
            sweep = workload.sweep(seed, index, out_dir)
            for stale in out_dir.iterdir():
                stale.unlink()
            answer = worker.request(op="sweep", argv=list(sweep.argv))
            attempted += 1
            points = sweep.points
            walls.append(answer["wall_s"])
            cpus.append(answer["cpu_s"])
            bytes_written += sum(f.stat().st_size for f in out_dir.iterdir())
            if answer["rc"] != 0:
                failed += 1
                print(f"sweep {index}: CLI exited {answer['rc']}", file=sys.stderr)
                continue
            try:
                misses = check(sweep, sweep.out)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                misses = [f"unreadable output: {exc!r}"]
            if misses:
                failed += 1
                wrong += 1
                print(f"sweep {index}: {len(misses)} misses, first: {misses[:3]}", file=sys.stderr)
        trace_path = OUT / f"trace-{workload.name}-s{seed}.npz"
        final = worker.request(op="finish", trace=str(trace_path))
        worker.proc.wait(timeout=60)
    finally:
        worker.close()
        shutil.rmtree(out_dir, ignore_errors=True)

    points_per_s = points / statistics.median(walls)
    print(
        f"{workload.name}: {attempted} sweeps of {points} points, median "
        f"{statistics.median(walls):.4f} s, {len(setups)} set-up samples, "
        f"run {time.perf_counter() - began:.1f} s",
        file=sys.stderr,
    )
    print("sweep wall_s " + " ".join(f"{w:.3f}" for w in walls), file=sys.stderr)
    print("sweep cpu_s  " + " ".join(f"{c:.3f}" for c in cpus), file=sys.stderr)
    print("setup_s      " + " ".join(f"{s:.3f}" for s in setups), file=sys.stderr)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if trace:
        values = final["layers"]
        values["cli.bytes_written"] = bytes_written
        for layer in IMPORT_LAYERS:
            values[f"{layer}.import_s"] = statistics.median(m.get(layer, 0.0) for m in imports)
        _report_shares(values, sum(walls), points_per_s, trace_path)
        # A layer the workload never calls has no spans and reads 0.
        metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "points_per_s": points_per_s,
            "peak_rss_mb": final["peak_rss_mb"],
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    return {"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def _report_shares(layers, sweep_s, points_per_s, trace_path):
    print(f"traced points_per_s {points_per_s:.6g}; spans in {trace_path}", file=sys.stderr)
    for name, value in sorted(layers.items()):
        if name.endswith(".self_s") and value > 0.0:
            print(f"  {name:45s} {value:10.4f} s  {100.0 * value / sweep_s:5.1f}%", file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "splittrap" / "cli.py").is_file():
        sys.exit(f"no splittrap source at {SRC}: run from a source checkout")
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
