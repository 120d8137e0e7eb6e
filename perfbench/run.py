"""Benchmark harness for maflow: one workload, one seed, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src.  With
``--trace 0`` the run reports the end-to-end metrics (tracing off); with
``--trace 1`` it alternates untraced and traced ops and reports the
per-layer metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
repeat every metric by name and unit, with the machine and environment.
Full records and the trace spans go to ``.perfbench_out/``.

Exit code 2 means the benchmark could not start (no ./src/maflow, bad
arguments); no result is printed then.
"""

import os
import sys

# the plain baseline is single-threaded; these must be set before numpy loads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
MIN_SAMPLES = 5      # op_s is a median of at least this many ops

END_TO_END_UNITS = {"setup_s": "s", "op_s": "s", "err_ref": "1", "peak_rss_mb": "MB"}
# traced setup: the layers that move setup_s
SETUP_LAYER_KEYS = ("fft.calls", "fft.s", "flow.run.s", "flow.steps",
                    "functionals.series_row.calls", "functionals.series_row.s",
                    "initial.approximation_sequence.s")


def _die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Import maflow from ./src of the checkout, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "maflow", "__init__.py")):
        _die("no ./src/maflow here; run from the root of a maflow checkout")
    sys.path.insert(0, SRC)
    import maflow
    if not os.path.abspath(maflow.__file__).startswith(SRC + os.sep):
        _die(f"maflow was imported from {maflow.__file__}, not from ./src")


def environment():
    import scipy
    import scipy.fft
    cpu = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu or platform.processor(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "fft_workers": scipy.fft.get_workers(),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def tail(samples):
    """(value, percentile): the highest percentile with 10 samples beyond it.

    With fewer than 21 samples this is at or below the median, so it is
    reported next to its percentile and sample count and carries no bound.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return None, None
    return xs[n - 11], 100.0 * (n - 10) / n


class Harness:
    """Runs set-ups and ops, times them, applies the gate, counts failures.

    Every timed call is followed by the workload's calibration kernel; the
    call's wall time divided by the machine's speed factor (mean of the
    calibrations just before and after it, over the kernel's reference
    time) gives its ``scaled`` seconds, which the end-to-end metrics use.
    """

    def __init__(self, workload, errors):
        self.wl = workload
        self.errors = errors            # exceptions that count as a failed op
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.first = None               # output of the first good op
        self.speeds = []                # machine slowdown factor around each timed call
        self._cal_last = None

    def _scaled(self, wall, calibration):
        after = calibration()
        before = after if self._cal_last is None else self._cal_last
        self._cal_last = after
        speed = 0.5 * (before + after) / calibration.ref_s
        self.speeds.append(speed)
        return wall / speed

    def setups(self, min_reps=3, max_reps=15, budget_s=0.5):
        """Scaled and wall times of repeated set-ups (the first pays for cold caches)."""
        scaled, walls = [], []
        cal = self.wl.calibration
        self._cal_last = cal()
        start = time.perf_counter()
        while len(walls) < min_reps or (len(walls) < max_reps
                                        and time.perf_counter() - start < budget_s):
            t0 = time.perf_counter()
            self.wl.setup()
            walls.append(time.perf_counter() - t0)
            scaled.append(self._scaled(walls[-1], cal))
        self._cal_last = None
        return scaled, walls

    def run_op(self, tracer=None):
        """One op; returns (scaled_s, wall_s, cpu_s), or None when it failed."""
        self.attempted += 1
        sink = io.StringIO()
        try:
            if tracer is not None:
                tracer.install()
            try:
                with contextlib.redirect_stdout(sink):
                    w0, c0 = time.perf_counter(), time.process_time()
                    out = self.wl.op()
                    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
            finally:
                if tracer is not None:
                    tracer.uninstall()
            scaled = self._scaled(wall, self.wl.calibration)
            self.wl.check(out, self.first)
        except self.errors as e:
            self.failed += 1
            self.failures.append(f"{type(e).__name__}: {e}")
            return None
        if self.first is None:
            self.first = out
        return scaled, wall, cpu

    def verdicts_failed(self):
        if self.first is None:
            return 0
        return sum(1 for r in self.first["reports"]
                   if r.status == "fail" and not r.advisory)


def timed_loop(seconds, step, min_samples):
    """Call step(i) until ``seconds`` have passed and min_samples steps succeeded."""
    done, i = 0, 0
    start = time.perf_counter()
    while done < min_samples or time.perf_counter() - start < seconds:
        if time.perf_counter() - start > 4 * seconds:
            break
        done += step(i) is not None
        i += 1


def measure_end_to_end(h, seconds):
    setup_scaled, setup_walls = h.setups()
    h.run_op()                                  # warm-up, also the reference output
    samples = []

    def step(i):
        r = h.run_op()
        if r is not None:
            samples.append(r)
        return r
    timed_loop(seconds, step, MIN_SAMPLES)
    scaled = [r[0] for r in samples]
    # a run whose ops failed reports 0 where it has nothing; it is not correct anyway
    metrics = {"setup_s": statistics.median(setup_scaled),
               "op_s": statistics.median(scaled) if scaled else 0.0, "err_ref": 0.0}
    info = {"setup_scaled": setup_scaled, "setup_wall": setup_walls,
            "op_scaled": scaled, "op_wall": [r[1] for r in samples],
            "speed_factor": statistics.median(h.speeds)}
    if h.first is not None:
        approx, ref = h.wl.reference(h.first)
        diff = approx - ref
        # grid RMS: the sup norm of a round-off-level error swings 10-20% from seed to seed
        metrics["err_ref"] = float(np.sqrt(np.mean(diff * diff)))
        info["err_ref_sup"] = float(np.abs(diff).max())
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    info["verdicts_failed"] = h.verdicts_failed()
    if hasattr(h.wl, "known_defect"):
        info["known_defect"] = h.wl.known_defect()
    return metrics, info


def summary_line(info):
    """The run's figures besides the metrics, for the ``# info`` line."""
    n = len(info["op_scaled"])
    op_s_tail, pct = tail(info["op_scaled"])
    out = {"op_samples": n, "op_s_tail": op_s_tail, "tail_percentile": pct,
           "speed_factor": info["speed_factor"],
           "op_wall_s": statistics.median(info["op_wall"]) if n else None,
           "setup_wall_s": statistics.median(info["setup_wall"]),
           "verdicts_failed": info["verdicts_failed"],
           "err_ref_sup": info.get("err_ref_sup")}
    if "known_defect" in info:
        out["known_defect"] = info["known_defect"]
    return out


def measure_layers(h, seconds, tracer):
    h.setups(min_reps=1, max_reps=1)            # warm caches; the traced set-up follows
    tracer.reset()
    tracer.op = "setup"
    tracer.install()
    try:
        h.wl.setup()
    finally:
        tracer.uninstall()
    setup_metrics = tracer.metrics()
    h.run_op()                                  # untraced warm-up and reference output
    plain, traced, per_op = [], [], []

    def step(i):
        if i % 2 == 0:
            r = h.run_op()
            if r is not None:
                plain.append(r)
            return None   # only traced ops count towards min_samples
        tracer.reset()
        tracer.op = i
        r = h.run_op(tracer)
        if r is not None:
            traced.append(r)
            per_op.append(tracer.metrics())
        return r
    timed_loop(seconds, step, 2)
    # counts are ints and repeat from op to op; median_low keeps them whole
    metrics = {k: (statistics.median_low if isinstance(v, int) else statistics.median)(
        [m[k] for m in per_op]) for k, v in per_op[0].items()} if per_op else {}
    counts_repeat = all(m[k] == v for m in per_op for k, v in per_op[0].items()
                        if isinstance(v, int))
    for k in SETUP_LAYER_KEYS:
        metrics[f"setup.{k}"] = setup_metrics[k]
    metrics["proc.cpu_s"] = statistics.median(r[2] for r in plain) if plain else 0.0
    # scaled seconds, so that a change of machine speed between the halves cancels
    metrics["trace.overhead_s"] = (statistics.median(r[0] for r in traced)
                                   - statistics.median(r[0] for r in plain)
                                   if plain and traced else 0.0)
    metrics["verdicts_failed"] = h.verdicts_failed()
    info = {"traced_ops": len(traced), "untraced_ops": len(plain),
            "counts_repeat": counts_repeat, "speed_factor": statistics.median(h.speeds),
            "per_op": per_op}
    return metrics, info


def unit_of(name):
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("bytes") or name.startswith("io.bytes"):
        return "B"
    if name.endswith(".s") or name.endswith("_s") or name == "flow.dt_min":
        return "s"
    if name == "flow.rhs_per_step":
        return "1"
    return "count"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    load_program()
    from maflow.errors import MaflowError
    from workloads import WORKLOADS, GateFailure
    if args.workload not in WORKLOADS:
        _die(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")

    env = environment()
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        h = Harness(wl, (MaflowError, GateFailure))
        if args.trace:
            from tracer import Tracer
            tracer = Tracer(boundaries=wl.boundaries)
            metrics, info = measure_layers(h, args.seconds, tracer)
            tracer.write_spans(os.path.join(OUT, f"{args.workload}-seed{args.seed}.spans.jsonl"))
        else:
            metrics, info = measure_end_to_end(h, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = h.failed == 0 and h.attempted > 0
    result = {"correct": correct, "attempted": h.attempted, "failed": h.failed,
              "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=env, info=info, failures=h.failures)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# environment " + json.dumps(env, sort_keys=True))
    if not args.trace:
        # op_s_tail: the op time with 10 samples beyond it, at tail_percentile;
        # speed_factor: the machine's median slowdown (1 = reference speed);
        # op_wall_s / setup_wall_s: unscaled medians
        print("# info " + json.dumps(summary_line(info)))
    else:
        print(f"# traced ops {info['traced_ops']}, untraced ops {info['untraced_ops']}, "
              f"counts repeat exactly: {info['counts_repeat']}")
    for k, v in metrics.items():
        print(f"# {k} {v} {unit_of(k)}")
    for f in h.failures:
        print(f"# failed op: {f}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
