"""Run the benchmark over workloads and seeds, one process per run, and summarise.

    python3 perfbench/collect.py [--seeds 1-10] [--trace 0|1] [--out FILE]

Run from the repository root.  Every workload of BENCHMARK.json runs for its
``run_seconds``, once per seed (default 1 to 10, tracing off).  For each
workload and metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and their spread as a share of the
median, next to the metric's bound, and writes every run's result (with its
``# info`` figures) and the summary to ``--out`` (JSON).  The label of a
result set is the name of that file: ``BENCH_<label>.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()

    def tagged(tag):
        return next((json.loads(ln[len(tag):]) for ln in lines if ln.startswith(tag)), None)
    return json.loads(lines[-1]), tagged("# environment "), tagged("# info ")


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None):
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=os.path.join(".perfbench_out", "BENCH_collect.json"))
    args = p.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    label = os.path.splitext(os.path.basename(args.out))[0].removeprefix("BENCH_")

    seeds = parse_seeds(args.seeds)
    runs, summary, env, units = [], {}, {}, {}
    for wl in (w["name"] for w in bench["workloads"]):
        per_metric = {}
        for seed in seeds:
            result, env, info = run_one(wl, seed, seconds, args.trace)
            runs.append({"workload": wl, "seed": seed, "trace": args.trace, **result})
            if info is not None:
                runs[-1]["info"] = info
            status = "ok" if result["correct"] else "NOT CORRECT"
            status += f", {result['failed']}/{result['attempted']} ops failed"
            if info is not None:
                status += f", verdicts_failed {info['verdicts_failed']}"
                if info["op_s_tail"] is not None:
                    status += (f", op_s_tail {info['op_s_tail']:.6g} s"
                               f" (p{info['tail_percentile']:.0f} of {info['op_samples']} ops)")
                if "known_defect" in info:
                    status += f", known defect check {info['known_defect']['status']}"
            print(f"{wl} seed {seed}: {status}", flush=True)
            for k, m in result["metrics"].items():
                per_metric.setdefault(k, []).append(m["value"])
                units[k] = m["unit"]
        summary[wl] = {}
        for k, vals in per_metric.items():
            s = summarise(vals)
            s["bound"] = bounds.get(k)
            summary[wl][k] = s
            if args.trace == 0 or k in ("fft.calls", "flow.steps", "flow.rhs_evals",
                                        "elliptic.gmres_matvecs", "io.bytes_written",
                                        "trace.overhead_s"):
                bound = "" if s["bound"] is None else \
                    f"  bound {s['bound']}  ok={s['spread'] < s['bound'] / 3}"
                print(f"  {k:24s} median {s['median']:.6g} {units[k]}  q1 {s['q1']:.6g}  "
                      f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}{bound}", flush=True)
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump({"label": label, "seconds": seconds, "seeds": seeds,
                   "trace": args.trace, "environment": env, "summary": summary,
                   "runs": runs}, fh, indent=1)
    print(f"written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
