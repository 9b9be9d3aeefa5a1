"""cityguard benchmark: one closed-loop workload per run.

    python3 perfbench/run.py --workload {place,verify,oracle} --seed N \
        --seconds S --trace {0,1}

One process, one thread, a fixed seeded list of ops: ``--seconds`` fixes
the number of rounds (see workloads.py), not a time limit, so every run
with the same arguments does identical work.  Each op's output is checked
outside the timed region.  The last line of standard output is the
result:

    {"correct": true, "attempted": 40, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (setup_s,
ops_per_s, op_ms_p50, op_ms_tail, peak_rss_mb).  With ``--trace 1`` the
public functions are wrapped at each module boundary and the metrics are
the per-layer ones; the spans go to ``perfbench/out/``.  A detail line
(reference loop, op mix, timings) goes to standard error.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import srcpath  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_SAMPLES = 3
TAIL_BEYOND = 10  # the tail percentile keeps at least this many ops above it
TAIL_WINDOW = 2
CHILD_TIMEOUT_S = 150
REF_ITEMS, REF_REPS = 3000, 5
REF_MS = 1.6
REF_WINDOW = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description="cityguard benchmark")
    p.add_argument("--workload", required=True, choices=("place", "verify", "oracle"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def reference_slice_ms():
    """Median time of a fixed pure-Python loop that builds tuples, fills a
    dict and sorts it, like cityguard does, but runs none of its code.

    On a shared host the interpreter's speed can drift by a quarter within
    a minute, so a slice is taken right before and right after every op
    (and every set-up sample), and each time is scaled to REF_MS, the
    slice's typical time on the 2-core host the reference figures in
    README.md come from."""
    times = []
    for _ in range(REF_REPS):
        t = time.perf_counter()
        d = {}
        for i in range(REF_ITEMS):
            key = (i, i * 7 % 13, (i, i + 1))
            d[key] = [key, i]
        sorted(d, key=lambda k: k[1])
        times.append(time.perf_counter() - t)
    return statistics.median(times) * 1000


def scaled(seconds, ref_before_ms, ref_after_ms):
    """A measured time at reference speed."""
    return seconds * 2 * REF_MS / (ref_before_ms + ref_after_ms)


def scaled_times(samples):
    """Op times at reference speed.  One slice can be hit by a passing
    stall, so each op is scaled by the median of the slices of the ops
    within REF_WINDOW of it; the host's drift is slower than that."""
    out = []
    for i, (seconds, _, _) in enumerate(samples):
        near = samples[max(0, i - REF_WINDOW):i + REF_WINDOW + 1]
        ref = statistics.median(r for _, a, b in near for r in (a, b))
        out.append(seconds * REF_MS / ref)
    return out


def run_setup_child(args, out_path):
    cmd = [sys.executable, str(HERE / "make_inputs.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--out", str(out_path)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: input generation failed ({proc.returncode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND ops beyond it.
    A run of fewer than 4 * TAIL_BEYOND ops has no such tail and reports
    its maximum."""
    return math.floor(100 * (n - TAIL_BEYOND) / n) if n >= 4 * TAIL_BEYOND else 100


def smoothed_rank(sorted_values, pct):
    """The percentile's nearest-rank value, averaged with the order
    statistics up to TAIL_WINDOW ranks either side: one slow or fast op
    near the tail moves it less than it moves a single order statistic."""
    n = len(sorted_values)
    rank = max(0, math.ceil(pct / 100 * n) - 1)
    window = sorted_values[max(0, rank - TAIL_WINDOW):rank + TAIL_WINDOW + 1]
    return sum(window) / len(window)


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    return "ratio" if name.endswith("_ratio") else "count"


def main(argv=None):
    args = parse_args(argv)
    srcpath.use_checkout_src()
    OUT.mkdir(exist_ok=True)
    refs = []  # every reference slice of the run, for the detail line

    def ref_slice():
        refs.append(reference_slice_ms())
        return refs[-1]

    docs_path = OUT / f"{args.workload}-inputs-{args.seed}.json"
    setups = []
    for _ in range(1 if args.trace else SETUP_SAMPLES):
        before = ref_slice()
        child = run_setup_child(args, docs_path)
        setups.append(scaled(child["setup_s"], before, ref_slice()))

    import workloads
    from tracing import Tracer

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        tracer.begin_op("setup")
    bundle = None
    if args.workload == "verify":
        bundle = json.loads(docs_path.read_text())
        docs_path.unlink()
    ops = workloads.make_ops(args.workload, args.seed,
                             workloads.rounds_for(args.seconds), bundle)
    gen_ms = 0.0
    if tracer is not None:
        tracer.end_op()
        gen_ms = bundle["gen_ms"] if bundle else tracer.self_s["instances.gen"] * 1000
        tracer.reset_totals()

    samples, errors, wrong = [], [], []  # samples: (seconds, slice before, slice after)
    for i, op in enumerate(ops):
        run = op.run
        if tracer is not None:
            run = tracer.wrap(run, "op")
            tracer.begin_op(i)
        before = ref_slice()
        t = time.perf_counter()
        try:
            out = run()
        except Exception as e:  # a failed op is counted, and the run goes on
            out = None
            errors.append(f"op {i} ({op.label}) failed: {type(e).__name__}: {e}")
        dt = time.perf_counter() - t
        after = ref_slice()
        if tracer is not None:
            tracer.end_op()
        if out is None:
            continue
        samples.append((dt, before, after))
        message = op.check(out)
        if message:
            wrong.append(f"op {i} ({op.label}): {message}")

    n = len(samples)
    if n == 0:
        print("\n".join(errors), file=sys.stderr)
        raise SystemExit("perfbench: no op completed")
    times = scaled_times(samples)
    loop_s = sum(times)
    pct = tail_percentile(n)
    ordered = sorted(times)
    if tracer is not None:
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in tracer.layer_metrics(len(ops), gen_ms).items()}
        tracer.uninstall()
        tracer.write_spans(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": n / loop_s, "unit": "1/s"},
            "op_ms_p50": {"value": statistics.median(times) * 1000, "unit": "ms"},
            "op_ms_tail": {"value": smoothed_rank(ordered, pct) * 1000, "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "ops": len(ops), "mix": dict(Counter(op.label for op in ops)),
        "tail_percentile": pct, "loop_s": loop_s, "raw_loop_s": sum(t for t, _, _ in samples),
        "ref_slice_ms": {"median": statistics.median(refs), "min": min(refs),
                         "max": max(refs)},
        "setup_samples_s": setups,
        "op_ms": [round(t * 1000, 1) for t in times],
        "raw": [[round(t * 1000, 2), round(a, 4), round(b, 4)] for t, a, b in samples],
        "wall_s": time.perf_counter() - T0, "problems": (errors + wrong)[:10],
    }
    print(json.dumps(detail), file=sys.stderr)
    print(json.dumps({"correct": not wrong, "attempted": len(ops), "failed": len(errors),
                      "metrics": metrics}))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
