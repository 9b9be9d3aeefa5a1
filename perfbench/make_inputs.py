"""Make one workload's inputs from the seed, in a fresh process.

    python3 perfbench/make_inputs.py --workload verify --seed 3 --seconds 30 \
        --out perfbench/out/verify-3.json

For ``verify`` this writes the scene and solution documents that the
timed process parses; it runs ahead of that process, so the timed ops
meet a cold region cache.  For ``place`` and ``oracle`` it builds the
inputs and drops them.  Either way it prints one JSON line with its own
set-up time: interpreter-level imports plus input generation.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import srcpath  # noqa: E402


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("place", "verify", "oracle"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--out", help="where to write the verify documents")
    args = p.parse_args(argv)
    srcpath.use_checkout_src()
    import workloads

    rounds = workloads.rounds_for(args.seconds)
    gen_ms = None
    if args.workload == "verify":
        if not args.out:
            p.error("--out is required for the verify workload")
        bundle = workloads.verify_docs(args.seed, rounds)
        with open(args.out, "w") as f:
            json.dump(bundle, f)
        gen_ms = bundle["gen_ms"]
    else:
        workloads.make_ops(args.workload, args.seed, rounds)
    print(json.dumps({"setup_s": time.perf_counter() - T0, "gen_ms": gen_ms}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
