"""Benchmark driver for dualfan.

    python3 bench/run.py --workload mirror-ladder --seed 20151 \
        --seconds 36 --trace 0

Runs whole passes of one workload, one fresh interpreter at a time,
for about `--seconds` (at least three passes, or two untraced and two
traced), and checks every job of every pass.  Between passes it times
the package import in short-lived interpreters, so set-up time rests
on many samples.  The last line of stdout is one JSON object:
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end figures, from job times scaled by the
reference timed between jobs (see passrun.py); with `--trace 1`
untraced and traced passes alternate and the metrics are the per-layer
figures of the traced passes plus the tracing overhead.  Raw pass
records go to `bench/out/`.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 20151
MIN_ROUNDS = {False: 3, True: 2}
IMPORT_PROBES = 5  # import-only interpreters after every pass
PASS_TIMEOUT_S = 120  # a run must end within 180 s

END_TO_END = {
    "jobs_per_s": "1/s",
    "job_ms_geomean": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


class BenchError(Exception):
    """A pass that could not run or printed no result."""


def child(args, env):
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "passrun.py"), *args], cwd=ROOT,
            env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass {args} ran over {PASS_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
    except ValueError:
        pass
    raise BenchError(f"pass {args} exited {proc.returncode} without a "
                     f"result:\n{proc.stderr[-2000:]}")


def unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("distinct_ratio"):
        return "ratio"
    return "count"


def jobs_per_s(passes, key="scaled_s"):
    """Jobs over the summed (scaled) wall time of the passes' jobs."""
    return sum(p["attempted"] for p in passes) / sum(p[key] for p in passes)


def job_ms_geomean(passes, key="job_ms_geomean"):
    """Geometric mean over every job of every pass (passes have equal
    job counts, so this is the geometric mean of the pass figures)."""
    return math.exp(statistics.fmean(math.log(p[key]) for p in passes))


def end_to_end(passes, setup):
    values = {
        "jobs_per_s": jobs_per_s(passes),
        "job_ms_geomean": job_ms_geomean(passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def layer_metrics(traced, untraced):
    """Counts from the traced passes (they must repeat exactly), times
    as medians, and the overhead of tracing as a percentage."""
    layers = [p["layers"] for p in traced]
    out = {}
    for name in layers[0]:
        values = [l[name] for l in layers]
        if unit(name) == "ms":
            value = statistics.median(values)
        else:
            value = values[0]
            if any(v != value for v in values):
                print(f"warning: {name} differs between traced passes: "
                      f"{values}", file=sys.stderr)
        out[name] = {"value": value, "unit": unit(name)}
    overhead = jobs_per_s(untraced) / jobs_per_s(traced) - 1
    out["trace.overhead_pct"] = {"value": 100 * overhead, "unit": "%"}
    return out


def run(workload, seed, seconds, trace):
    # bytecode caches on, as for an installed package; fixed hash seed,
    # so traced counts repeat
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    OUT.mkdir(exist_ok=True)
    child(["--probe"], env)  # writes the bytecode caches, untimed
    passes = []
    setup = []
    start = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 1
        doc = child([workload, str(seed), "1" if traced else "0"], env)
        passes.append(doc)
        setup.append(doc["setup_s"])
        for _ in range(IMPORT_PROBES):
            setup.append(child(["--probe"], env)["setup_s"])
        # stop at whole rounds (a traced run alternates untraced and
        # traced passes), as near to `seconds` as round length allows
        size = 2 if trace else 1
        if len(passes) % size or len(passes) < size * MIN_ROUNDS[trace]:
            continue
        elapsed = time.monotonic() - start
        if elapsed + elapsed / (len(passes) // size) / 2 >= seconds:
            break

    with open(OUT / f"{workload}-{seed}-trace{int(trace)}.jsonl", "w") as fh:
        for doc in passes:
            fh.write(json.dumps(doc) + "\n")
        fh.write(json.dumps({"setup_s": setup}) + "\n")
    reported = Counter(line for doc in passes
                       for line in doc["failures"] + doc["problems"])
    for line, times in sorted(reported.items()):
        print(f"{line} (in {times} of {len(passes)} passes)", file=sys.stderr)

    plain = [p for p in passes if not p["trace"]]
    if trace:
        metrics = layer_metrics([p for p in passes if p["trace"]], plain)
    else:
        metrics = end_to_end(plain, setup)
    refs = [r for p in plain for _, r in p["refs"]]
    print(f"{workload}: {len(passes)} passes, {len(setup)} import samples, "
          f"{time.monotonic() - start:.1f} s; unscaled jobs_per_s "
          f"{jobs_per_s(plain, 'wall_s'):.4f}, job_ms_geomean "
          f"{job_ms_geomean(plain, 'raw_job_ms_geomean'):.4f}; reference "
          f"median {1000 * statistics.median(refs):.2f} ms")
    return {
        "correct": all(not p["problems"] for p in passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "dualfan" / "__init__.py").is_file():
        print(f"error: no dualfan sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
