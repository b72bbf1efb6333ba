"""One timed pass of a workload, in a fresh interpreter.

    python3 bench/passrun.py <workload> <seed> <trace 0|1>

Times the import of dualfan, runs every job of the workload once,
checks every output and prints one JSON object on the last line of
stdout.  With trace 1 the layers are wrapped before the first job and
the per-layer figures are added.  `--probe` times the import alone.

Between jobs, at least every REF_EVERY_S of job time, the pass times
`reference()`, a fixed piece of pure-Python work that never touches
dualfan.  It tracks the speed of the machine, which on a shared host
drifts by a third for minutes at a time.  Each job's wall time is also
reported scaled by REF_S over the mean of the two reference times
around it.
"""

import contextlib
import gc
import io
import json
import math
import resource
import sys
import time
from fractions import Fraction

import checks
import workloads

REF_EVERY_S = 0.3
# median time of reference() on the 2-core machine the benchmark was
# tuned on, so scaled times read as wall times there at nominal speed
REF_S = 0.085


def reference():
    """Exact integer elimination, fraction sums, sorting and tuple/dict
    churn: the operation mix the library spends its time on."""
    m = [[(7 * i + 3 * j * j + 1) % 11 - 5 for j in range(7)]
         for i in range(7)]
    total = Fraction(0)
    seen = {}
    for rep in range(1200):
        a = [row[:] for row in m]
        prev = 1
        for k in range(6):
            for i in range(k + 1, 7):
                for j in range(k + 1, 7):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) \
                        // prev or 1
            prev = a[k][k] or 1
        for i in range(7):
            total += Fraction(a[i][i] % 97, i + 2 + rep % 5)
            key = tuple(sorted(x % 13 for x in a[i]))
            seen[key] = seen.get(key, 0) + 1
    return total, len(seen)


def timed_reference():
    """Seconds taken by reference(), with the collector off so that the
    program's heap and GC settings cannot change it."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    reference()
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


def run_cli(cli, job):
    argv = [job.command]
    if job.text is not None:
        argv.append("-")
    stdin, out, err = sys.stdin, io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO(job.text or "")
    error = None
    code = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as e:  # a crash is recorded as a failed operation
        error = f"{type(e).__name__}: {e}"
    finally:
        sys.stdin = stdin
    return {"code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "error": error}


def run_job(cli, job):
    if job.command != "fermat":
        return run_cli(cli, job)
    try:
        return workloads.fermat_pipeline(job.payload)
    except Exception as e:
        return e


def outcome_of(job, result):
    if job.command != "fermat":
        return result
    if isinstance(result, Exception):
        return {"error": f"{type(result).__name__}: {result}"}
    return {"error": None, "view": workloads.fermat_view(*result)}


def geomean_ms(seconds):
    return 1000 * math.exp(sum(math.log(t) for t in seconds) / len(seconds))


def main(argv):
    if argv[1:] == ["--probe"]:
        start = time.perf_counter()
        import dualfan.cli  # noqa: F401
        print(json.dumps({"setup_s": time.perf_counter() - start}))
        return 0
    workload, seed, trace = argv[1], int(argv[2]), argv[3] == "1"
    jobs = workloads.build(workload, seed)

    start = time.perf_counter()
    import dualfan.cli
    setup_s = time.perf_counter() - start

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer.install()

    results = []
    times = []
    refs = [(0, timed_reference())]
    since = 0.0
    for job in jobs:
        t0 = time.perf_counter()
        results.append(run_job(dualfan.cli, job))
        times.append(time.perf_counter() - t0)
        since += times[-1]
        if since >= REF_EVERY_S or len(times) == len(jobs):
            refs.append((len(times), timed_reference()))
            since = 0.0
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scaled = []
    for (i, before), (j, after) in zip(refs, refs[1:]):
        scaled += [t * 2 * REF_S / (before + after) for t in times[i:j]]

    outcomes = {job.name: outcome_of(job, result)
                for job, result in zip(jobs, results)}
    failures = []
    problems = []
    for job in jobs:
        outcome = outcomes[job.name]
        if outcome["error"] is not None:
            failures.append(f"{job.name}: {outcome['error']}")
            continue
        problems += [f"{job.name}: {p}"
                     for p in checks.check(job, outcome, outcomes)]

    doc = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "attempted": len(jobs),
        "failed": len(failures),
        "failures": failures,
        "problems": problems,
        "setup_s": setup_s,
        "peak_rss_mib": peak_rss_mib,
        "wall_s": sum(times),
        "raw_job_ms_geomean": geomean_ms(times),
        "scaled_s": sum(scaled),
        "job_ms_geomean": geomean_ms(scaled),
        "refs": refs,
        "job_ms": {job.name: 1000 * t for job, t in zip(jobs, times)},
    }
    if tracer is not None:
        doc["layers"] = tracer.metrics()
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
