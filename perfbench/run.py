"""weilmod benchmark: one workload per run, in a fresh interpreter.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root.  The package is imported from ./src (it is
byte-compiled there first).  With --trace 0 the last line of stdout is a
JSON object with the end-to-end metrics; with --trace 1 the same run is
made with per-layer wrappers installed and the per-layer metrics are
printed instead.  A copy of the result, with per-operation details, is
written under perfbench/results/.  Exit status 0 only when every operation
that did not fail passed its checks.
"""

import argparse
import compileall
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)
sys.path.insert(1, SRC)

import checks  # noqa: E402
from calibrate import Calibrator  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 15       # fresh processes that time the set-up
TAIL_BEYOND = 10        # samples that must lie beyond the tail percentile
MIN_TAIL_SAMPLES = 40   # below this the tail is reported as the median


def timed_setup(wl):
    """The program's own set-up in this process: importing weilmod and
    building the fields, rings, contexts and models the workload uses."""
    t0 = time.perf_counter()
    env = wl.setup()
    elapsed = time.perf_counter() - t0
    import weilmod
    got = os.path.dirname(os.path.abspath(weilmod.__file__))
    if got != os.path.join(SRC, "weilmod"):
        raise SystemExit("weilmod was imported from %s, not from %s"
                         % (got, SRC))
    return env, elapsed


def probe_setups(name, count, cal):
    """Set-up times from process start, one fresh process each (probe.py),
    in reference seconds."""
    cmd = [sys.executable, os.path.join(HERE, "probe.py"), name]
    out = []
    for _ in range(count):
        for _ in range(3):
            cal.sample()
        t0 = time.perf_counter()
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=60)
        if res.returncode != 0:
            raise SystemExit("set-up probe failed: " + res.stderr.strip())
        out.append((t0, float(res.stdout.strip().splitlines()[-1])))
    for _ in range(3):
        cal.sample()
    return ([(t1 - t0) * cal.scale(t0, t1) for t0, t1 in out],
            [t1 - t0 for t0, t1 in out])


def pin_to_one_cpu():
    """Keep this process and its children on one CPU, so the calibration
    kernel sees the same core as the work it calibrates."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def tail_rank(n):
    """Index (in sorted order) of the highest percentile that still has
    TAIL_BEYOND samples beyond it, and that percentile."""
    if n < MIN_TAIL_SAMPLES:
        return None, 50.0
    k = n - TAIL_BEYOND - 1
    return k, 100.0 * (k + 1) / n


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    if not os.path.isfile(os.path.join(SRC, "weilmod", "__init__.py")):
        sys.stderr.write("error: no weilmod package under %s\n" % SRC)
        return 2

    # build: byte-compile the package so every run imports compiled code
    if not compileall.compile_dir(SRC, quiet=1):
        sys.stderr.write("error: weilmod does not compile\n")
        return 2

    pin_to_one_cpu()
    n = wl.count(args.seconds)
    items = wl.inputs(args.seed, n)
    cal = Calibrator()
    setups, raw_setups = probe_setups(args.workload, SETUP_PROBES, cal)
    env, own_setup = timed_setup(wl)
    ops = wl.convert(env, items)

    # a traced run reports only per-layer figures; its wall times include
    # the wrappers, so it is not calibrated
    tracer = None
    if args.trace:
        from layers import Tracer
        tracer = Tracer()
        tracer.install()
    else:
        cal.start()

    done = []               # (start, end) of completed ops
    failed_at = []          # the same for failed ops
    failures = {}           # "Error: message" -> count
    first_error = None
    clock = time.perf_counter
    for item in ops:
        t0 = clock()
        try:
            out = wl.op(env, item)
        except Exception as ex:  # a failed operation is counted, not fatal
            failed_at.append((t0, clock()))
            key = "%s: %s" % (type(ex).__name__, ex)
            failures[key] = failures.get(key, 0) + 1
            continue
        done.append((t0, clock()))
        try:
            wl.check(env, item, out)
        except (checks.CheckError, LookupError, TypeError, ValueError) as ex:
            # a wrong value, or output too malformed to check
            if first_error is None:
                first_error = "%s: %s" % (type(ex).__name__, ex)

    if tracer:
        tracer.uninstall()
    else:
        cal.stop()
    for key, count in sorted(failures.items()):
        sys.stderr.write("failed %dx: %s\n" % (count, key))
    if not done:
        sys.stderr.write("error: no operation completed\n")
        return 1
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def end_to_end(scaled):
        """The end-to-end metrics from operation times in reference seconds
        (scaled) or in wall seconds less the calibration samples."""
        def op_s(t0, t1):
            return cal.work(t0, t1) * (cal.scale(t0, t1) if scaled else 1.0)
        times = sorted(op_s(*span) for span in done)
        work_s = sum(times) + sum(op_s(*span) for span in failed_at)
        p50 = statistics.median(times)
        rank, _ = tail_rank(len(times))
        return {
            "throughput_ops_s": (len(times) / work_s, "ops/s"),
            "latency_p50_ms": (1e3 * p50, "ms"),
            "latency_tail_ms": (1e3 * (times[rank] if rank is not None
                                       else p50), "ms"),
            "setup_s": (statistics.median(setups if scaled else raw_setups),
                        "s"),
            "peak_rss_mib": (rss_mib, "MiB"),
        }
    wall = end_to_end(False)
    if tracer:
        from layers import PER_LAYER
        vals = tracer.layer_values(env.get("output_bytes", 0))
        metrics = {name: {"value": vals[name], "unit": unit}
                   for name, unit in PER_LAYER}
        detail = tracer.span_table()
    else:
        e2e = end_to_end(True)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
        detail = {"op_scale": [cal.scale(*span) for span in done],
                  "op_span_s": done, "calibration_at_s": cal.at,
                  "calibration_busy_s": cal.busy,
                  "calibration_samples_s": cal.samples}
    result = {"correct": first_error is None, "attempted": len(ops),
              "failed": len(failed_at), "metrics": metrics}
    if first_error:
        sys.stderr.write("check failed: %s\n" % first_error)

    detail.update(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, samples=len(done),
                  tail_percentile=tail_rank(len(done))[1],
                  setup_wall_s=raw_setups, setup_in_process_s=own_setup,
                  failures=failures,
                  op_wall_ms=[1e3 * cal.work(*span) for span in done],
                  end_to_end_wall={k: v for k, (v, _) in wall.items()})
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results", "%s-seed%d-trace%d.json" % (
        args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
