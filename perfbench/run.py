#!/usr/bin/env python3
"""PIL-Fill benchmark launcher.

Run from the root of a checkout:

    python3 perfbench/run.py --workload oneshot_greedy --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

It builds the library, pilserve and the benchmark driver from source (into
$CARGO_TARGET_DIR, default .bench_build), generates the seeded inputs, runs
one workload and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics (0 where a workload does not exercise
a layer). See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_LIMIT_S = 170  # every run must end within 180 s (builds excepted)
ECO_WORKERS = 2
ECO_SESSIONS = 2  # warm sessions kept: the timed loop's two
COLD_JOBS = 8  # one-job processes: the one-shots' setup_s and peak_rss_mb


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configure once, then an incremental build of the two binaries."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", "perfbench_driver",
                    "pilserve_cli", "-j", "4"],
                   check=True, stdout=subprocess.DEVNULL, stderr=sys.stderr)
    return (os.path.join(out, "perfbench_driver"),
            os.path.join(out, "pil", "tools", "pilserve"))


def last_json_line(text):
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        raise RuntimeError("driver printed no result")
    return json.loads(lines[-1])


def wait_reaped(proc, timeout):
    """Wait for `proc` with os.wait4; returns (exit status, peak RSS MB)."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage.ru_maxrss / 1024.0  # KiB -> MB
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            raise RuntimeError("%s did not exit in time" % proc.args[0])
        time.sleep(0.01)


def run_oneshot(driver, run_dir, workload, seconds, trace, budget):
    method, threads = {
        "oneshot_greedy": ("greedy", "1"),
        "oneshot_ilp2": ("ilp2", "2"),
    }[workload]
    proc = subprocess.run(
        [driver, "oneshot", "--method", method, "--threads", threads,
         "--dir", ".", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run_dir, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
        timeout=budget)
    if proc.returncode != 0:
        raise RuntimeError("driver exited with %d" % proc.returncode)
    result = last_json_line(proc.stdout)
    if not trace:
        # A user runs one job per process (`pilfill fill`), so set-up and
        # memory are read from fresh processes, one cold job each, on
        # layouts 0..COLD_JOBS-1. Set-up is each one's spawn until its job
        # is done; the median over them steadies it. Peak RSS is their
        # mean: the long-lived process's heap grows with the number of timed
        # jobs, which depends on the host's speed.
        setup, rss = [], []
        for k in range(COLD_JOBS):
            t0 = time.monotonic()
            job = subprocess.Popen(
                [driver, "job", "--method", method, "--threads", threads,
                 "--input", "layout%d.pld" % k, "--t0", repr(t0)],
                cwd=run_dir, stdout=subprocess.PIPE, stderr=sys.stderr,
                text=True)
            out = job.stdout.read()
            job.stdout.close()
            status, rss_mb = wait_reaped(job, 60.0)
            if status != 0:
                raise RuntimeError("one-job process exited with %d" % status)
            setup.append(float(out.split()[-1]))
            rss.append(rss_mb)
        result["metrics"]["setup_s"] = {"value": statistics.median(setup),
                                        "unit": "s"}
        result["metrics"]["peak_rss_mb"] = {"value": sum(rss) / len(rss),
                                            "unit": "MB"}
    return result


def rotate_affinity(pid, step, width):
    """Move every thread of process `pid` onto `width` CPUs, `step` places
    on. Each vCPU of this shared host has its own slow and quiet stretches,
    and a thread left alone stays on one vCPU; rotating the server over the
    vCPUs lets every session meet the quiet ones."""
    cpus = sorted(os.sched_getaffinity(0))
    mask = {cpus[(step + j) % len(cpus)] for j in range(min(width, len(cpus)))}
    try:
        tids = os.listdir("/proc/%d/task" % pid)
    except OSError:
        return
    for tid in tids:
        try:
            os.sched_setaffinity(int(tid), mask)
        except OSError:  # the thread has just exited
            pass


def run_eco(driver, pilserve, run_dir, seconds, trace, budget):
    t0 = time.monotonic()
    server = subprocess.Popen(
        [pilserve, "--socket", "pil.sock", "--workers", str(ECO_WORKERS),
         "--max-sessions", str(ECO_SESSIONS), "--log-level", "warn"],
        cwd=run_dir, stdout=subprocess.DEVNULL, stderr=sys.stderr)
    client = None
    try:
        client = subprocess.Popen(
            [driver, "eco", "--socket", "pil.sock", "--dir", ".",
             "--seconds", str(seconds), "--trace", str(trace),
             "--t0", repr(t0)],
            cwd=run_dir, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
        deadline = t0 + budget
        step = 0
        while client.poll() is None:
            if time.monotonic() > deadline:
                raise RuntimeError("eco client did not finish in time")
            rotate_affinity(server.pid, step, ECO_WORKERS)
            step += 1
            time.sleep(0.5)
        out = client.stdout.read()
        status, rss_mb = wait_reaped(server, 10.0)
    finally:
        for proc in (client, server):
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.wait()
    if client.returncode != 0:
        raise RuntimeError("driver exited with %d" % client.returncode)
    result = last_json_line(out)
    if status != 0:
        log("pilserve exited with %d after shutdown" % status)
        result["correct"] = False
    if not trace:
        result["metrics"]["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
    return result


def select_metrics(result, trace):
    """Report exactly the metrics BENCHMARK.json declares, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    metrics = {}
    for m in wanted:
        if m["name"] in got:
            metrics[m["name"]] = got[m["name"]]
        elif trace:  # a layer this workload does not exercise
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
        else:
            raise RuntimeError("workload did not report " + m["name"])
    result["metrics"] = metrics
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload",
                    choices=["oneshot_greedy", "oneshot_ilp2", "eco_service"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="show that each output check catches a corrupted output")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")
    for need in ("CMakeLists.txt", "src", "include", "tools"):
        if not os.path.exists(os.path.join(ROOT, need)):
            log("not a PIL-Fill checkout: %s is missing" % need)
            return 2

    driver, pilserve = build()
    started = time.monotonic()
    run_dir = os.path.join(ROOT, ".bench_run", str(os.getpid()))
    os.makedirs(run_dir, exist_ok=True)
    try:
        subprocess.run([driver, "gen", "--seed", str(args.seed), "--dir", "."],
                       cwd=run_dir, check=True, stderr=sys.stderr, timeout=60)
        if args.selftest:
            return subprocess.run([driver, "selftest", "--dir", "."],
                                  cwd=run_dir, timeout=RUN_LIMIT_S).returncode
        budget = RUN_LIMIT_S - (time.monotonic() - started)
        if args.workload == "eco_service":
            result = run_eco(driver, pilserve, run_dir, args.seconds,
                             args.trace, budget)
        else:
            result = run_oneshot(driver, run_dir, args.workload, args.seconds,
                                 args.trace, budget)
        result = select_metrics(result, args.trace)
    except (subprocess.SubprocessError, RuntimeError, OSError,
            ValueError) as e:
        log(str(e))
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
