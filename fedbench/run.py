#!/usr/bin/env python3
"""Build fedbench from source, run one workload, and print its result.

    python3 fedbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. It configures and builds the fedbench
package into .bench_build/fedbench (a no-op once built), runs the
workload, prints one `workload metric value unit` line per metric, and
ends its standard output with one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports BENCHMARK.json's end_to_end metrics, --trace 1 its
per_layer metrics. The full result, with the run manifest, goes to
.bench_out/<workload>-seed<n>.result.json (.layers.json when traced),
next to the round CSV and, when traced, a chrome trace. Exits nonzero
when the build fails, a correctness check fails, or the checkout holds
no repository sources to build.
"""
import argparse
import ctypes
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "fedbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170
SOURCE_DIRS = ("src", "tools", "fedbench")
PR_SET_CHILD_SUBREAPER = 36  # linux/prctl.h


def log(msg):
    print("fedbench: " + msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        log("no repository sources (CMakeLists.txt, src/) next to fedbench/; nothing to build")
        return None
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "fedbench"), "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("cmake configure failed")
            return None
    cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "fedbench"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        log("build failed")
        return None
    return os.path.join(BUILD_DIR, "fedbench")


def git(*args):
    try:
        out = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """sha256 over the sources the benchmark builds, for checkouts without git."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in SOURCE_DIRS:
        for base, dirs, names in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            files += [os.path.join(base, n) for n in sorted(names)]
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def become_subreaper():
    """Adopt orphaned descendants (fedcav_worker processes whose fedbench
    died) so that stop_group() can wait for them."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def stop_group(pgid):
    """SIGKILL whatever is left of fedbench's process group and reap it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def run_fedbench(binary, args):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out-dir", OUT_DIR]
    if args.trace:
        cmd.append("--trace")
    # Own process group, so the worker processes go down with it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return None, 1
    finally:
        stop_group(proc.pid)
    lines = out.strip().splitlines()
    if not lines:
        return None, proc.returncode or 1
    return json.loads(lines[-1]), proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("unknown workload %r" % args.workload)
        return 2
    binary = build()
    if binary is None:
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    become_subreaper()
    result, code = run_fedbench(binary, args)
    if result is None:
        log("fedbench printed no result (exit %s)" % code)
        return 1

    expected = spec["per_layer" if args.trace else "end_to_end"]
    values = result["metrics"]
    if [m["name"] for m in expected] != list(values):
        log("metrics do not match BENCHMARK.json")
        return 1
    result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                         for m in expected}

    commit = git("rev-parse", "HEAD") if os.path.exists(os.path.join(ROOT, ".git")) else None
    status = git("status", "--porcelain") if commit else None
    result["manifest"].update({
        "commit": commit,
        "dirty": None if status is None else bool(status),
        "source_digest": source_digest(),
    })
    stem = os.path.join(OUT_DIR, "%s-seed%d" % (args.workload, args.seed))
    with open(stem + (".layers.json" if args.trace else ".result.json"), "w") as f:
        json.dump(result, f, indent=1)
    trace_path = stem + ".trace.json"
    if args.trace and os.path.isfile(trace_path):
        with open(trace_path) as f:
            trace = json.load(f)
        trace["otherData"] = result["manifest"]
        with open(trace_path, "w") as f:
            json.dump(trace, f)

    for name, m in result["metrics"].items():
        print("%s %s %s %s" % (args.workload, name, repr(m["value"]), m["unit"]))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] and code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
