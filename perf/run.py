#!/usr/bin/env python3
"""End-to-end benchmark of zk-gandef: builds the benchmark and runs one
workload in its own process.

    python3 perf/run.py --workload <name> --seed <n> --seconds 30 --trace <0|1>
    python3 perf/run.py --selftest

Run from the root of a checkout. The first run configures and builds the
library and perf/src into .bench_build/perf (a few minutes); later runs only
check that the build is current. The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}; with --trace 0
the metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
per-layer ones. See perf/README.md.
"""
import argparse
import fnmatch
import json
import os
import subprocess
import sys

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perf")
WORKLOADS = ("zk-gandef-digits", "pgd-adv-digits", "serve-open-loop")
# Kernel threads for every workload. With the serving generator, collector
# and engine threads this keeps at most four threads busy.
KERNEL_THREADS = "2"
RUN_TIMEOUT_S = 170
# Per-layer metrics of BENCHMARK.json that a workload's traced run does not
# exercise, as name patterns; they are reported as 0. Every other per-layer
# metric must come from the workload itself.
NOT_EXERCISED = {
    "zk-gandef-digits": ("attacks.pgd_train_ms", "defense.forward_backward_ms",
                         "defense.optimizer_ms", "models.session_ms.*",
                         "serve.*", "tensor.gemm_gflops.serve_*"),
    "pgd-adv-digits": ("data.gaussian_augment_ms", "defense.disc_step_ms",
                       "defense.classifier_step_ms", "models.disc_fwd_bwd_ms",
                       "optim.adam_ms.disc", "models.session_ms.*",
                       "serve.*", "tensor.gemm_gflops.serve_*"),
    "serve-open-loop": ("nn.*.bwd_ms", "nn.loss_ms", "tensor.col2im_ms",
                        "tensor.gemm_gflops.train", "models.disc_fwd_bwd_ms",
                        "data.*", "attacks.*", "optim.*", "defense.*",
                        "eval.*"),
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures once, then brings perf_bench and perf_selftest up to date.
    Build output goes to stderr so the result stays the last stdout line."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    # A configure step that failed leaves no build files: redo it.
    if not any(os.path.exists(os.path.join(BUILD_DIR, f))
               for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", PERF_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                  "perf_bench", "perf_selftest"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("perf: build step failed:", " ".join(cmd))
            return False
    return True


def git_sha():
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def bench_env():
    # The program's own knobs (ZKG_TRACE, ZKG_PRESET, ZKG_BACKEND, ...)
    # would change the measured work: only the kernel thread count is set.
    env = {k: v for k, v in os.environ.items() if not k.startswith("ZKG_")}
    env["ZKG_THREADS"] = KERNEL_THREADS
    env["ZKG_PERF_GIT_SHA"] = git_sha()
    return env


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    group = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def complete_result(line, workload, trace):
    """Adds the per-layer metrics the workload does not exercise, as 0.
    Returns the result and a problem, or None when it names exactly the
    metrics BENCHMARK.json declares, with the declared units."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return result, "unexpected keys %s" % sorted(result)
    want = expected_metrics(trace)
    if trace:
        for name, unit in want.items():
            if any(fnmatch.fnmatchcase(name, pattern)
                   for pattern in NOT_EXERCISED[workload]):
                if name in result["metrics"]:
                    return result, "%s reports %s, listed as not " \
                                   "exercised" % (workload, name)
                result["metrics"][name] = {"value": 0, "unit": unit}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(got) & set(want) if got[k] != want[k])
        return result, "metrics differ from BENCHMARK.json: missing %s, " \
                       "extra %s, wrong unit %s" % (missing, extra, wrong)
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return result, "no operation attempted"
    return result, None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the statistics unit tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    if not build():
        return 1
    if args.selftest:
        return subprocess.run([os.path.join(BUILD_DIR, "perf_selftest")]
                              ).returncode

    trace_dir = os.path.join(BUILD_DIR, "trace")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "perf_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--trace-dir", trace_dir]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=bench_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perf: workload did not finish within %d s" % RUN_TIMEOUT_S)
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(done.stdout)
        log("perf: workload exited with code %d" % done.returncode)
        return 1
    result, problem = complete_result(lines[-1], args.workload,
                                      args.trace == 1)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if problem is not None:
        log("perf:", problem)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
