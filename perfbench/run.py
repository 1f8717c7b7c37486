#!/usr/bin/env python3
"""End-to-end suite benchmark of the gwc reproduction.

Builds the gwc libraries and the benchmark driver from this checkout
(CMake, into .bench_build/perfbench), runs one workload and relays the
driver's one-line JSON summary as the last line of standard output.

    python3 perfbench/run.py --workload characterize --seed 1 \
        --seconds 15 --trace 0
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --selftest

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones. --all runs every workload untraced (the gated ones
of BENCHMARK.json and the ungated trace_roundtrip and serve_mixed) and
prints each end-to-end metric with its unit and sample count. --selftest builds and
runs the benchmark's own unit tests. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
TMP = os.path.join(ROOT, ".bench_build", "tmp")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BUILD_TIMEOUT_S = 840
DRIVER_TIMEOUT_S = 170
# Runnable like the BENCHMARK.json workloads but not gated: their
# run-to-run spread exceeded the 0.25 bound on the tuning host. The
# characterize traced run measures their layers (README.md).
UNGATED = ["trace_roundtrip", "serve_mixed"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))
    for group in ("end_to_end", "per_layer"):
        for m in spec[group]:
            if not NAME_RE.match(m["name"]) or not UNIT_RE.match(m["unit"]):
                fail("invalid metric name or unit: %r" % (m,))
    return spec


def jobs():
    return max(1, min(4, os.cpu_count() or 1))


def child_env():
    """Environment of every child: temporary files stay in the checkout."""
    os.makedirs(TMP, exist_ok=True)
    return dict(os.environ, TMPDIR=TMP)


def build(target):
    """Configure (once per checkout) and build @target."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no gwc source tree next to perfbench/ (expected src/)")
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            home = [l for l in f if l.startswith("CMAKE_HOME_DIRECTORY")]
        if not home or home[0].split("=", 1)[1].strip() != HERE:
            shutil.rmtree(BUILD)
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", target,
                  "-j", str(jobs())])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=child_env(), timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s" % e)
        if done.returncode != 0:
            fail("build step failed: %s" % " ".join(cmd))
    return os.path.join(BUILD, target)


def commit():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2:
        return "unknown"
    if os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def source_digest():
    """sha256 over the paths and bytes of src/, for checkouts without
    git metadata."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def run_workload(driver, spec, workload, seed, seconds, trace):
    """Run the driver once; return (summary dict, raw last line)."""
    cmd = [driver, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", WORK, "--commit", commit(),
           "--source-digest", source_digest()]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=child_env(), timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, DRIVER_TIMEOUT_S))
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        fail("driver exited with code %d" % done.returncode)
    try:
        summary = json.loads(lines[-1])
    except ValueError:
        fail("driver printed no JSON summary")
    group = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[group]}
    got = {k: v["unit"] for k, v in summary["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        fail("metrics differ from BENCHMARK.json %s: missing %s, extra %s, "
             "unit mismatch %s" % (group, missing, extra, wrong))
    print("\n".join(lines[:-1]))
    return summary, lines[-1]


def run_all(driver, spec, seed, seconds):
    rows = []
    ok = True
    for name in [w["name"] for w in spec["workloads"]] + UNGATED:
        summary, _ = run_workload(driver, spec, name, seed, seconds, 0)
        path = os.path.join(WORK, "results",
                            "%s-seed%d-trace0.json" % (name, seed))
        with open(path) as f:
            detail = json.load(f)["end_to_end"]
        ok = ok and summary["correct"] and summary["failed"] == 0
        rate = summary["failed"] / max(1, summary["attempted"])
        label = name + (" (ungated)" if name in UNGATED else "")
        for m in spec["end_to_end"]:
            d = detail[m["name"]]
            rows.append((label, m["name"], d["value"], m["unit"],
                         d["samples"]))
        rows.append((label, "error_rate", rate, "ratio",
                     summary["attempted"]))
    print("\n%-26s %-16s %16s %-10s %s" %
          ("workload", "metric", "value", "unit", "samples"))
    for r in rows:
        print("%-26s %-16s %16.6g %-10s %d" % r)
    return 0 if ok else 1


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]] + UNGATED
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=names)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload untraced and tabulate")
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's unit tests")
    args = ap.parse_args()

    if args.selftest:
        tests = build("perfbench_tests")
        return subprocess.run([tests], env=child_env(),
                              timeout=DRIVER_TIMEOUT_S).returncode
    if not args.all and not args.workload:
        ap.error("--workload, --all or --selftest is required")
    driver = build("perfbench_driver")
    if args.all:
        return run_all(driver, spec, args.seed, args.seconds)
    _, last = run_workload(driver, spec, args.workload, args.seed,
                           args.seconds, args.trace)
    print(last)
    return 0


if __name__ == "__main__":
    sys.exit(main())
