#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `perfbench` crate next to this script (a cargo workspace of its
own that reaches the repository's crates by path) into $CARGO_TARGET_DIR,
default `.bench_build` at the repository root, then runs it under a hard
wall-clock deadline. A run that overruns is killed and reported as a
failed run instead of being waited for.

Stdout carries two JSON lines: a host fingerprint (source revision, CPU
model, nproc), so that numbers from different hosts are never compared,
then the result, last:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The result's metric names and units are checked against BENCHMARK.json.
Exit status is 0 only for a correct run. When the build fails nothing is
printed on stdout.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 880
# The binary stops starting repeats after --seconds; one that has not
# exited by the deadline is killed and reported as a failed run.
MAX_DEADLINE_S = 160


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def source_fingerprint():
    """The git revision when there is one, and always a hash of the sources
    the benchmark builds from (the driver's checkouts carry no .git)."""
    rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            rev = None
    files = []
    for top in ("Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"):
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files.append(path)
        for d, dirs, fs in os.walk(path):
            dirs[:] = [x for x in dirs if x != "target" and not x.startswith(".")]
            files += [os.path.join(d, f) for f in fs if f.endswith((".rs", ".toml", ".lock", ".py"))]
    h = hashlib.sha256()
    for f in sorted(files):
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return rev, h.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 1
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if a.trace else "end_to_end"]}

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return 1
    if build.returncode != 0:
        log(f"build failed with status {build.returncode}")
        return 1

    rev, tree = source_fingerprint()
    fingerprint = {
        "git_rev": rev,
        "source_sha256": tree,
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": a.workload,
        "seed": a.seed,
    }

    deadline = min(3 * a.seconds + 60, MAX_DEADLINE_S)
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", a.workload,
        "--seed", str(a.seed),
        "--seconds", str(a.seconds),
        "--trace", str(a.trace),
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=deadline)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"{a.workload} overran its {deadline}s deadline and was killed")
        print(json.dumps({"fingerprint": fingerprint}))
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"no result line (status {proc.returncode})")
        return 1
    if proc.returncode not in (0, 1) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        log(f"malformed result (status {proc.returncode}): {lines[-1][:200]}")
        return 1
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        log(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(expected))}")
        return 1
    print(json.dumps({"fingerprint": fingerprint}))
    print(lines[-1])
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
