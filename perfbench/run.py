#!/usr/bin/env python3
"""Build fx10d and the benchmark from this checkout, then run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload paper13-cold --seed 1 --seconds 15 --trace 0

Every file the build and the run write stays under .bench_build/ in the
checkout: the Go build cache, temporary files, daemon logs, summary
stores, reports and span files. The benchmark's own arguments are passed
through unchanged; see perfbench/README.md.
"""

import hashlib
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def go_env():
    env = dict(os.environ)
    for key, sub in [
        ("GOCACHE", "gocache"),
        ("GOMODCACHE", "gomodcache"),
        ("GOPATH", "gopath"),
        ("GOTMPDIR", "tmp"),
        ("TMPDIR", "tmp"),
        ("XDG_CONFIG_HOME", "config"),
        ("XDG_CACHE_HOME", "cache"),
    ]:
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    env["GOTOOLCHAIN"] = "local"
    return env


def build(env):
    """Build both binaries; return their paths, or None on failure."""
    bindir = os.path.join(BUILD, "bin")
    os.makedirs(bindir, exist_ok=True)
    fx10d = os.path.join(bindir, "fx10d")
    bench = os.path.join(bindir, "perfbench")
    steps = [
        (ROOT, ["go", "build", "-o", fx10d, "./cmd/fx10d"]),
        (os.path.join(ROOT, "perfbench"), ["go", "build", "-o", bench, "."]),
    ]
    for cwd, cmd in steps:
        done = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return fx10d, bench


def commit():
    """HEAD of the checkout, or "unknown" when it is not a git work tree."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT, capture_output=True, text=True)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return "unknown"
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_bench(cmd, env):
    """Run cmd, passing SIGINT and SIGTERM on, and wait for it to end."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env)

    def forward(sig, _frame):
        proc.send_signal(sig)

    old = {s: signal.signal(s, forward) for s in (signal.SIGINT, signal.SIGTERM)}
    try:
        return proc.wait()
    finally:
        for s, h in old.items():
            signal.signal(s, h)


def source_digest():
    """sha256 over the program's Go sources and go.mod, outside perfbench."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        rel = os.path.relpath(dirpath, ROOT)
        dirnames[:] = sorted(d for d in dirnames if not d.startswith(".") and not (rel == "." and d == "perfbench"))
        for name in sorted(filenames):
            if name.endswith(".go") or name == "go.mod":
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def main():
    env = go_env()
    built = build(env)
    if built is None:
        return 2
    fx10d, bench = built
    workdir = os.path.join(BUILD, "work")
    os.makedirs(workdir, exist_ok=True)
    env["PERFBENCH_COMMIT"] = commit()
    env["PERFBENCH_SOURCE_DIGEST"] = source_digest()
    args = sys.argv[1:]
    runs = [args]
    i = args.index("--workload") + 1 if "--workload" in args else 0
    if 0 < i < len(args) and args[i] == "all":
        # Every workload BENCHMARK.json names, in turn.
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            names = [w["name"] for w in json.load(f)["workloads"]]
        runs = [args[:i] + [name] + args[i + 1:] for name in names]
    rc = 0
    for run_args in runs:
        cmd = [bench, "-fx10d", fx10d, "-workdir", workdir] + run_args
        rc = run_bench(cmd, env) or rc
    return rc


if __name__ == "__main__":
    sys.exit(main())
