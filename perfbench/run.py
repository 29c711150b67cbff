#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload sc-fine --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Every argument is passed to the benchmark binary. `--workload all` runs
each workload in its own process, one after another, and ends with a
table of every metric of every workload by name and unit. The binary,
the Go build cache and all temporary files (including the unix sockets
of the socket workload) live under the build directory,
$CARGO_TARGET_DIR or .bench_build, inside the current directory;
nothing is written elsewhere. Exits non-zero without a result line when
the build fails, for example when the module the benchmark measures is
absent.
"""

import json
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170  # the benchmark's own limit is 180 s per run
BUILD_TIMEOUT_S = 840


def build(root, build_dir):
    """Builds the benchmark binary; returns its path and run environment, or None."""
    binary = os.path.join(build_dir, "perfbench", "perfbench")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build_dir, "gocache"),
        "GOPATH": os.path.join(build_dir, "gopath"),
        "GOTMPDIR": os.path.join(build_dir, "tmp"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=mod",
        "GOENV": "off",
        "GOPROXY": "off",
        "GOWORK": "off",
        # The go command keeps telemetry counters under the user config
        # directory; point it (and any other XDG cache) into the build
        # directory too.
        "XDG_CONFIG_HOME": os.path.join(build_dir, "config"),
        "XDG_CACHE_HOME": os.path.join(build_dir, "cache"),
    })
    try:
        proc = subprocess.run(["go", "build", "-o", binary, "."], cwd=os.path.join(root, "perfbench"),
                              env=env, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    # A relative TMPDIR keeps unix-socket paths short however deep the
    # checkout sits (sun_path holds about 100 bytes).
    env["TMPDIR"] = os.path.relpath(os.path.join(build_dir, "tmp"), root)
    return binary, env


def run_all(binary, env, root, args):
    """Runs every workload with args and prints a table of all metrics."""
    names = subprocess.run([binary, "--list"], cwd=root, env=env, capture_output=True,
                           text=True, check=True).stdout.split()
    rows, worst = [], 0
    for name in names:
        try:
            proc = subprocess.run([binary, "--workload", name] + args, cwd=root, env=env,
                                  capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"perfbench: {name} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
            worst = 1
            continue
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            worst = proc.returncode
            continue
        res = json.loads(proc.stdout.splitlines()[-1])
        if not res["correct"]:
            worst = worst or 1
        for metric, v in sorted(res["metrics"].items()):
            rows.append((name, metric, v["value"], v["unit"]))
        rows.append((name, "failed/attempted", res["failed"], str(res["attempted"])))
    print()
    for name, metric, value, unit in rows:
        print(f"{name:22s} {metric:32s} {value:14.6g} {unit}")
    return worst


def main():
    root = os.getcwd()
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(os.path.join(build_dir, "tmp"), exist_ok=True)
    built = build(root, build_dir)
    if built is None:
        return 1
    binary, env = built

    args = sys.argv[1:]
    if "--workload" in args and args.index("--workload") + 1 < len(args):
        i = args.index("--workload")
        if args[i + 1] == "all":
            return run_all(binary, env, root, args[:i] + args[i + 2:])
    try:
        proc = subprocess.run([binary] + args, cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
