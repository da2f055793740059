#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the repository. The build goes to
$CARGO_TARGET_DIR/perfbench when that is set, else .bench_build/perfbench;
per-run state goes to a fresh directory under <build>/runs and is removed
when the run ends. Build output goes to standard error, so the last line of
standard output is the benchmark's JSON result. Exits non-zero, without a
result, when the program's sources are missing or do not build.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: the program's sources (src/) are not next to "
              "perfbench/; run from a full checkout", file=sys.stderr)
        return 2
    out = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    out = os.path.abspath(out)
    try:
        binary = build(os.path.join(out, "perfbench"))
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    sys.stdout.flush()
    sys.stderr.flush()
    # The benchmark replaces this process, so signals reach it directly.
    os.execv(binary, [binary] + sys.argv[1:] +
             ["--state-root", os.path.join(out, "runs")])


if __name__ == "__main__":
    sys.exit(main())
