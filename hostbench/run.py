#!/usr/bin/env python3
"""Build the host-time benchmark and run one workload.

Run from the repository root:

    python3 hostbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 hostbench/run.py --self-test

The first call compiles the simulator library from src/ together with the
benchmark program in hostbench/src into $CARGO_TARGET_DIR/hostbench (default
.bench_build/hostbench); later calls only rebuild what changed.  The last
line of standard output is the result JSON; build output goes to standard
error.  With --trace 1 the recorded spans are written next to the build,
under spans/.  --self-test checks that faulty runs are counted as failed
and that the program's metric catalogue matches BENCHMARK.json.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# hostbench measures for at most 120 s (--seconds) plus one iteration;
# this only catches a hang.
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "hostbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "workload", "scenario.cpp")):
        raise RuntimeError("simulator sources not found under " + ROOT + "/src")
    os.makedirs(out, exist_ok=True)
    if not any(os.path.isfile(os.path.join(out, f))
               for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", out] + generator,
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "hostbench")


def run(argv, timeout=RUN_TIMEOUT_S, capture=False):
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("timed out: " + " ".join(argv))
    return proc.returncode, (out.decode() if capture else "")


def flag_value(args, flag):
    if flag in args and args.index(flag) + 1 < len(args):
        return args[args.index(flag) + 1]
    return None


def self_test(exe):
    code, _ = run([exe, "--self-test"])
    _, listing = run([exe, "--list-metrics"], capture=True)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for section in ("end_to_end", "per_layer"):
        want = [(m["name"], m["unit"]) for m in spec[section]]
        have = [tuple(line.split()[1:]) for line in listing.splitlines()
                if line.split()[0] == section]
        ok = want == have
        print("self-test %-48s %s" % ("BENCHMARK.json " + section +
                                      " matches hostbench",
                                      "ok" if ok else "FAILED"))
        if not ok:
            print("  BENCHMARK.json only:", sorted(set(want) - set(have)))
            print("  hostbench only:     ", sorted(set(have) - set(want)))
            code = 1
    return code


def main():
    args = sys.argv[1:]
    try:
        out = build_dir()
        exe = build(out)
        if args == ["--self-test"]:
            return self_test(exe)
        if flag_value(args, "--trace") == "1":
            spans = os.path.join(out, "spans")
            os.makedirs(spans, exist_ok=True)
            name = "%s-seed%s.jsonl" % (flag_value(args, "--workload"),
                                        flag_value(args, "--seed"))
            args = args + ["--spans-out", os.path.join(spans, name)]
        code, _ = run([exe] + args)
        return code
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        print("hostbench: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
