#!/usr/bin/env python3
"""Entry point of the lrsim benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call builds perfbench/ and the
simulator sources under src/ in Release mode into .bench_build/perfbench;
later calls reuse that build. The lrbench program then runs the workload and
prints the run manifest and, as the last line of stdout, the result object.
The traced run (--trace 1) also writes its host spans as Chrome trace-event
JSON to .bench_build/perfbench/traces/.

--self-test runs every workload at a tiny size in both modes and checks that
each metric BENCHMARK.json names is printed with its unit, that the trace
file is well formed, and that an injected repetition mismatch is counted as
failed.
"""

import argparse
import ctypes
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "lrbench"
TRACES = BUILD / "traces"

# The seed used while the benchmark and later changes are developed, and the
# held-out seed a performance claim must also hold on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

RUN_TIMEOUT_S = 175

# personality(2) flag that turns off address-space layout randomization.
ADDR_NO_RANDOMIZE = 0x0040000


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures and builds once; returns False when the build fails."""
    if not (ROOT / "src" / "runtime" / "machine.hpp").is_file():
        log(f"simulator sources not found under {ROOT / 'src'}")
        return False
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    # The compiler's temporary files stay inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return BINARY.is_file()


def git_describe():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    text = out.stdout.strip()
    return text if out.returncode == 0 and text else "unknown"


def lrbench_args(workload, seed, seconds, trace, extra=()):
    args = [str(BINARY), "--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", str(trace), "--git-describe", git_describe()]
    if trace:
        TRACES.mkdir(parents=True, exist_ok=True)
        args += ["--trace-out", str(TRACES / f"{workload}-seed{seed}.json")]
    return args + list(extra)


def no_aslr():
    """Runs in the child before exec. With randomized heap and stack
    placement, each process runs at its own speed: 12 same-seed spin64 runs
    on a 4-CPU host spread by 0.135 (quartile distance / median) with it and
    by 0.047 without. If the kernel refuses, the run keeps ASLR."""
    libc = ctypes.CDLL(None, use_errno=True)
    current = libc.personality(0xFFFFFFFF)
    if current != -1:
        libc.personality(current | ADDR_NO_RANDOMIZE)


def run_lrbench(args):
    """Runs lrbench; returns (exit code, stdout). stderr passes through."""
    try:
        proc = subprocess.run(args, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
                              preexec_fn=no_aslr)
    except subprocess.TimeoutExpired:
        log(f"lrbench did not finish within {RUN_TIMEOUT_S} s")
        return 1, ""
    return proc.returncode, proc.stdout


def last_json(stdout, key_hint):
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    for ln in reversed(lines):
        doc = json.loads(ln)
        if key_hint in doc:
            return doc
    raise ValueError(f"no line with {key_hint!r}")


def self_test():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for w in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[group]}
            code, out = run_lrbench(lrbench_args(w["name"], DEFAULT_SEED, 0.2, trace, ["--tiny"]))
            where = f"{w['name']} --trace {trace}"
            if code != 0:
                errors.append(f"{where}: exit code {code}")
                continue
            result = last_json(out, "metrics")
            manifest = last_json(out, "manifest")["manifest"]
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{where}: result keys {sorted(result)}")
            if result["attempted"] < 1 or result["failed"] != 0 or result["correct"] is not True:
                errors.append(f"{where}: tiny run not clean: {result['attempted']} attempted, "
                              f"{result['failed']} failed, correct={result['correct']}")
            for key in ("digest", "seed", "git_describe", "build_type", "host_cpus"):
                if key not in manifest:
                    errors.append(f"{where}: manifest lacks {key}")
            got = result["metrics"]
            if set(got) != set(want):
                errors.append(f"{where}: metrics differ from BENCHMARK.json: missing "
                              f"{sorted(set(want) - set(got))}, "
                              f"extra {sorted(set(got) - set(want))}")
            for name, unit in want.items():
                m = got.get(name)
                if m is None:
                    continue
                if m.get("unit") != unit:
                    errors.append(f"{where}: {name} unit {m.get('unit')!r} != {unit!r}")
                v = m.get("value")
                if not isinstance(v, (int, float)) or not math.isfinite(v):
                    errors.append(f"{where}: {name} value {v!r} is not a finite number")
            if trace:
                errors += check_trace(TRACES / f"{w['name']}-seed{DEFAULT_SEED}.json", where)

    # An injected mismatch between two repetitions must fail the point.
    code, out = run_lrbench(lrbench_args("spin64", DEFAULT_SEED, 0.2, 0,
                                       ["--tiny", "--inject-mismatch"]))
    result = last_json(out, "metrics") if code == 0 else None
    if result is None or result["failed"] == 0 or result["correct"] is not False:
        errors.append(f"injected repetition mismatch not counted: {result}")
    elif result["metrics"]["completed_frac"]["value"] >= 1:
        errors.append("injected repetition mismatch left completed_frac at 1")

    for e in errors:
        log("self-test FAIL: " + e)
    log("self-test " + ("FAILED" if errors else "OK"))
    return 1 if errors else 0


def check_trace(path, where):
    validator = ROOT / "scripts" / "trace_validate.py"
    if not path.is_file():
        return [f"{where}: no trace file {path}"]
    doc = json.loads(path.read_text())
    spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
    errors = []
    if not any(e["name"] == "run" for e in spans) or not any(e["name"] == "probes" for e in spans):
        errors.append(f"{where}: trace lacks run or probe spans")
    if any("parent" not in e["args"] or "id" not in e["args"] for e in spans):
        errors.append(f"{where}: a span lacks its id or parent")
    if validator.is_file():
        proc = subprocess.run([sys.executable, str(validator), str(path)],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            errors.append(f"{where}: trace_validate.py: {proc.stderr.strip()}")
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    if not build():
        return 2
    if args.self_test:
        return self_test()
    code, out = run_lrbench(lrbench_args(args.workload, args.seed, args.seconds, args.trace))
    if code == 0:
        sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
