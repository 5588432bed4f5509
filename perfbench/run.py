#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds N] [--trace 0|1]
                             [--size full|smoke]

NAME is sat3-learning, coloring-db, serve-inproc, serve-tcp, or `all` (every
workload in turn, with a metric table before the combined result line).

The first call configures and builds perfbench/CMakeLists.txt (the solver
libraries from src/ plus the benchmark binary) in Release mode under
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls only
rebuild what changed. The last line of standard output is the result JSON.
"""
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["sat3-learning", "coloring-db", "serve-inproc", "serve-tcp"]
MAX_SEED = 2**63 - 1
RUN_TIMEOUT_S = 170


class UsageError(Exception):
    pass


def parse_args(argv):
    """Strict flag parsing: every flag is known and every value in range."""
    ranges = {"--seed": (0, MAX_SEED), "--seconds": (1, 60), "--trace": (0, 1)}
    args = {"--workload": None, "--seed": 1, "--seconds": 10, "--trace": 0, "--size": "full"}
    i = 0
    while i < len(argv):
        flag, value = argv[i], None
        if flag.startswith("--") and "=" in flag:
            flag, value = flag.split("=", 1)
        elif i + 1 < len(argv):
            i += 1
            value = argv[i]
        if flag not in args:
            raise UsageError(f"unknown flag '{flag}'" if flag.startswith("--")
                             else f"unexpected argument '{flag}'")
        if value is None:
            raise UsageError(f"{flag} needs a value")
        if flag in ranges:
            lo, hi = ranges[flag]
            if not value.isdigit():
                raise UsageError(f"{flag} expects a whole number, got '{value}'")
            if not lo <= int(value) <= hi:
                raise UsageError(f"{flag} must lie in [{lo}, {hi}], got {value}")
            args[flag] = int(value)
        elif flag == "--workload":
            if value not in WORKLOADS + ["all"]:
                raise UsageError(f"unknown workload '{value}'")
            args[flag] = value
        elif flag == "--size":
            if value not in ("full", "smoke"):
                raise UsageError(f"--size must be full or smoke, got '{value}'")
            args[flag] = value
        i += 1
    if args["--workload"] is None:
        raise UsageError("--workload is required")
    return args


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configure (once) and build the benchmark binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise UsageError(f"solver sources not found at {ROOT / 'src'}; "
                         "run from a full checkout of the repository")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    with open(out / ".lock", "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (out / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1)])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-20:]
                sys.stderr.write("\n".join(tail) + "\n")
                raise RuntimeError(f"build failed (see {log_path})")
    return out / "discsp_perfbench"


def run_one(binary, args, workload):
    cmd = [str(binary), "--workload", workload, "--seed", str(args["--seed"]),
           "--seconds", str(args["--seconds"]), "--trace", str(args["--trace"]),
           "--size", args["--size"], "--digest-dir", str(HERE / "digests")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    return proc.returncode, stdout


def run_all(binary, args):
    """Every workload in turn: a metric table, then one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in WORKLOADS:
        rc, stdout = run_one(binary, args, workload)
        code = code or rc
        lines = stdout.strip().splitlines()
        if not lines:
            raise RuntimeError(f"{workload}: no result")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            print(f"{workload:14} {name:30} {metric['value']:>16.6g} {metric['unit']}")
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return code


def main(argv):
    try:
        args = parse_args(argv)
        binary = build()
    except UsageError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except RuntimeError as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    try:
        if args["--workload"] == "all":
            return run_all(binary, args)
        rc, stdout = run_one(binary, args, args["--workload"])
    except RuntimeError as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    sys.stdout.write(stdout)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
