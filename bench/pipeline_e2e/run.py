#!/usr/bin/env python3
"""Builds pipeline_e2e from source, runs one workload, prints the result.

    python3 bench/pipeline_e2e/run.py --workload compact --seed 3 \\
        --seconds 20 --trace 0

Run from the repository root (or any checkout of it). The binary is built
with CMake into $CARGO_TARGET_DIR (default .bench_build); scratch archives
and journals go under <build dir>/run. Standard output repeats the
binary's own lines (seed, input sizes, archive crc32s, one
"name value unit n=<samples>" line per metric) and ends with one JSON
object:

    {"correct": true, "attempted": 85, "failed": 0,
     "metrics": {"setup_s": {"value": 0.87, "unit": "s"}, ...}}

--trace 0 reports the end_to_end metrics of BENCHMARK.json from an
untraced run; --trace 1 reports its per_layer metrics from a run with
spans around every layer call (written as Chrome trace-event JSON to
<build dir>/run/<workload>/trace.json).

--smoke runs every workload at test scale, untraced and traced, and
compact once armed; it checks that every BENCHMARK.json metric is
printed, that each trace file has well-formed spans and that the armed
run dumps the registry, and exits non-zero otherwise.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
TRACE_MODES = {"0": "off", "1": "spans"}


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def load_benchmark():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def build(out_dir):
    """Configures (once) and builds the pipeline_e2e target."""
    steps = []
    if not (out_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out_dir), "--target",
                  "pipeline_e2e", "-j", "4"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(step)}")
    return out_dir / "pipeline_e2e"


def run_binary(binary, workload, seed, seconds, mode, work_dir, smoke):
    """Runs one workload; returns (exit code, stdout lines)."""
    if work_dir.exists():
        shutil.rmtree(work_dir)
    work_dir.mkdir(parents=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", mode,
           "--work-dir", str(work_dir)]
    if mode != "off":
        cmd += ["--trace-out", str(work_dir / "trace.json")]
    if smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S, check=False)
    return done.returncode, done.stdout.splitlines()


def parse_output(lines):
    """Metric lines -> {name: (value, unit)}; plus (attempted, failed)."""
    metrics, checks = {}, None
    for line in lines:
        fields = line.split()
        if len(fields) == 4 and fields[3].startswith("n="):
            try:
                metrics[fields[0]] = (float(fields[1]), fields[2])
            except ValueError:
                pass
        elif fields and fields[0] == "checks":
            kv = dict(f.split("=", 1) for f in fields[1:])
            checks = (int(kv["attempted"]), int(kv["failed"]))
    return metrics, checks


def select(metrics, specs):
    """The BENCHMARK.json metrics, with a list of what is missing or off."""
    out, problems = {}, []
    for spec in specs:
        name = spec["name"]
        if name not in metrics:
            problems.append(f"metric {name} not printed")
            continue
        value, unit = metrics[name]
        if unit != spec["unit"]:
            problems.append(f"metric {name} has unit {unit}, "
                            f"not {spec['unit']}")
        if not math.isfinite(value):
            problems.append(f"metric {name} is {value}")
        out[name] = {"value": value, "unit": spec["unit"]}
    return out, problems


def check_trace(path):
    """Problems with a Chrome trace file's spans (empty list = none)."""
    try:
        with open(path, encoding="utf-8") as f:
            events = json.load(f)["traceEvents"]
    except (OSError, ValueError, KeyError) as err:
        return [f"{path}: unreadable trace ({err})"]
    if not events:
        return [f"{path}: no spans"]
    # Spans are written in the order they opened, so each one must start
    # no earlier than the previous one, and its parent must be the
    # innermost earlier span still open when it starts.
    problems, open_spans, last_ts = [], [], -math.inf
    slack = 0.002  # ts and dur are printed with three decimals
    end = lambda i: events[i]["ts"] + events[i]["dur"]  # noqa: E731
    for index, event in enumerate(events):
        args = event.get("args", {})
        ts, dur = event.get("ts"), event.get("dur")
        parent = args.get("parent")
        where = f"{path}: span {index} ({event.get('name')})"
        if event.get("ph") != "X" or ts is None or dur is None or dur < 0 \
                or args.get("id") != index:
            problems.append(f"{where}: not a complete span with its id")
            break
        if ts < last_ts:
            problems.append(f"{where}: starts before the previous span")
        last_ts = ts
        if parent != -1 and not (isinstance(parent, int) and
                                 0 <= parent < index):
            problems.append(f"{where}: missing parent {parent}")
            break
        while open_spans and open_spans[-1] != parent and \
                end(open_spans[-1]) <= ts + slack:
            open_spans.pop()
        enclosing = open_spans[-1] if open_spans else -1
        if enclosing != parent:
            problems.append(f"{where}: unbalanced: parent {parent}, "
                            f"enclosing span {enclosing}")
        elif parent != -1 and ts + dur > end(parent) + slack:
            problems.append(f"{where}: ends after its parent {parent}")
        open_spans.append(index)
    return problems[:20]


def smoke(args, bench):
    binary = Path(args.binary) if args.binary else build(build_dir())
    base = Path(args.work_dir) if args.work_dir else build_dir() / "smoke"
    problems = []
    for workload in [w["name"] for w in bench["workloads"]]:
        for mode, specs in (("off", bench["end_to_end"]),
                            ("spans", bench["per_layer"])):
            work_dir = base / f"{workload}-{mode}"
            code, lines = run_binary(binary, workload, 0, 1, mode, work_dir,
                                     smoke=True)
            metrics, checks = parse_output(lines)
            where = f"{workload} ({mode})"
            if code != 0 or checks is None or checks[1] != 0:
                problems.append(f"{where}: exit {code}, checks {checks}")
            _, missing = select(metrics, specs)
            problems += [f"{where}: {p}" for p in missing]
            if mode == "spans":
                problems += check_trace(work_dir / "trace.json")
    # Armed mode: the program's own registry, dumped as JSON.
    work_dir = base / "compact-armed"
    code, lines = run_binary(binary, "compact", 0, 1, "armed", work_dir,
                             smoke=True)
    try:
        with open(work_dir / "trace.json", encoding="utf-8") as f:
            json.load(f)
    except (OSError, ValueError) as err:
        problems.append(f"compact (armed): no registry dump ({err})")
    if code != 0 or "obs.overhead_pct" not in parse_output(lines)[0]:
        problems.append(f"compact (armed): exit {code} or no "
                        f"obs.overhead_pct")
    for problem in problems:
        log(problem)
    log("smoke " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", choices=sorted(TRACE_MODES), default="0")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--binary", help="use this binary instead of "
                        "building one")
    parser.add_argument("--work-dir", help="scratch directory")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        bench = load_benchmark()
        if args.smoke:
            return smoke(args, bench)
        names = [w["name"] for w in bench["workloads"]]
        if args.workload not in names:
            parser.error(f"--workload must be one of {', '.join(names)}")
        binary = Path(args.binary) if args.binary else build(build_dir())
        work_dir = Path(args.work_dir) if args.work_dir else \
            build_dir() / "run" / args.workload
        mode = TRACE_MODES[args.trace]
        code, lines = run_binary(binary, args.workload, args.seed,
                                 args.seconds, mode, work_dir, smoke=False)
    except (OSError, ValueError, KeyError, RuntimeError,
            subprocess.TimeoutExpired) as err:
        log(f"cannot run the benchmark: {err}")
        return 1

    for line in lines:
        print(line)
    metrics, checks = parse_output(lines)
    if checks is None:
        log(f"pipeline_e2e exited {code} without a result")
        return 1
    specs = bench["end_to_end"] if mode == "off" else bench["per_layer"]
    selected, problems = select(metrics, specs)
    for problem in problems:
        log(problem)
    attempted, failed = checks
    result = {
        "correct": code == 0 and failed == 0 and not problems,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": selected,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
