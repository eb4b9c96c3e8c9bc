#!/usr/bin/env python3
"""Compares two sets of pipeline_e2e runs under BENCHMARK.json's bounds.

    python3 bench/pipeline_e2e/compare.py PARENT_DIR CHANGE_DIR
    python3 bench/pipeline_e2e/compare.py RUNS_DIR       # spread only

Each directory holds one file per run (*.txt, *.out or *.log): the
standard output of run.py. Run at least ten
pairs, alternating which side runs first, with the same seeds on both
sides. Runs are paired by workload, trace mode and seed; the comparison
is refused when a pair's seeds or input sizes differ, since the two
sides then measured different inputs, and when a run failed its
correctness checks. Differing archive crc32s are
reported, not refused: a change may legitimately alter the bytes.

One row per (workload, metric): each side's median and quartiles, the
share of pairs the change won (ties count for neither), and a verdict:

  better      the change won >= 9/10 of the pairs and the medians differ
              by more than the parent's interquartile range
  worse       the parent won >= 9/10 of the pairs, the medians differ by
              more than the parent's interquartile range and, for an
              end-to-end metric, by more than its bound
  same        the change's median is no worse than the parent's by more
              than the bound (per-layer metrics: than the parent's
              interquartile range)
  unresolved  anything else, including a parent spread wider than the
              bound

Exits 1 when any end-to-end row is "worse", 2 when the runs cannot be
compared.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


class Run:
    def __init__(self, path):
        self.path = path
        self.workload = self.seed = None
        self.inputs, self.archives = [], []
        self.metrics = {}
        for line in path.read_text(encoding="utf-8").splitlines():
            fields = line.split()
            if not fields:
                continue
            if fields[0] == "workload":
                self.workload = fields[1]
            elif fields[0] == "seed":
                self.seed = int(fields[1])
            elif fields[0] == "input":
                self.inputs.append(line)
            elif fields[0] == "archive":
                self.archives.append(line)
            elif line.startswith("{"):
                result = json.loads(line)
                self.correct = result["correct"]
                self.metrics = {k: v["value"]
                                for k, v in result["metrics"].items()}
        if self.workload is None or self.seed is None or not self.metrics:
            raise ValueError(f"{path}: not a run.py output")

    def mode(self, bench):
        return "off" if bench["end_to_end"][0]["name"] in self.metrics \
            else "spans"


def load_runs(directory, bench):
    """{(workload, mode): [runs sorted by seed, then file name]}."""
    groups = defaultdict(list)
    for path in sorted(Path(directory).iterdir()):
        if path.is_file() and path.suffix in (".txt", ".out", ".log"):
            run = Run(path)
            groups[(run.workload, run.mode(bench))].append(run)
    for runs in groups.values():
        runs.sort(key=lambda r: r.seed)
    return groups


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def specs(bench):
    out = {s["name"]: dict(s, kind="end_to_end") for s in bench["end_to_end"]}
    out.update({s["name"]: dict(s, kind="per_layer", bound=None)
                for s in bench["per_layer"]})
    return out


def verdict(spec, parent, change):
    """(share of pairs the change won, verdict word)."""
    sign = -1.0 if spec["better"] == "lower" else 1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = quartiles(change)[1]
    iqr = p_q3 - p_q1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    pairs = len(parent)
    gain = sign * (c_med - p_med)  # > 0: the change's median is better
    scale = abs(p_med) or 1.0
    bound = spec["bound"]
    if wins >= 0.9 * pairs and gain > iqr:
        return wins / pairs, "better"
    if losses >= 0.9 * pairs and -gain > iqr and \
            (bound is None or -gain / scale > bound):
        return wins / pairs, "worse"
    limit = iqr / scale if bound is None else bound
    if bound is not None and iqr / scale > bound:
        return wins / pairs, "unresolved"
    return wins / pairs, "same" if -gain / scale <= limit else "unresolved"


def fmt(values):
    q1, q2, q3 = quartiles(values)
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}]"


def spread_report(directory, bench):
    known = specs(bench)
    print(f"{'workload':9} {'metric':28} {'median [q1, q3]':40} "
          f"{'spread':>8} {'bound':>6}  n")
    for (workload, mode), runs in sorted(load_runs(directory, bench).items()):
        for name in sorted(runs[0].metrics):
            values = [r.metrics[name] for r in runs if name in r.metrics]
            q1, q2, q3 = quartiles(values)
            spread = (q3 - q1) / abs(q2) if q2 else 0.0
            bound = known.get(name, {}).get("bound")
            flag = "" if bound is None or spread <= bound / 3 else "  > bound/3"
            print(f"{workload:9} {name:28} {fmt(values):40} "
                  f"{spread:8.4f} {bound if bound is not None else '-':>6}  "
                  f"{len(values)}{flag}")
    return 0


def refusal(parent, change):
    """Why the two sides cannot be compared, or None."""
    if set(parent) != set(change):
        return "the two sides ran different workloads or modes"
    for key in sorted(parent):
        p_runs, c_runs = parent[key], change[key]
        if [r.seed for r in p_runs] != [r.seed for r in c_runs]:
            return f"{key[0]}: the sides ran different seeds"
        for run in p_runs + c_runs:
            if not run.correct:
                return f"{run.path}: correctness checks failed"
        for p, c in zip(p_runs, c_runs):
            if p.inputs != c.inputs:
                return (f"{key[0]} seed {p.seed}: inputs differ "
                        f"({p.path} vs {c.path})")
    return None


def compare(parent_dir, change_dir, bench):
    known = specs(bench)
    parent, change = load_runs(parent_dir, bench), load_runs(change_dir, bench)
    reason = refusal(parent, change)
    if reason:
        print(f"compare.py: {reason}; refusing to compare", file=sys.stderr)
        return 2
    any_worse = False
    print(f"{'workload':9} {'metric':28} {'parent median [q1, q3]':38} "
          f"{'change median [q1, q3]':38} {'wins':>5}  verdict")
    for key in sorted(parent):
        p_runs, c_runs = parent[key], change[key]
        for p, c in zip(p_runs, c_runs):
            if p.archives != c.archives:
                print(f"note: {key[0]} seed {p.seed}: archive bytes or "
                      f"crc32 differ", file=sys.stderr)
        for name, spec in known.items():
            if name not in p_runs[0].metrics:
                continue
            p_vals = [r.metrics[name] for r in p_runs]
            c_vals = [r.metrics[name] for r in c_runs]
            win_rate, word = verdict(spec, p_vals, c_vals)
            any_worse |= word == "worse" and spec["kind"] == "end_to_end"
            print(f"{key[0]:9} {name:28} {fmt(p_vals):38} {fmt(c_vals):38} "
                  f"{win_rate:5.2f}  {word}")
    return 1 if any_worse else 0


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    try:
        if len(argv) == 2:
            return spread_report(argv[1], bench)
        return compare(argv[1], argv[2], bench)
    except (OSError, ValueError, KeyError) as err:
        print(f"compare.py: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
