#!/usr/bin/env python3
"""Paired benchmark runs of two revisions, recorded as BENCH_<label>.json.

    scripts/paired.py run --parent REV --change REV --pr LABEL [--pairs 10]
                          [--seconds S] [--seed 2017] [--workloads a,b]
    scripts/paired.py check FILE...

`run` exports each revision's committed files with `git archive` into a
directory of its own under `.bench_paired/` (so uncommitted edits and
untracked files never reach a measurement), builds the benchmark there offline
with the vendored dependencies, and then runs the `BENCHMARK.json` command
on every workload for `--pairs` pairs, alternating the sides: the parent
runs first in even pairs, the change first in odd ones. It writes
`BENCH_<label>.json` at the repository root with every run, and per workload
and metric both sides' medians and quartiles, the pairs the change won,
the metric's bound and a verdict:

- `regressed`: the change's median is worse than the parent's by more than
  the bound (a share of the parent's median);
- `unresolved`: either side's quartile spread exceeds the bound;
- `gain` / `loss`: the paired rule of `benchmark/README.md` holds for the
  change / for the parent: that side won at least nine tenths of the pairs
  and the medians are further apart than the parent's quartile spread;
- `no_change` otherwise.

Next to the verdict, `ratio` holds the median and quartiles of the per-pair
`change / parent` ratios. Drift on the host that moves both sides of every
pair alike widens each side's spread, but not the spread of these ratios.
The ratios inform; the verdict alone follows the rule.

The label is a PR number (`N`) or any other name, so an A/A record
(`--parent X --change X --pr N_aa`) or a re-anchor's (`--pr reanchor_N`)
sits beside the PR's own; the record's `pr` key holds the label, as an
integer when it is one.

`check` parses each named record and fails on a missing key; CI runs it on
every committed `BENCH_*.json`. Records written before `ratio` existed have
none, and pass; a record that has one must hold its three keys.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = subprocess.run(
    ["git", "rev-parse", "--show-toplevel"], capture_output=True, text=True, check=True
).stdout.strip()

TOP_KEYS = ["pr", "parent", "change", "nproc", "seed", "seconds", "pairs", "command", "workloads"]
WORKLOAD_KEYS = ["correct", "failed", "metrics"]
METRIC_KEYS = ["unit", "better", "bound", "parent", "change", "pairs_won", "verdict"]
SIDE_KEYS = ["median", "q1", "q3", "runs"]
RATIO_KEYS = ["median", "q1", "q3"]
VERDICTS = {"gain", "loss", "no_change", "unresolved", "regressed"}


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True)


def env(tree):
    """Each tree builds into and runs from a target directory of its own."""
    return {**os.environ, "CARGO_TARGET_DIR": os.path.join(tree, "target")}


def export(rev, into):
    """The committed files of `rev` in `into`, with the benchmark built."""
    if os.path.exists(into):
        shutil.rmtree(into)
    os.makedirs(into)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", into], input=archive.stdout, check=True)
    build = ["cargo", "build", "--release", "--offline", "--quiet"]
    build += ["--manifest-path", "benchmark/Cargo.toml"]
    subprocess.run(build, cwd=into, env=env(into), check=True)


def run_once(tree, command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    out = subprocess.run(
        args + ["--trace", "0"], cwd=tree, env=env(tree), capture_output=True, text=True
    )
    if out.returncode != 0:
        sys.exit(f"{tree}: {workload} failed:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def side(values):
    q1, q3 = quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def ratios(parent, change):
    """Median and quartiles of the per-pair `change / parent` ratios."""
    values = [c / p for c, p in zip(change, parent) if p]
    if not values:
        return None
    q1, q3 = quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def verdict(metric, parent, change, won, pairs):
    """The verdict of the change on one metric (see the module docs)."""
    sign = -1 if metric["better"] == "lower" else 1
    bound = metric["bound"]
    p, c = parent["median"], change["median"]
    if sign * (c - p) < -bound * abs(p):
        return "regressed"
    spread = lambda s: (s["q3"] - s["q1"]) / abs(s["median"]) if s["median"] else 0.0
    if spread(parent) > bound or spread(change) > bound:
        return "unresolved"
    apart = abs(c - p) > parent["q3"] - parent["q1"]
    if apart and sign * (c - p) > 0 and won >= 0.9 * pairs:
        return "gain"
    if apart and sign * (c - p) < 0 and pairs - won >= 0.9 * pairs:
        return "loss"
    return "no_change"


def run(args):
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    command = spec["command"]
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    base = os.path.join(ROOT, ".bench_paired")
    sides = {"parent": git("rev-parse", args.parent).stdout.strip(),
             "change": git("rev-parse", args.change).stdout.strip()}
    trees = {name: os.path.join(base, name) for name in sides}
    for name, rev in sides.items():
        print(f"building {name} {rev[:12]}", file=sys.stderr)
        export(rev, trees[name])
    label = int(args.pr) if args.pr.isdigit() else args.pr
    record = {"pr": label, **sides, "nproc": os.cpu_count(), "seed": args.seed,
              "seconds": seconds, "pairs": args.pairs, "command": command, "workloads": {}}
    for workload in workloads:
        runs = {"parent": [], "change": []}
        for pair in range(args.pairs):
            order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
            for name in order:
                runs[name].append(run_once(trees[name], command, workload, args.seed, seconds))
            print(f"{workload}: pair {pair + 1}/{args.pairs}", file=sys.stderr)
        metrics = {}
        for metric in spec["end_to_end"]:
            key = metric["name"]
            values = {n: [r["metrics"][key]["value"] for r in runs[n]] for n in runs}
            better = (lambda c, p: c < p) if metric["better"] == "lower" else (lambda c, p: c > p)
            won = sum(better(c, p) for c, p in zip(values["change"], values["parent"]))
            parent, change = side(values["parent"]), side(values["change"])
            metrics[key] = {"unit": metric["unit"], "better": metric["better"],
                            "bound": metric["bound"], "parent": parent, "change": change,
                            "pairs_won": won,
                            "verdict": verdict(metric, parent, change, won, args.pairs),
                            "ratio": ratios(values["parent"], values["change"])}
        record["workloads"][workload] = {
            "correct": all(r["correct"] for n in runs for r in runs[n]),
            "failed": {n: [r["failed"] for r in runs[n]] for n in runs},
            "metrics": metrics,
        }
        with open(os.path.join(ROOT, f"BENCH_{args.pr}.json"), "w") as out:
            json.dump(record, out, indent=1)
            out.write("\n")
    shutil.rmtree(base)


def check(paths):
    def need(obj, keys, where):
        missing = [k for k in keys if k not in obj]
        if missing:
            sys.exit(f"{where}: missing {', '.join(missing)}")
    for path in paths:
        record = json.load(open(path))
        need(record, TOP_KEYS, path)
        for workload, entry in record["workloads"].items():
            need(entry, WORKLOAD_KEYS, f"{path}: {workload}")
            for name, metric in entry["metrics"].items():
                where = f"{path}: {workload}.{name}"
                need(metric, METRIC_KEYS, where)
                need(metric["parent"], SIDE_KEYS, f"{where}.parent")
                need(metric["change"], SIDE_KEYS, f"{where}.change")
                if metric.get("ratio") is not None:
                    need(metric["ratio"], RATIO_KEYS, f"{where}.ratio")
                if metric["verdict"] not in VERDICTS:
                    sys.exit(f"{where}: unknown verdict {metric['verdict']!r}")
        print(f"{path}: ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--parent", required=True)
    r.add_argument("--change", required=True)
    r.add_argument("--pr", required=True, help="the record's label: BENCH_<label>.json")
    r.add_argument("--pairs", type=int, default=10)
    r.add_argument("--seconds", type=int, help="default: BENCHMARK.json's run_seconds")
    r.add_argument("--seed", type=int, default=2017)
    r.add_argument("--workloads")
    c = sub.add_parser("check")
    c.add_argument("paths", nargs="+")
    args = parser.parse_args()
    run(args) if args.cmd == "run" else check(args.paths)


if __name__ == "__main__":
    main()
