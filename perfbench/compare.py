#!/usr/bin/env python3
"""Compare two sets of perfbench results: a parent and a change.

    python3 perfbench/compare.py PARENT_RESULTS CHANGE_RESULTS

Each argument is a directory of result files written by perfbench/run.py
(.bench_build/perfbench/results in a checkout). Runs of the same workload
and seed on the two sides form a pair; README.md shows how to run each
pair back to back. Host speed on a shared machine drifts over minutes,
so the two sides are not judged by their own medians: for every pair the
change's value is divided by the parent's, and every end-to-end metric
of every workload is judged on the median and quartiles of these ratios
against the bound in BENCHMARK.json:

  regression  the median ratio is worse than 1 by more than the bound
  unresolved  the ratios' spread (quartile distance / median) is wider
              than the bound, and not every change run reads better
              than every parent run
  gain        the change wins at least 9 of 10 pairs and the two sides'
              medians differ by more than the parent's own quartile
              distance
  same        otherwise

A pair whose two runs started more than MAX_PAIR_GAP_S apart is refused:
it did not run back to back. A metric that on some workload is a fixed
multiple of another (ALIASES, listed in README.md) is shown but not
judged again. Results are compared only when their host fingerprints
agree (CPU, nproc, compiler, build type and build options); the code
identity (git describe, source hash) is expected to differ. Exit status:
0 when no metric regressed, 1 on a regression, 2 when the results cannot
be compared.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HOST_KEYS = ("nproc", "cpu", "machine", "compiler", "build_type",
             "CCNUMA_TRACING", "CCNUMA_CHECK_MUTATE")
MAX_PAIR_GAP_S = 300

# workload -> {metric: the metric it is a fixed multiple of}
SIM_ALIASES = {"cells_per_s": "sim_mops_per_s",
               "goodput_rps": "cells_per_s",
               "light_p50_ms": "req_p50_ms"}
ALIASES = {
    "sim-hits": SIM_ALIASES,
    "sim-coherence": SIM_ALIASES,
    "study-sweep": {"sim_mops_per_s": "cells_per_s",
                    "goodput_rps": "cells_per_s",
                    "light_p50_ms": "req_p50_ms"},
    "serve-mix": {"cells_per_s": "sim_mops_per_s"},
}


def load(directory):
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        if path.name.endswith(".spans.json"):
            continue
        doc = json.loads(path.read_text())
        if doc.get("trace") != 0:
            continue
        runs.setdefault(doc["workload"], {})[doc["seed"]] = doc
    return runs


def host(doc):
    return {k: doc["fingerprint"].get(k) for k in HOST_KEYS}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def value(doc, name):
    return doc["result"]["metrics"][name]["value"]


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(sys.argv[1]), load(sys.argv[2])
    docs = [d for side in (parent, change) for w in side.values()
            for d in w.values()]
    if not docs:
        print("no trace-0 results found", file=sys.stderr)
        return 2
    ref = host(docs[0])
    for doc in docs:
        if host(doc) != ref:
            print("refusing to compare: host fingerprints differ:\n"
                  f"  {json.dumps(ref, sort_keys=True)}\n"
                  f"  {json.dumps(host(doc), sort_keys=True)}",
                  file=sys.stderr)
            return 2

    regressed, compared = False, False
    for workload in sorted(set(parent) & set(change)):
        seeds = []
        for s in sorted(set(parent[workload]) & set(change[workload])):
            a, b = parent[workload][s], change[workload][s]
            gap = abs(b.get("started_unix", 0) - a.get("started_unix", 1e18))
            if gap > MAX_PAIR_GAP_S:
                print(f"{workload} seed {s}: refused, the two runs started "
                      f"{gap:.0f} s apart (at most {MAX_PAIR_GAP_S})")
            else:
                seeds.append(s)
        if not seeds:
            continue
        compared = True
        print(f"{workload}: {len(seeds)} pairs")
        aliases = ALIASES.get(workload, {})
        for spec in bench["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            lower = spec["better"] == "lower"
            a = [value(parent[workload][s], name) for s in seeds]
            b = [value(change[workload][s], name) for s in seeds]
            ratios = [y / x for x, y in zip(a, b) if x > 0]
            if not ratios:
                continue
            q1, med, q3 = quartiles(ratios)
            worse = med - 1.0 if lower else 1.0 - med
            spread = (q3 - q1) / med
            wins = sum((r < 1.0) if lower else (r > 1.0) for r in ratios)
            pq1, pmed, pq3 = quartiles(a)
            all_better = (max(b) < min(a)) if lower else (min(b) > max(a))
            if name in aliases:
                verdict = f"(= {aliases[name]}, not judged again)"
            elif worse > bound:
                verdict = "regression"
                regressed = True
            elif spread > bound and not all_better:
                verdict = "unresolved"
            elif (wins >= 0.9 * len(ratios)
                  and abs(statistics.median(b) - pmed) > pq3 - pq1):
                verdict = "gain"
            else:
                verdict = "same"
            print(f"  {name:16s} parent {pmed:.5g} [{pq1:.5g}, {pq3:.5g}]"
                  f"  change {statistics.median(b):.5g} {spec['unit']}"
                  f"  ratio {med:.4f} [{q1:.4f}, {q3:.4f}]"
                  f"  worse {worse:+.1%} (bound {bound:.0%})"
                  f"  wins {wins}/{len(ratios)}  {verdict}")
    if not compared:
        print("no pair of runs to compare", file=sys.stderr)
        return 2
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
