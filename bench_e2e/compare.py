#!/usr/bin/env python3
"""Compare two sets of benchmark results against the bounds in
``BENCHMARK.json``.

    python3 bench_e2e/compare.py A.json B.json
    python3 bench_e2e/compare.py --base A1.json A2.json --new B1.json B2.json

The inputs are result files written by ``run.py --out``.  For every pair
of workload and end-to-end metric the verdict is one of

* ``regressed``  — the new median is worse than the base median by more
  than the metric's bound;
* ``improved``   — the new median is better by more than the base's own
  run-to-run spread (its interquartile distance; the bound when there is
  a single base run) and the new side wins at least nine tenths of all
  base/new pairs;
* ``unresolved`` — neither, and one side's spread is wider than the
  bound, so "no change" cannot be told from a change of that size;
* ``unchanged``  — neither, and both spreads are inside the bound.

``model_ns`` is simulated time and repeats exactly: when both sides ran
the same seeds any difference beyond 1e-6 relative is a verdict, however
small.  ``fail_frac`` is failed output checks over attempted; any failure
on the new side is a regression.  One row per workload; the exit status
is non-zero when any pair regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Metrics on the model clock: exact at equal seeds (relative tolerance).
EXACT_AT_EQUAL_SEEDS = {"model_ns": 1e-6}
WIN_SHARE = 0.9


def _load(paths: list[str]) -> list[dict]:
    docs = []
    for path in paths:
        with open(path) as fh:
            docs.append(json.load(fh))
    return docs


def _values(docs: list[dict], workload: str, metric: str) -> list[float]:
    return [d["untraced"][workload]["end_to_end"][metric]["value"]
            for d in docs if workload in d["untraced"]]


def _quartiles(vals: list[float]) -> tuple[float, float, float]:
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return q1, med, q3


def verdict(base: list[float], new: list[float], bound: float,
            better: str, exact_rtol: float | None = None) -> tuple[str, float]:
    """``(verdict, worsening)``; ``worsening`` is the new median's change
    as a share of the base median, positive when worse."""
    sign = 1.0 if better == "lower" else -1.0
    bq1, bmed, bq3 = _quartiles(base)
    nq1, nmed, nq3 = _quartiles(new)
    worse = sign * (nmed - bmed) / abs(bmed)
    if exact_rtol is not None:
        if abs(worse) <= exact_rtol:
            return "unchanged", worse
        return ("regressed" if worse > 0 else "improved"), worse
    if worse > bound:
        return "regressed", worse
    pairs = [(b, n) for b in base for n in new]
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    ties = sum(1 for b, n in pairs if n == b)
    decided = len(pairs) - ties
    base_spread = (bq3 - bq1) / abs(bmed) if len(base) > 1 else bound
    new_spread = (nq3 - nq1) / abs(nmed) if len(new) > 1 else 0.0
    if decided and wins / decided >= WIN_SHARE and -worse > base_spread:
        return "improved", worse
    if max(base_spread if len(base) > 1 else 0.0, new_spread) > bound:
        return "unresolved", worse
    return "unchanged", worse


def compare(spec: dict, base_docs: list[dict], new_docs: list[dict]) -> list[dict]:
    """One record per pair of workload and end-to-end metric."""
    same_seeds = (sorted(d["seed"] for d in base_docs)
                  == sorted(d["seed"] for d in new_docs))
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for m in spec["end_to_end"]:
            base = _values(base_docs, workload, m["name"])
            new = _values(new_docs, workload, m["name"])
            if not base or not new:
                continue
            exact = EXACT_AT_EQUAL_SEEDS.get(m["name"]) if same_seeds else None
            kind, worse = verdict(base, new, m["bound"], m["better"], exact)
            rows.append({"workload": workload, "metric": m["name"],
                         "unit": m["unit"], "verdict": kind,
                         "worsening": worse, "base": _quartiles(base),
                         "new": _quartiles(new), "runs": (len(base), len(new))})
        failed = sum(d["untraced"][workload]["failed"]
                     for d in new_docs if workload in d["untraced"])
        attempted = sum(d["untraced"][workload]["attempted"]
                        for d in new_docs if workload in d["untraced"])
        if attempted:
            rows.append({"workload": workload, "metric": "fail_frac",
                         "unit": "fraction",
                         "verdict": "regressed" if failed else "unchanged",
                         "worsening": failed / attempted,
                         "base": (0.0, 0.0, 0.0),
                         "new": (failed / attempted,) * 3,
                         "runs": (len(base_docs), len(new_docs))})
    return rows


def _report(rows: list[dict]) -> None:
    metrics = list(dict.fromkeys(r["metric"] for r in rows))
    print(f"{'workload':<16}" + "".join(f"{m:>19}" for m in metrics))
    for workload in dict.fromkeys(r["workload"] for r in rows):
        cells = {r["metric"]: r for r in rows if r["workload"] == workload}
        line = f"{workload:<16}"
        for m in metrics:
            r = cells.get(m)
            cell = "-" if r is None else \
                f"{r['verdict']} {r['worsening']:+.1%}"
            line += f"{cell:>19}"
        print(line)
    print("\n(+ is worse.)  medians [q1, q3]:")
    for r in rows:
        if r["metric"] == "fail_frac":
            continue
        b, n = r["base"], r["new"]
        print(f"  {r['workload']:<15} {r['metric']:<12} "
              f"base {b[1]:.6g} [{b[0]:.6g}, {b[2]:.6g}] n={r['runs'][0]}  "
              f"new {n[1]:.6g} [{n[0]:.6g}, {n[2]:.6g}] n={r['runs'][1]}  "
              f"{r['unit']}  {r['verdict']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", help="A.json B.json")
    parser.add_argument("--base", nargs="+", default=[])
    parser.add_argument("--new", nargs="+", default=[])
    args = parser.parse_args(argv)
    if args.files and len(args.files) == 2 and not (args.base or args.new):
        base, new = args.files[:1], args.files[1:]
    elif args.base and args.new and not args.files:
        base, new = args.base, args.new
    else:
        parser.error("give either A.json B.json, or --base ... --new ...")
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    rows = compare(spec, _load(base), _load(new))
    _report(rows)
    regressed = [r for r in rows if r["verdict"] == "regressed"]
    if regressed:
        print(f"\n{len(regressed)} regression(s): " + ", ".join(
            f"{r['workload']}/{r['metric']}" for r in regressed),
            file=sys.stderr)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
