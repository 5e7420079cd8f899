#!/usr/bin/env python3
"""Compares two benchmark result sets, or reports the spread of one.

    python3 benchmark/compare.py BASE NEW [--benchmark BENCHMARK.json]
    python3 benchmark/compare.py --spread SET
    python3 benchmark/compare.py --selftest

A result set is a directory of fcbench records (benchmark/collect.py
writes them); runs pair up by (workload, seed). For each end-to-end metric
and workload, with bounds from BENCHMARK.json:

  improved     >= 10 pairs, NEW better in >= 9/10 of them (ties count for
               neither), and the medians differ by more than BASE's
               interquartile range
  regressed    NEW's median worse than BASE's by more than the bound
  unresolved   a side's spread (IQR / median) exceeds the bound, unless
               every NEW run reads better than every BASE run
  within       none of the above

setup_s is exempt from the spread test (it is a median of several
set-ups). Exact outputs (objective, costs, Gini, fingerprints, failure
counts) must be bit-equal seed by seed. Per-layer metrics of the traced
records, and the workload-specific layer figures, are flagged when NEW's
median is more than 5% worse. Exit status 1 on a regression, an
unresolved metric or an exact mismatch.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPREAD_EXEMPT = {"setup_s"}
LAYER_FLAG = 0.05


def load_set(path):
    records = {}
    for name in sorted(glob.glob(os.path.join(path, "*.json"))):
        with open(name) as f:
            r = json.load(f)
        records[(r["workload"], int(r["trace"]), int(r["seed"]))] = r
    return records


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def worse_by(base, new, better):
    """Relative change of NEW against BASE, positive when worse."""
    if base == 0:
        return 0.0 if new == 0 else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def verdict(base, new, better, bound, exempt=False):
    wins = sum(1 for a, b in zip(base, new)
               if (b < a if better == "lower" else b > a))
    pairs = min(len(base), len(new))
    q1, med_a, q3 = quartiles(base)
    med_b = statistics.median(new)
    all_better = (max(new) < min(base) if better == "lower"
                  else min(new) > max(base))
    if (pairs >= 10 and wins >= 0.9 * pairs
            and abs(med_b - med_a) > q3 - q1
            and worse_by(med_a, med_b, better) < 0):
        return "improved"
    if not exempt and max(spread(base), spread(new)) > bound:
        return "improved" if all_better else "unresolved"
    if worse_by(med_a, med_b, better) > bound:
        return "regressed"
    return "within"


def metric_values(records, workload, trace, field, name):
    out = {}
    for (w, t, seed), r in records.items():
        if w == workload and t == trace and name in r.get(field, {}):
            out[seed] = r[field][name]["value"]
    return out


def compare(base, new, bench, out=sys.stdout):
    problems = 0
    workloads = sorted({k[0] for k in base} & {k[0] for k in new})
    def cell(q):
        return f"{q[1]:.5g} [{q[0]:.4g}, {q[2]:.4g}]"

    for w in workloads:
        print(f"\n== {w}", file=out)
        print(f"{'metric':<18}{'base median [q1, q3]':>34}"
              f"{'new median [q1, q3]':>34}{'change':>9}{'bound':>7}  verdict",
              file=out)
        for m in bench["end_to_end"]:
            a = metric_values(base, w, 0, "metrics", m["name"])
            b = metric_values(new, w, 0, "metrics", m["name"])
            seeds = sorted(set(a) & set(b))
            if not seeds:
                print(f"{m['name']:<18} missing from the records", file=out)
                problems += 1
                continue
            av = [a[s] for s in seeds]
            bv = [b[s] for s in seeds]
            v = verdict(av, bv, m["better"], m["bound"],
                        m["name"] in SPREAD_EXEMPT)
            problems += v in ("regressed", "unresolved")
            qa, qb = quartiles(av), quartiles(bv)
            change = worse_by(qa[1], qb[1], m["better"])
            print(f"{m['name']:<18}{cell(qa):>34}{cell(qb):>34}"
                  f"{100 * change:>+8.1f}%{100 * m['bound']:>6.0f}%  {v}",
                  file=out)
        problems += check_exact(base, new, w, out)
        flag_layers(base, new, w, bench, out)
    return problems


def check_exact(base, new, workload, out):
    mismatches = 0
    checked = 0
    for key, ra in sorted(base.items()):
        if key[0] != workload or key not in new:
            continue
        rb = new[key]
        pairs = [(n, ra["exact"][n]["value"], rb["exact"].get(n, {}).get("value"))
                 for n in ra["exact"]]
        pairs.append(("fingerprint", ra["fingerprint"], rb["fingerprint"]))
        pairs.append(("failed_ratio", ra["failed"] / max(1, ra["attempted"]),
                      rb["failed"] / max(1, rb["attempted"])))
        for name, x, y in pairs:
            checked += 1
            if x != y:
                mismatches += 1
                print(f"EXACT MISMATCH {name} seed={key[2]} trace={key[1]}: "
                      f"{x!r} vs {y!r}", file=out)
    print(f"exact outputs: {checked - mismatches}/{checked} bit-equal",
          file=out)
    return mismatches


def flag_layers(base, new, workload, bench, out):
    better = {m["name"]: m["better"] for m in bench["per_layer"]}
    for field, trace in (("metrics", 1), ("detail", 0), ("detail", 1)):
        names = sorted({n for (w, t, _), r in base.items()
                        if w == workload and t == trace
                        for n in r.get(field, {})})
        for name in names:
            if field == "metrics" and name not in better:
                continue
            a = list(metric_values(base, workload, trace, field, name).values())
            b = list(metric_values(new, workload, trace, field, name).values())
            if not a or not b:
                continue
            change = worse_by(statistics.median(a), statistics.median(b),
                              better.get(name, "lower"))
            if change > LAYER_FLAG:
                print(f"layer flag: {name} (trace={trace}) "
                      f"{100 * change:+.1f}% worse", file=out)


def report_spread(records, bench, out=sys.stdout):
    problems = 0
    for w in sorted({k[0] for k in records}):
        print(f"\n== {w}", file=out)
        for m in bench["end_to_end"]:
            vals = list(metric_values(records, w, 0, "metrics",
                                      m["name"]).values())
            if not vals:
                continue
            s = spread(vals)
            ok = m["name"] in SPREAD_EXEMPT or s < m["bound"] / 3
            problems += not ok
            print(f"{m['name']:<20} n={len(vals):<3} median={statistics.median(vals):<14.6g}"
                  f" spread={100 * s:6.2f}%  bound/3={100 * m['bound'] / 3:5.2f}%"
                  f"  {'ok' if ok else 'TOO WIDE'}", file=out)
    return problems


def selftest():
    bench = {"end_to_end": [{"name": "t_ms", "unit": "ms", "better": "lower",
                             "bound": 0.1}],
             "per_layer": [{"name": "layer_ms", "unit": "ms",
                            "better": "lower"}]}

    def record(seed, value, exact=1.0, layer=1.0, trace=0):
        metrics = ({"layer_ms": {"value": layer, "unit": "ms"}} if trace
                   else {"t_ms": {"value": value, "unit": "ms"}})
        return {"workload": "w", "seed": seed, "trace": trace,
                "metrics": metrics, "detail": {},
                "exact": {"cost": {"value": exact, "unit": "cost"}},
                "fingerprint": "00", "attempted": 10, "failed": 0}

    def make(values, **kw):
        return {("w", 0, s): record(s, v, **kw) for s, v in enumerate(values)}

    failures = []

    def expect(cond, what):
        if not cond:
            failures.append(what)

    steady = [100 + (i % 3) for i in range(10)]
    expect(verdict(steady, [v + 1 for v in steady], "lower", 0.1) == "within",
           "a 1% change is within a 10% bound")
    expect(verdict(steady, [v * 1.2 for v in steady], "lower", 0.1)
           == "regressed", "a 20% slowdown regresses")
    expect(verdict(steady, [v * 0.8 for v in steady], "lower", 0.1)
           == "improved", "a 20% speed-up on 10/10 pairs improves")
    expect(verdict(steady[:5], [v * 0.8 for v in steady[:5]], "lower", 0.1)
           != "improved", "five pairs are too few to claim a gain")
    noisy = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
    expect(verdict(noisy, noisy[::-1], "lower", 0.1) == "unresolved",
           "a spread wider than the bound is unresolved")
    expect(verdict(noisy, [v * 0.3 for v in noisy], "lower", 0.1)
           == "improved", "every run better resolves a noisy metric")
    expect(verdict(steady, [v * 1.2 for v in steady], "higher", 0.1)
           == "improved", "higher is better for throughput")
    expect(worse_by(100, 90, "higher") > 0, "lower throughput is worse")
    expect(quartiles([1, 2, 3, 4]) == tuple(statistics.quantiles(
        [1, 2, 3, 4], n=4)), "quartiles follow statistics.quantiles")

    sink = open(os.devnull, "w")
    expect(compare(make(steady), make(steady), bench, sink) == 0,
           "identical sets agree")
    expect(compare(make(steady), make(steady, exact=1.0000000000000002),
                   bench, sink) > 0, "a one-ulp exact change is caught")
    base = make(steady)
    base[("w", 1, 0)] = record(0, 0, layer=10.0, trace=1)
    new = make(steady)
    new[("w", 1, 0)] = record(0, 0, layer=10.6, trace=1)
    from io import StringIO
    text = StringIO()
    compare(base, new, bench, text)
    expect("layer flag: layer_ms" in text.getvalue(),
           "a per-layer metric 6% worse is flagged")
    expect(report_spread(make(steady), bench, sink) == 0,
           "a 2% spread passes a 10% bound")
    expect(report_spread(make(noisy), bench, sink) == 1,
           "a 40% spread fails a 10% bound")
    for f in failures:
        print("FAIL", f)
    print("selftest", "passed" if not failures else "FAILED")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("sets", nargs="*")
    ap.add_argument("--benchmark",
                    default=os.path.join(os.path.dirname(HERE),
                                         "BENCHMARK.json"))
    ap.add_argument("--spread", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    with open(args.benchmark) as f:
        bench = json.load(f)
    if args.spread and len(args.sets) == 1:
        return 1 if report_spread(load_set(args.sets[0]), bench) else 0
    if len(args.sets) != 2:
        ap.error("give BASE and NEW, or --spread SET")
    problems = compare(load_set(args.sets[0]), load_set(args.sets[1]), bench)
    print(f"\n{'OK' if problems == 0 else f'{problems} problem(s)'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
