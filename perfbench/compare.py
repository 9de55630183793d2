"""Compare two sets of benchmark results metric by metric.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the lines ``run.py --out FILE`` appends, one per run (run the
same seeds on both sides). For every workload and end-to-end metric in
``BENCHMARK.json`` this prints the median of each side's runs, the change as a
share of the parent's median, the run-to-run spread (distance between the
quartiles as a share of the median, the wider of the two sides) and a verdict:

* ``better``: every change run beats every parent run;
* ``regressed``: otherwise, if the change's median is worse than the parent's
  by more than the metric's bound;
* ``unresolved``: otherwise, if the spread is wider than the bound, so "no
  change" cannot be told from a change;
* ``unchanged``: otherwise.

Exits with 1 when any metric regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> one value per untraced run."""
    out: dict[str, dict[str, list[float]]] = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        row = json.loads(line)
        if row.get("trace"):
            continue
        metrics = out.setdefault(row["workload"], {})
        for name, entry in row["metrics"].items():
            metrics.setdefault(name, []).append(entry["value"])
    return out


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("inf")
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def verdict(parent: list[float], change: list[float], better: str, bound: float):
    sign = 1 if better == "lower" else -1
    p_med, c_med = statistics.median(parent), statistics.median(change)
    worse_by = sign * (c_med - p_med) / abs(p_med)
    width = max(spread(parent), spread(change))
    all_better = all(sign * c < sign * p for c in change for p in parent)
    if all_better:
        status = "better"
    elif worse_by > bound:
        status = "regressed"
    elif width > bound:
        status = "unresolved"
    else:
        status = "unchanged"
    return p_med, c_med, (c_med - p_med) / abs(p_med), width, status


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    parent, change = load(argv[0]), load(argv[1])
    regressed = False
    print(f"{'workload':<18} {'metric':<24} {'parent':>11} {'change':>11} {'delta':>8} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for workload in sorted(set(parent) & set(change)):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in parent[workload] or name not in change[workload]:
                continue
            p_med, c_med, delta, width, status = verdict(
                parent[workload][name], change[workload][name], metric["better"], metric["bound"])
            regressed |= status == "regressed"
            print(f"{workload:<18} {name:<24} {p_med:>11.4f} {c_med:>11.4f} {100 * delta:>7.2f}% "
                  f"{100 * width:>6.2f}% {100 * metric['bound']:>5.1f}%  {status}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
