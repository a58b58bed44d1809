"""Compare two sets of repeated runs against the benchmark's bounds.

``python3 bench/compare.py A.json B.json`` reads two summaries written
by ``bench/run.py --repeat N --out FILE`` (A the baseline, B the
candidate) and reports, for every (workload, end-to-end metric) pair:

* ``agree`` — B's median is within the metric's bound of A's;
* ``regressed`` — B's median is worse than A's by more than the bound;
* ``improved`` — B's median is better than A's by more than the bound;
* ``unresolved`` — either side's spread (interquartile range over
  median) exceeds the bound, so the runs cannot tell, unless every run
  of B reads better than every run of A (then ``improved``).

Exits 1 when anything regressed or is unresolved, else 0.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench import harness  # noqa: E402


def verdict(base: Dict[str, Any], cand: Dict[str, Any], bound: float,
            better: str) -> str:
    """One (workload, metric) verdict; see the module docstring."""
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (cand["median"] - base["median"]) / base["median"]
    if max(base["iqr_share"], cand["iqr_share"]) > bound:
        if better == "lower":
            clear = max(cand["values"]) < min(base["values"])
        else:
            clear = min(cand["values"]) > max(base["values"])
        return "improved" if clear else "unresolved"
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "agree"


def compare(base: Dict[str, Any], cand: Dict[str, Any]
            ) -> List[Dict[str, Any]]:
    rows = []
    for metric in harness.benchmark_spec()["end_to_end"]:
        for workload in harness.WORKLOADS:
            if workload not in base or workload not in cand:
                continue
            a = base[workload]["metrics"][metric["name"]]
            b = cand[workload]["metrics"][metric["name"]]
            rows.append({
                "workload": workload, "metric": metric["name"],
                "unit": metric["unit"], "bound": metric["bound"],
                "base": a["median"], "cand": b["median"],
                "change": (b["median"] - a["median"]) / a["median"],
                "spread": max(a["iqr_share"], b["iqr_share"]),
                "verdict": verdict(a, b, metric["bound"],
                                   metric["better"]),
            })
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python3 bench/compare.py BASE.json CANDIDATE.json",
              file=sys.stderr)
        return 2
    rows = compare(harness.read_json(Path(args[0])),
                   harness.read_json(Path(args[1])))
    print(f"{'workload':<14} {'metric':<17} {'base':>11} {'cand':>11} "
          f"{'change':>8} {'spread':>7} {'bound':>6}  verdict")
    for row in rows:
        print(f"{row['workload']:<14} {row['metric']:<17} "
              f"{row['base']:>11.4f} {row['cand']:>11.4f} "
              f"{row['change']:>+8.2%} {row['spread']:>7.2%} "
              f"{row['bound']:>6.0%}  {row['verdict']}")
    bad = [r for r in rows if r["verdict"] in ("regressed", "unresolved")]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
