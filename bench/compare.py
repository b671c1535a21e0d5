"""Compare two sets of benchmark results.

    python3 bench/compare.py BASE_DIR NEW_DIR

Each directory holds the result files that bench/run.py writes (``--out``).
For every workload and end-to-end metric it prints each side's median and
quartiles over its runs, the spread (interquartile distance over the
median), the change of the median and whether the two sides agree within
the bound in BENCHMARK.json.  For the traced runs it prints every per-layer
metric side by side; counts are marked when they differ.

Exit status 1 when a metric is worse than its bound, when a side's spread
exceeds the bound (set-up time excepted), or when the share of failed
operations differs; otherwise 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict:
    """{(workload, trace): [result records]}"""
    out: dict = {}
    for path in sorted(directory.glob("*-trace[01].json")):
        rec = json.loads(path.read_text())
        out.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = [load(Path(a)) for a in argv]
    bad = False
    for wl in (w["name"] for w in spec["workloads"]):
        runs = [s.get((wl, 0), []) for s in sides]
        print(f"\n== {wl}: {len(runs[0])} vs {len(runs[1])} runs")
        if all(runs):
            shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                      for rs in runs]
            print(f"   failed share {shares[0]:.6g} vs {shares[1]:.6g}")
            bad |= shares[0] != shares[1]
            print(f"   {'metric':<14}{'base q1/med/q3':>34}{'new q1/med/q3':>34}"
                  f"{'spread':>16}{'change':>9}  verdict")
            for m in spec["end_to_end"]:
                name, bound = m["name"], m["bound"]
                stats = [quartiles([r["metrics"][name] for r in rs]) for rs in runs]
                spreads = [(q3 - q1) / med for q1, med, q3 in stats]
                change = stats[1][1] / stats[0][1] - 1
                worse = change if m["better"] == "lower" else -change
                verdict = ("agree" if abs(change) <= bound
                           else "WORSE" if worse > 0 else "better")
                noisy = name != "setup_s" and max(spreads) > bound
                if noisy:
                    verdict += " (spread above bound)"
                bad |= verdict.startswith("WORSE") or noisy
                cols = ["/".join(f"{v:.4g}" for v in s) for s in stats]
                print(f"   {name:<14}{cols[0]:>34}{cols[1]:>34}"
                      f"{spreads[0]:>8.3f}{spreads[1]:>8.3f}{change:>+9.3f}"
                      f"  {verdict} (bound {bound})")
        traced = [s.get((wl, 1), []) for s in sides]
        if all(traced):
            print(f"   per layer ({len(traced[0])} vs {len(traced[1])} traced runs)")
            for m in spec["per_layer"]:
                name = m["name"]
                vals = [[r["metrics"][name] for r in rs] for rs in traced]
                if m["unit"] in ("count", "ratio"):
                    cells = [",".join(f"{v:.6g}" for v in sorted(set(v))) for v in vals]
                    mark = "" if set(vals[0]) == set(vals[1]) else "  differs"
                else:
                    cells = [f"{statistics.median(v):.4g}" for v in vals]
                    mark = ""
                print(f"   {name:<34}{cells[0]:>20}{cells[1]:>20} {m['unit']}{mark}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
