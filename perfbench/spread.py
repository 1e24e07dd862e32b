"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads closed_forms,cli_cold]
                                [--out spread.json]

For every workload and metric it prints the median and the spread, the
distance between the first and third quartile (``statistics.quantiles`` with
n=4) as a share of the median, next to the metric's bound in BENCHMARK.json.
Runs go one at a time, from the root of the checkout, with the benchmark's
own ``run_seconds``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int) -> dict:
    proc = subprocess.run(SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                                             "--seconds", str(SPEC["run_seconds"]),
                                             "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    ap.add_argument("--out", help="write the summary as JSON here")
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in SPEC["end_to_end"]}
    report = {}
    for workload in args.workloads.split(","):
        results = [run_once(workload, s) for s in seeds(args.seeds)]
        runs = {"attempted": [r["attempted"] for r in results],
                "failed": [r["failed"] for r in results],
                "correct": all(r["correct"] for r in results)}
        metrics = {name: summarize([r["metrics"][name]["value"] for r in results])
                   for name in results[0]["metrics"]}
        report[workload] = {"runs": runs, "metrics": metrics}
        print(f"{workload}: correct={runs['correct']} attempted={runs['attempted']} "
              f"failed={runs['failed']}")
        for name, m in metrics.items():
            bound = bounds.get(name)
            print(f"  {name:28s} median={m['median']:.6g} spread={m['spread']:.4f}"
                  + (f" bound={bound} ({m['spread'] / bound:.2f} of it)" if bound else ""))
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
