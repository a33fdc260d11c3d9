"""Run the benchmark over several seeds and report, per workload and metric,
the median, the quartiles and the spread (quartile distance over median).

    python3 perfbench/steady.py --seeds 1-10            # every workload
    python3 perfbench/steady.py --workloads ring-batch --seeds 1-5
    python3 perfbench/steady.py --seeds 3x3 --trace 1   # seed 3, three times

``--seeds 3x3`` repeats one seed, which shows whether counts that should be
deterministic repeat exactly. Quartiles follow ``statistics.quantiles``
with its default method. Results are also written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "x" in text:
        seed, times = text.split("x")
        return [int(seed)] * int(times)
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    report: dict = {}
    for workload in args.workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=600, cwd=ROOT,
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}"
                  f"/{result['attempted']}", flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                             "unit": runs[0]["metrics"][name]["unit"], "values": values}
            bound = bounds.get(name)
            note = "" if bound is None else f"  bound {bound}  spread/bound {spread / bound:.2f}"
            print(f"  {name:30s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:.4f}{note}")
        report[workload] = {"runs": runs, "summary": summary}
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
