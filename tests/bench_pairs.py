"""Alternating parent/change runs of perfbench, summarised into a BENCH_<n>.json file.

    python tests/bench_pairs.py --parent DIR --change DIR --out BENCH_<n>.json --seed S

DIR is a checkout of each side (made with git archive, say), holding src/
and perfbench/. S must be a seed not used while writing the change. For each
workload that BENCHMARK.json lists, the script runs ten pairs of

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

with T the run_seconds of BENCHMARK.json, one run at a time, in each side's
directory: odd pairs parent first, even pairs change first. Every run's
end-to-end metrics are kept under "runs". Per metric, "summary" gives the
parent's quartiles, the change's median, min and max, the ratio of the
medians, the pairs in which the change is better (by the direction
BENCHMARK.json gives), the gap between the medians and the parent's
interquartile range. Then each side runs the workload once with --trace 1 at
seed 11; "traced" keeps both results, with the printed tsv_sha256, and says
whether the digests and every count metric other than src.lines are equal.

Only "untraced" and "traced" are written; any other keys of an existing
output file are kept. A BENCH file also holds hand-written keys (title,
claim, verdict) that read the figures, and a re-run refreshes the figures
without erasing them. pytest does not collect this file, and it imports
nothing from perfbench.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10
TRACED_SEED = 11


def run(side_dir: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run: its JSON result, plus the tsv_sha256 it printed."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=side_dir, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = re.search(r"tsv_sha256=([0-9a-f]+)", done.stdout)
    result["tsv_sha256"] = digest.group(1) if digest else None
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarise(pairs: list[dict], better: dict[str, str]) -> dict:
    summary = {}
    for name, direction in better.items():
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        q1, median, q3 = quartiles(parent)
        wins = sum((c < p) if direction == "lower" else (c > p) for p, c in zip(parent, change))
        summary[name] = {
            "parent": {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)},
            "change": {"median": round(statistics.median(change), 4),
                       "min": round(min(change), 4), "max": round(max(change), 4)},
            "ratio": round(statistics.median(change) / median, 4),
            "change_better_pairs": f"{wins}/{len(pairs)}",
            "median_gap": round(abs(statistics.median(change) - median), 4),
            "parent_iqr": round(q3 - q1, 4),
        }
    return summary


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count" and m["name"] != "src.lines"]
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads(args.out.read_text()) if args.out.exists() else {}

    untraced = {
        "command": f"python3 perfbench/run.py --workload W --seed {args.seed} --seconds {seconds:g} --trace 0",
        "note": "alternating pairs, odd pairs parent first, even pairs change first, one run at a time",
        "workloads": {},
    }
    for workload in workloads:
        pairs = []
        for pair in range(1, PAIRS + 1):
            order = SIDES if pair % 2 else SIDES[::-1]
            results = {side: run(dirs[side], workload, args.seed, seconds, 0) for side in order}
            pairs.append({"pair": pair, "first": order[0], "results": results})
            values = {side: r["metrics"]["op_rel.p50"]["value"] for side, r in results.items()}
            print(f"{workload} pair {pair}: op_rel.p50 parent {values['parent']:.4f} "
                  f"change {values['change']:.4f}", flush=True)
        runs = [{"pair": p["pair"], "first": p["first"],
                 **{side: {k: round(v["value"], 4) for k, v in p["results"][side]["metrics"].items()}
                    for side in SIDES}} for p in pairs]
        untraced["workloads"][workload] = {
            "pairs": len(pairs),
            "all_correct": all(r["correct"] for p in pairs for r in p["results"].values()),
            "failed_ops": {side: sum(p["results"][side]["failed"] for p in pairs) for side in SIDES},
            "summary": summarise(runs, better),
            "runs": runs,
        }

    traced = {
        "command": f"python3 perfbench/run.py --workload W --seed {TRACED_SEED} --seconds 10 --trace 1",
        "note": "one run a side on each workload",
        "workloads": {},
    }
    for workload in workloads:
        results = {side: run(dirs[side], workload, TRACED_SEED, 10, 1) for side in SIDES}
        metrics = {side: {k: v["value"] for k, v in r["metrics"].items()} for side, r in results.items()}
        traced["workloads"][workload] = {
            "tsv_sha256_equal": results["parent"]["tsv_sha256"] == results["change"]["tsv_sha256"],
            "counts_equal": all(metrics["parent"][k] == metrics["change"][k] for k in counts),
            **{side: {"correct": results[side]["correct"], "tsv_sha256": results[side]["tsv_sha256"],
                      "metrics": metrics[side]} for side in SIDES},
        }
        same = traced["workloads"][workload]
        print(f"{workload} traced: tsv_sha256 equal {same['tsv_sha256_equal']}, "
              f"counts equal {same['counts_equal']}", flush=True)

    bench.update(untraced=untraced, traced=traced)
    args.out.write_text(json.dumps(bench, indent=1) + "\n")


if __name__ == "__main__":
    main()
