"""Repeat the benchmark over several seeds and report how steady each metric is.

    python3 perfbench/steady.py --workload rotation --seeds 1-10 [--record]

Each run is `run.py --workload W --seed S --seconds <run_seconds>` with
run_seconds from BENCHMARK.json.  For every end-to-end metric it prints
the median, the quartiles as statistics.quantiles(values, n=4) gives them,
and the spread (q3 - q1) / median next to the metric's bound, and how
much worse each median is than the last recorded set's.  --record
appends the figures to steadiness.json, the evidence behind the bounds.
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
RECORD = HERE / "steadiness.json"


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "bound": bound, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--record", action="store_true", help="write the figures to steadiness.json")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    runs = []
    raw_runs = []
    environment = None
    for seed in seed_list(args.seeds):
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                              cwd=ROOT, capture_output=True, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        environment, details = (json.loads(lines[-2])[k] for k in ("environment", "details"))
        raw_runs.append(details["raw"])
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(proc.stderr, file=sys.stderr)
        runs.append(result)
        print(f"seed {seed}: " + "  ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)

    record = json.loads(RECORD.read_text()) if RECORD.is_file() else {}
    previous = record.get(args.workload, [])
    figures = {}
    for metric in bench["end_to_end"]:
        name = metric["name"]
        figures[name] = f = summarise([r["metrics"][name]["value"] for r in runs], metric["bound"])
        line = (f"{name:16s} median {f['median']:.5g}  q1 {f['q1']:.5g}  q3 {f['q3']:.5g}  "
                f"spread {f['spread']:.3f}  bound {f['bound']}  "
                f"{'ok' if f['spread'] < f['bound'] / 3 else 'WIDE'}")
        if previous:
            # How much worse this set's median is than the last recorded set's.
            before = previous[-1]["metrics"][name]["median"]
            worse = (before - f["median"]) / before if metric["better"] == "higher" else \
                (f["median"] - before) / before
            line += f"  worse than last set by {worse:+.3f}"
        print(line)
    # The same figures before host scaling, to show what the scaling buys.
    raw = {name: summarise([r[name] for r in raw_runs], None)
           for name in ("setup_s", "jobs_per_s", "latency_p50_ms", "latency_tail_ms")}
    print("unscaled spreads: " + "  ".join(f"{k} {v['spread']:.3f}" for k, v in raw.items()))
    if args.record:
        environment.pop("seed")
        record[args.workload] = previous + [{
            "seeds": args.seeds,
            "run_seconds": seconds,
            "correct": all(r["correct"] for r in runs),
            "environment": environment,
            "metrics": figures,
            "unscaled": raw,
        }]
        RECORD.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
