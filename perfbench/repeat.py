"""Repeat benchmark runs over seeds and report each metric's median and spread.

    python3 perfbench/repeat.py --workload grid-serial --seeds 1-10 [--trace 1] [--json out.json]

Runs `perfbench/run.py` once per seed, one run at a time, with the
run_seconds of BENCHMARK.json. For every metric it prints the median, the
quartiles (statistics.quantiles, n=4) and the quartile distance as a share
of the median next to a third of the metric's bound. Exits 1 if any run
failed.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from metrics import spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="write the per-seed values and spreads here")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    values: dict[str, list] = {}
    failed = []
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else {}
        if proc.returncode != 0 or not result.get("correct"):
            failed.append(seed)
            print(f"seed {seed}: FAILED (exit {proc.returncode})\n{proc.stderr[-2000:]}", file=sys.stderr)
            continue
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={m['value']:.5g}" for n, m in result["metrics"].items()),
              flush=True)

    summary = {}
    for name, vals in values.items():
        s = spread(vals)
        summary[name] = {**s, "values": vals}
        bound = bounds.get(name)
        verdict = "" if bound is None else (
            f"  bound/3 {bound / 3:.4f} {'ok' if s['iqr_share'] < bound / 3 else 'WIDE'}"
        )
        print(f"{name:32s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
              f"iqr/median {s['iqr_share']:.4f}{verdict}")
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"workload": args.workload, "seeds": args.seeds, "failed": failed,
             "trace": args.trace, "metrics": summary}, indent=1))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
