"""Run the benchmark on several seeds and summarize every metric.

    python3 bench/baseline.py --seeds 1-10 --trace 0 --out bench/baseline.json

Seeds are the outer loop and workloads the inner one, so a slow spell of
the machine touches every workload alike. For each workload and metric
the summary holds the values, their median and quartiles, and the spread
``(q3 - q1) / median`` that BENCHMARK.json's bounds are checked against.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import ROOT, SPEC_PATH, machine_info, quartiles, read_json


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"), help="e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args(argv)
    spec = read_json(SPEC_PATH)
    values: dict[str, dict[str, list[float]]] = {w["name"]: {} for w in spec["workloads"]}
    failures = []
    for seed in args.seeds:
        for workload in values:
            cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                failures.append({"workload": workload, "seed": seed, "exit": proc.returncode,
                                 "stderr": proc.stderr[-2000:], "result": result})
                print(f"{workload} seed {seed}: FAILED", flush=True)
                continue
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.4g}" for n, m in list(result["metrics"].items())[:4]), flush=True)
    summary = {}
    for workload, metrics in values.items():
        summary[workload] = {}
        for name, vals in metrics.items():
            stats = quartiles(vals)
            median = stats["median"]
            spread = (stats["q3"] - stats["q1"]) / abs(median) if median and "q1" in stats else 0.0
            summary[workload][name] = stats | {"spread": spread, "values": vals}
            print(f"{workload:<20} {name:<48} median {median:<12.6g} spread {spread:.4f}")
    record = {"seeds": args.seeds, "trace": args.trace, "run_seconds": spec["run_seconds"],
              "machine": machine_info(), "failures": failures, "workloads": summary}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
