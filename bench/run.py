"""netctrl benchmark: one workload, one seed, one measurement window.

    python3 bench/run.py --workload sample-er10k --seed 1 --seconds 30 --trace 0

Run from anywhere; the source tree measured is the one holding this file
(``src/netctrl`` beside ``bench/``). The workloads are in ``workloads.py``
and the metric names, units, directions and bounds in ``BENCHMARK.json``.

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``setup_s``: a fresh interpreter imports netctrl and reads the input
  with ``read_edge_list``.
* ``wall_s``: the ``netctrl.cli.main(argv)`` call, report included.
* ``samples_per_s``: maximum matchings computed per second of ``wall_s``
  (sampled matchings for ``sample`` and ``sweep-r``, the one incremental
  matching for ``preferential``).
* ``peak_rss_mb``: the child's ``ru_maxrss`` after its first command, in
  MiB.

The run writes three inputs from the seed and is a series of rounds, one
child interpreter (``child.py``) at a time, single-threaded, until the
window is spent. A round takes the next input. It runs a few set-ups,
each in a fresh child, then one batch: a fresh child that runs the
command once to warm up and then times it several times. Each set-up and
each timed command is bracketed by runs of the fixed reference kernel of
``reference.py``.

Other tenants of a shared virtual machine slow every command by up to 2x,
in spells of seconds to minutes, and no estimator over raw times held
still across runs. So each time is divided by the mean of the kernel
times on either side of it and scaled by the kernel's nominal time
``REF_S``. ``wall_s`` is the mean over the inputs of each input's median
of ``wall / kernel * REF_S``, and ``setup_s`` likewise for the set-ups.
The mean over inputs is there because on one input the command's cost
moved by 15% from seed to seed. Both read in seconds on the machine
``REF_S`` was taken on, at its median speed there. The raw times, the
kernel times and their medians and quartiles are kept in the result file
and printed beside the metrics. ``peak_rss_mb`` is the median over
batches. Every report is checked (``workloads.py``), and the reports of
one run on one input must be byte-identical. ``failed`` counts the
commands that broke a check and ``error_rate`` is ``failed / attempted``.

``--trace 1`` uses the first input only and alternates untraced and
traced commands, each in its own child. A traced command
has netctrl's public functions wrapped by ``tracer.py``; its spans give the
per-layer metrics (medians over the traced commands), and
``trace.overhead_frac`` is the median, over adjacent untraced/traced
pairs, of traced ``wall_s`` over untraced ``wall_s``, minus 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The machine,
software versions, raw per-command values and the top self-time spans go
to ``.bench_work/results/BENCH_<workload>_seed<seed>_trace<t>.json``.
Inputs and reports are written under ``.bench_work/`` and removed after
the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import tracer
from reference import REF_S, SETUP_KERNELS, Reference
from workloads import WORKLOADS, EdgeList, ReportChecker

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
PACKAGE = ROOT / "src" / "netctrl"
INPUTS_PER_RUN = 3    # --trace 0 rounds take turns over this many inputs of the seed
BATCHES_PER_RUN = 4   # a --trace 0 batch times commands for 1/4 of the window
SETUPS_PER_BATCH = 3  # set-ups in each round
MIN_TRACED_PAIRS = 2  # untraced/traced pairs per --trace 1 run
CHILD_TIMEOUT_S = 60  # a batch takes about 10 s; a hung child must not run the run past 180 s
CHILD_ENV = {
    # numpy's BLAS pools stay single-threaded, and every child hashes strings
    # the same way
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("NETCTRL_") and k != "PYTHONPATH"}
    env.update(CHILD_ENV)
    return env


def run_child(args: list[str]) -> tuple[float, bool, str]:
    """Run child.py; return its start time, whether it ended, and an error text."""
    cmd = [sys.executable, str(ROOT / "bench" / "child.py")] + args
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return started, False, f"timed out after {CHILD_TIMEOUT_S} s"
    error = "" if proc.returncode == 0 else f"child exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    return started, True, error


def read_json(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def generate_input(spec: str, seed: int, path: Path) -> None:
    """Write the workload input with netctrl's own ``generate`` command."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from netctrl import cli

    rc = cli.main(["generate", "--gen", spec, "--seed", str(seed), "--out", str(path)])
    if rc != 0:
        raise HarnessError(f"netctrl generate --gen {spec} --seed {seed} exited {rc}")


def measure_setup(ref: Reference, inp: EdgeList, input_rel: str, work: Path) -> tuple[float, float]:
    """One set-up in a fresh child; return its time and its kernel ratio."""
    result = work / "setup.json"
    before = ref.time(SETUP_KERNELS)
    started, _, error = run_child(["setup", str(ROOT), input_rel, str(result)])
    if error:
        raise HarnessError(f"set-up child failed: {error}")
    payload = read_json(result)
    if payload["nodes"] != inp.nodes:
        raise HarnessError(f"read_edge_list gave {payload['nodes']} nodes, input has {inp.nodes}")
    setup_s = payload["ready"] - started
    return setup_s, setup_s / statistics.fmean([before, payload["kernel_s"]])


@dataclass
class Command:
    """One invocation of the workload's CLI command in a child interpreter."""

    traced: bool
    input: int             # which of the run's inputs
    errors: list[str]
    measured: dict | None  # rc and wall_s; peak_rss_mb and kernel ratio where measured
    report: bytes | None
    spans: dict | None     # the tracer's dump, for a traced command


def check_command(command: Command, workload, checker: ReportChecker, inp: EdgeList) -> Command:
    if command.measured is not None and command.measured["rc"] != 0:
        command.errors.append(f"netctrl exited {command.measured['rc']}")
    if command.report is None:
        command.errors.append("no report written")
    elif not command.errors:
        try:
            command.errors += workload.check(checker, command.report.decode("utf-8"), inp)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            command.errors.append(f"report does not have the expected shape: {exc!r}")
    return command


def run_command(index: int, traced: bool, work: Path, workload, inp, input_rel: str, seed: int,
                checker: ReportChecker) -> Command:
    """One command alone in a child, traced or not (``--trace 1``)."""
    out = work / f"report-{index}.txt"
    result = work / f"result-{index}.json"
    trace = work / f"trace-{index}.json"
    argv = workload.argv(input_rel, seed, str(out.relative_to(ROOT)), inp)
    _, ended, error = run_child(["run", str(ROOT), str(result), str(trace) if traced else "-"] + argv)
    command = Command(
        traced=traced,
        input=0,
        errors=[error] if error else [],
        measured=read_json(result) if ended and result.exists() else None,
        report=out.read_bytes() if out.exists() else None,
        spans=read_json(trace) if traced and trace.exists() else None,
    )
    return check_command(command, workload, checker, inp)


@dataclass
class Batch:
    """What one ``child.py batch`` measured; times are in seconds."""

    peak_rss_mb: float
    kernel_s: list[float]  # kernel timings; command i sits between i and i + 1


def run_batch(index: int, seconds: float, work: Path, workload, inputs: list[tuple[EdgeList, str]], which: int,
              seed: int, checker: ReportChecker, commands: list[Command]) -> Batch | None:
    """One batch child (``--trace 0``); its commands go to ``commands``.

    ``which`` picks the input from ``inputs``, a list of (parsed input,
    path relative to the root). Returns None when the child failed, after
    adding a failed command.
    """
    inp, input_rel = inputs[which]
    result = work / f"batch-{index}.json"
    out = work / f"report-{index}-{{i}}.txt"
    argv = workload.argv(input_rel, seed, str(out.relative_to(ROOT)), inp)
    _, ended, error = run_child(["batch", str(ROOT), str(result), f"{seconds:.3f}"] + argv)
    if error or not ended or not result.exists():
        commands.append(Command(traced=False, input=which, errors=[error or "batch wrote no result"],
                                measured=None, report=None, spans=None))
        return None
    m = read_json(result)
    kernels = m["kernel_s"]
    for i, rc in enumerate(m["rc"]):
        if i == 0:  # the warm-up command: checked, not timed
            measured = {"rc": rc, "wall_s": m["warm_wall_s"]}
        else:
            wall = m["wall_s"][i - 1]
            measured = {"rc": rc, "wall_s": wall, "ratio": wall / statistics.fmean(kernels[i - 1:i + 1])}
        path = Path(out.as_posix().replace("{i}", str(i)))
        report = path.read_bytes() if path.exists() else None
        command = Command(traced=False, input=which, errors=[], measured=measured, report=report, spans=None)
        commands.append(check_command(command, workload, checker, inp))
    return Batch(peak_rss_mb=m["peak_rss_mb"], kernel_s=kernels)


def repeat(window_end: float, minimum: int, body) -> None:
    """Call ``body`` until the window is spent, at least ``minimum`` times.

    After the minimum, a round starts only when the last round's length
    still fits in the window.
    """
    rounds = 0
    while True:
        round_start = time.perf_counter()
        body()
        rounds += 1
        now = time.perf_counter()
        if rounds >= minimum and now + (now - round_start) > window_end:
            return


def check_identical(commands: list[Command]) -> None:
    """Reports of one seed and input must be byte-identical across commands."""
    first: dict[int, bytes] = {}
    for c in commands:
        if c.report is None:
            continue
        reference = first.setdefault(c.input, c.report)
        if c.report != reference and not c.errors:
            c.errors.append("report bytes differ from the first report on the same input")


def mean_over_inputs(values: list[tuple[int, float]]) -> float:
    """The mean over inputs of each input's median of ``(input, value)``."""
    by_input: dict[int, list[float]] = {}
    for which, value in values:
        by_input.setdefault(which, []).append(value)
    return statistics.fmean(statistics.median(v) for v in by_input.values())


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"n": len(values), "median": values[0] if values else None}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3}


def layer_values(dump: dict) -> dict[str, float]:
    """Per-layer metric candidates from one traced command's span dump."""
    summary = tracer.summarize(dump["spans"])
    values: dict[str, float] = {}
    for name in dump["wrapped"]:
        entry = summary.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for key, value in entry.items():
            values[f"{name}.{key}"] = float(value)
    for layer, self_s in tracer.layer_self_times(summary).items():
        values[f"{layer}.self_s"] = self_s
    counters = dump["counters"]

    def ratio(num: str, den: str) -> float:
        return counters.get(num, 0.0) / counters[den] if counters.get(den) else 0.0

    for name in ("generators.reversed_edges", "generators.skipped_flips",
                 "matching.augmentations", "mds.samples", "cli.report_bytes"):
        values[name] = float(counters.get(name, 0.0))
    values["matching.admission_growth_ratio"] = ratio("matching.admissions_grown", "matching.admissions")
    values["mds.distinct_ratio"] = ratio("mds.distinct_sets", "mds.deduped_samples")
    return values


def machine_info() -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(PACKAGE)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def parse_args(argv, spec: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def bench(args, spec: dict, work: Path) -> tuple[dict, list[str], dict]:
    """Run one measurement; return the result line, text lines, record."""
    workload = WORKLOADS[args.workload]
    inputs: list[tuple[EdgeList, str]] = []
    for which in range(INPUTS_PER_RUN if args.trace == 0 else 1):
        path = work / f"input-{which}.txt"
        generate_input(workload.gen, args.seed * INPUTS_PER_RUN + which, path)
        inputs.append((EdgeList.load(path), str(path.relative_to(ROOT))))
    inp, input_rel = inputs[0]
    checker = ReportChecker(PACKAGE / "report_schema.json")
    window_end = time.perf_counter() + args.seconds

    commands: list[Command] = []

    def command(traced: bool) -> None:
        commands.append(run_command(len(commands), traced, work, workload, inp, input_rel, args.seed, checker))

    lines = [f"workload {workload.name}: netctrl {' '.join(workload.argv(input_rel, args.seed, 'OUT', inp))}"]
    lines += [f"input {which}: N={i.nodes} L={i.edges} oracle matching number {i.matching_number}"
              for which, (i, _) in enumerate(inputs)]
    record: dict = {"workload": workload.name, "inputs": [
        {"nodes": i.nodes, "edges": i.edges, "matching_number": i.matching_number} for i, _ in inputs]}
    if args.trace == 0:
        ref = Reference()
        batches: list[Batch] = []
        setups: list[tuple[int, float, float]] = []  # input, time, kernel ratio
        batch_seconds = args.seconds / BATCHES_PER_RUN

        def round_() -> None:
            which = len(batches) % len(inputs)
            setups.extend((which, *measure_setup(ref, *inputs[which], work)) for _ in range(SETUPS_PER_BATCH))
            done = run_batch(len(batches), batch_seconds, work, workload, inputs, which, args.seed, checker,
                             commands)
            if done is None:
                raise HarnessError("batch child failed: " + "; ".join(commands[-1].errors))
            batches.append(done)

        repeat(window_end, INPUTS_PER_RUN, round_)  # every input gets a round
        check_identical(commands)
        timed = [c for c in commands if c.measured and "ratio" in c.measured and c.measured["rc"] == 0]
        if not timed:
            raise HarnessError("no command completed: " + "; ".join(commands[0].errors))
        wall_s = mean_over_inputs([(c.input, c.measured["ratio"]) for c in timed]) * REF_S
        candidates = {
            "wall_s": wall_s,
            "samples_per_s": workload.matchings / wall_s,
            "setup_s": mean_over_inputs([(which, ratio) for which, _, ratio in setups]) * REF_S,
            "peak_rss_mb": statistics.median(b.peak_rss_mb for b in batches),
        }
        wanted = spec["end_to_end"]
        raw = {
            "wall_ratio": [c.measured["ratio"] for c in timed],
            "setup_ratio": [ratio for _, _, ratio in setups],
            "wall_s": [c.measured["wall_s"] for c in timed],
            "setup_s": [setup_s for _, setup_s, _ in setups],
            "kernel_s": [k for b in batches for k in b.kernel_s],
            "peak_rss_mb": [b.peak_rss_mb for b in batches],
        }
        record["raw"] = {name: quartiles(values) | {"values": values} for name, values in raw.items()}
        record["raw"]["input"] = {"wall": [c.input for c in timed], "setup": [which for which, _, _ in setups]}
        lines.append(f"{len(batches)} batches, {len(timed)} timed commands, {len(setups)} set-ups; raw medians: wall "
                     f"{record['raw']['wall_s']['median']:.4g} s, set-up {record['raw']['setup_s']['median']:.4g} s, "
                     f"kernel {record['raw']['kernel_s']['median']:.4g} s (REF_S {REF_S} s)")
    else:
        repeat(window_end, MIN_TRACED_PAIRS, lambda: (command(False), command(True)))
        check_identical(commands)
        plain = [c.measured["wall_s"] for c in commands if not c.traced and c.measured and c.measured["rc"] == 0]
        traced = [c for c in commands if c.traced and c.spans is not None and not c.errors]
        if not plain or not traced:
            raise HarnessError("no traced/untraced pair completed: " + "; ".join(commands[0].errors))
        per_command = [layer_values(c.spans) for c in traced]
        candidates = {name: statistics.median(v[name] for v in per_command) for name in per_command[0]}
        # each traced command runs right after an untraced one, so the pair
        # shares the machine's state of the moment
        ratios = [t.measured["wall_s"] / u.measured["wall_s"]
                  for u, t in zip(commands[::2], commands[1::2])
                  if u.measured and t.measured and u.measured["rc"] == t.measured["rc"] == 0]
        candidates["trace.overhead_frac"] = statistics.median(ratios) - 1.0
        wanted = spec["per_layer"]
        top = sorted(
            ([name, candidates[f"{name}.self_s"]] for name in traced[0].spans["wrapped"]),
            key=lambda item: -item[1],
        )[:5]
        missing = traced[0].spans["missing"]
        record.update(top_self_spans=top, missing_targets=missing,
                      wall_s={"untraced": plain, "traced": [c.measured["wall_s"] for c in traced]})
        lines.append("top self-time spans: " + ", ".join(f"{n} {t:.3f} s" for n, t in top[:3]))
        if missing:
            lines.append("not traced (absent from this source tree): " + ", ".join(missing))
    unknown = [m["name"] for m in wanted if m["name"] not in candidates]
    if unknown:
        raise HarnessError(f"BENCHMARK.json names metrics this run does not produce: {unknown}")
    metrics = {m["name"]: {"value": candidates[m["name"]], "unit": m["unit"]} for m in wanted}
    failed = sum(1 for c in commands if c.errors)
    errors = sorted({e for c in commands for e in c.errors})
    result = {"correct": failed == 0, "attempted": len(commands), "failed": failed, "metrics": metrics}
    lines.append(f"{len(commands)} commands, {failed} failed a check")
    lines += [f"  check failed: {e}" for e in errors[:10]]
    lines += [f"  {name:<48} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines.append(f"  {'error_rate':<48} {failed / len(commands):.6g} fraction")
    record.update(result=result, errors=errors,
                  commands=[{"traced": c.traced, "measured": c.measured, "errors": c.errors} for c in commands])
    return result, lines, record


def _terminate(signum, frame):
    # unwinding through subprocess.run kills and reaps the running child
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    try:
        spec = read_json(SPEC_PATH)
    except (OSError, ValueError) as exc:
        print(f"bench: cannot read {SPEC_PATH}: {exc}", file=sys.stderr)
        return 2
    args = parse_args(argv, spec)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"bench: no netctrl source tree at {PACKAGE}", file=sys.stderr)
        return 2
    base = ROOT / ".bench_work"
    (base / "results").mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    try:
        info = machine_info() | {"seed": args.seed}
        result, lines, record = bench(args, spec, work)
    except HarnessError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record.update(machine=info, seconds=args.seconds, trace=args.trace)
    out = base / "results" / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print("machine: " + json.dumps(info, sort_keys=True))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
