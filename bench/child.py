"""One measurement inside a fresh interpreter; started by ``run.py``.

    python3 bench/child.py setup ROOT INPUT RESULT
        import netctrl from ROOT/src and read INPUT with read_edge_list;
        RESULT gets the perf_counter reading taken when the graph is back,
        and the time of the reference kernel (``reference.py``) run right
        after. perf_counter is CLOCK_MONOTONIC, shared by every process,
        so the parent subtracts the moment it started this interpreter.

    python3 bench/child.py batch ROOT RESULT SECONDS ARG...
        run netctrl.cli.main([ARG...]) once to warm up and read the peak
        RSS, then alternate the reference kernel and the command until
        SECONDS have gone by, at least twice, ending on the kernel, so each
        timed command sits between two kernel timings taken in this same
        process. Every "{i}" in ARG is replaced by the command's index, so
        each report has its own file.

    python3 bench/child.py run ROOT RESULT TRACE ARG...
        time netctrl.cli.main([ARG...]) and record its return code and the
        process's peak RSS. TRACE is a path for the span dump of a traced
        run, or "-" for an untraced one.

Only ROOT/src is put on the module path, so a netctrl installed elsewhere
is never measured.
"""

import sys
import time


def _import_netctrl(root):
    sys.path.insert(0, root + "/src")
    import netctrl

    if not netctrl.__file__.startswith(root + "/src/"):
        raise SystemExit(f"netctrl imported from {netctrl.__file__}, not from {root}/src")
    return netctrl


def _write(path, payload):
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def setup(root, input_path, result_path):
    netctrl = _import_netctrl(root)
    graph = netctrl.read_edge_list(input_path)
    ready = time.perf_counter()
    from reference import SETUP_KERNELS, Reference

    kernel = Reference().time(SETUP_KERNELS)
    _write(result_path, {"ready": ready, "nodes": graph.node_count, "kernel_s": kernel})


def batch(root, result_path, seconds, argv):
    _import_netctrl(root)
    import resource

    from netctrl import cli
    from reference import KERNEL_SHARE, Reference

    ref = Reference()

    def command(i):
        args = [a.replace("{i}", str(i)) for a in argv]
        start = time.perf_counter()
        rc = cli.main(args)
        return rc, time.perf_counter() - start

    rc, warm = command(0)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    k = max(1, round(KERNEL_SHARE * warm / ref.time(1)))
    rcs, walls, kernels = [rc], [], [ref.time(k)]
    deadline = time.perf_counter() + seconds
    while len(walls) < 2 or time.perf_counter() < deadline:
        rc, wall = command(len(rcs))
        rcs.append(rc)
        walls.append(wall)
        kernels.append(ref.time(k))
    _write(result_path, {"rc": rcs, "warm_wall_s": warm, "wall_s": walls, "kernel_s": kernels,
                         "peak_rss_mb": peak_kib / 1024.0})


def run(root, result_path, trace_path, argv):
    _import_netctrl(root)
    tracer = None
    if trace_path != "-":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import resource

    from netctrl import cli

    start = time.perf_counter()
    rc = cli.main(argv)
    wall = time.perf_counter() - start
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.dump(trace_path)
    _write(result_path, {"rc": rc, "wall_s": wall, "peak_rss_mb": peak_kib / 1024.0})


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        setup(*sys.argv[2:5])
    elif mode == "batch":
        batch(sys.argv[2], sys.argv[3], float(sys.argv[4]), sys.argv[5:])
    elif mode == "run":
        run(sys.argv[2], sys.argv[3], sys.argv[4], sys.argv[5:])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
