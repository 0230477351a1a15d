"""Command-line entry point producing replayable, machine-readable reports.

Every run echoes its full configuration (seed included) so the report can
be regenerated byte-identically. Single-graph analyses emit JSON, sweeps
emit CSV by default, and generated or transformed networks emit edge-list
text with their parameters as header comments. ``_COMMANDS`` and
``_OPTIONS`` declare each command's options once: the parser is built from
them, and ``run()`` enforces them for every caller.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, fields

from . import __version__
from .errors import NetctrlError, UsageError
from .generators import BaParams, ReversalParams, gen_directed_ba, gen_directed_er, reverse_edges
from .graph import DirectedGraph, average_degree, read_edge_list, read_text, to_edge_list
from .matching import max_matching
from .mds import MdsResult, NodeOrder, drivers, preferential_mds, sample_mds
from .seeding import check_seed
from .stats import driver_degree_histogram, sweep_p, sweep_r, sweep_rows_to_csv

__all__ = ["RunConfig", "run", "main"]

@dataclass(frozen=True)
class RunConfig:
    """One CLI invocation, echoed in full in its report; run() checks it against _COMMANDS."""

    command: str
    input: str | None = None
    gen: str | None = None
    order: str = "asc"
    m: int | None = None
    samples: int = 1000
    seed: int = 0
    dedupe: bool = False
    grid: tuple[float, ...] | None = None
    r: float | None = None
    format: str = "json"


def _default_seed() -> int:
    raw = os.environ.get("NETCTRL_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"NETCTRL_SEED must be an integer, got {raw!r}") from None


def _parse_grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise UsageError(f"grid must be comma-separated reals, got {text!r}") from None


# each generator's required fields, then the fields it also allows
_GEN_FIELDS = {"ba": (("n",), {"m", "p", "m0"}), "er": (("n", "l"), set())}


def _parse_gen_spec(spec: str, seed: int):
    kind, _, body = spec.partition(":")
    if kind not in _GEN_FIELDS:
        raise UsageError(f"unknown generator {kind!r}; expected ba:... or er:...")
    fields: dict[str, str] = {}
    if body:
        for item in body.split(","):
            key, eq, value = item.partition("=")
            if not eq:
                raise UsageError(f"bad generator field {item!r} in {spec!r}")
            key = key.strip()
            if key in fields:
                raise UsageError(f"generator field {key!r} given twice in {spec!r}")
            fields[key] = value.strip()
    required, allowed = _GEN_FIELDS[kind]
    unknown = fields.keys() - allowed - set(required)
    if unknown:
        raise UsageError(f"unknown {kind} fields {sorted(unknown)} in {spec!r}")
    if any(key not in fields for key in required):
        raise UsageError(f"{kind} generator needs {'= and '.join(required)}=, got {spec!r}")
    try:
        if kind == "ba":
            return BaParams(
                n=int(fields["n"]),
                m_attach=int(fields.get("m", 2)),
                m0=int(fields["m0"]) if "m0" in fields else None,
                p=float(fields.get("p", 0.5)),
                seed=seed,
            )
        return int(fields["n"]), int(fields["l"])
    except ValueError:
        raise UsageError(f"non-numeric generator field in {spec!r}") from None


def _build_graph(config: RunConfig) -> DirectedGraph:
    if (config.input is None) == (config.gen is None):
        raise UsageError("exactly one of --input or --gen is required")
    if config.input is not None:
        return read_edge_list(config.input)
    parsed = _parse_gen_spec(config.gen, config.seed)
    if isinstance(parsed, BaParams):
        return gen_directed_ba(parsed)
    return gen_directed_er(*parsed, seed=config.seed)


def _build_order(config: RunConfig, graph: DirectedGraph) -> NodeOrder:
    spec = config.order
    if spec == "asc":
        return NodeOrder.degree_ascending(graph)
    if spec == "desc":
        return NodeOrder.degree_descending(graph)
    if spec == "random":
        return NodeOrder.random(graph, config.seed)
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        names = [line.strip() for line in read_text(path).splitlines() if line.strip()]
        index = {label: i for i, label in enumerate(graph.labels)}
        try:
            perm = [index[name] for name in names]
        except KeyError as exc:
            raise UsageError(f"order file names unknown node {exc.args[0]!r}") from None
        if len(perm) != graph.node_count:
            raise UsageError(
                f"order file lists {len(perm)} nodes, graph has {graph.node_count}"
            )
        return NodeOrder(perm)
    raise UsageError(f"unknown order {spec!r}; expected asc|desc|random|file:PATH")


def _graph_block(graph: DirectedGraph) -> dict:
    return {
        "nodes": graph.node_count,
        "edges": graph.edge_count,
        "average_degree": average_degree(graph),
        "duplicate_edges": graph.duplicate_count,
    }


def _mds_payload(graph: DirectedGraph, result: MdsResult, order: NodeOrder) -> dict:
    labels = graph.labels
    return {
        "n_d": result.n_d,
        "lambda_d": result.lambda_d,
        "avg_degree_d": result.avg_degree_d,
        "perfect_matching": result.perfect_matching,
        "matching_size": result.witness.size,
        "order": order.key_spec,
        "drivers": [labels[v] for v in result.drivers],
        "witness": [[labels[u], labels[v]] for u, v in result.witness.pairs()],
        "histogram": driver_degree_histogram(graph, result).as_mapping(),
    }


def _json_report(config: RunConfig, payload: dict, graph: DirectedGraph | None) -> str:
    report = {
        "command": config.command,
        "tool": {"name": "netctrl", "version": __version__},
        "config": asdict(config),
        "result": payload,
    }
    if graph is not None:
        report["graph"] = _graph_block(graph)
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _sweep_report(config: RunConfig, rows, graph: DirectedGraph | None) -> str:
    if config.format == "json":
        return _json_report(config, {"rows": [row.columns() for row in rows]}, graph)
    echo = json.dumps(asdict(config), sort_keys=True)
    header = f"# netctrl {__version__} {config.command}\n# config {echo}\n"
    return header + sweep_rows_to_csv(rows)


# each RunConfig field's flag and argparse settings, in the order --help lists them
_OPTIONS = {
    "input": ("--input", {"metavar": "PATH", "help": "edge-list file to analyze"}),
    "gen": ("--gen", {"metavar": "SPEC",
                      "help": "generator spec: ba:n=..,m=..,p=..,m0=.. or er:n=..,l=.."}),
    "order": ("--order", {"help": "asc|desc|random|file:PATH"}),
    "m": ("--m", {"type": int, "help": "number of preferentially admitted nodes (default: all)"}),
    "samples": ("--samples", {"type": int}),
    "dedupe": ("--dedupe", {"action": "store_true", "help": "also count distinct driver sets"}),
    "r": ("--R", {"type": float, "metavar": "FLOAT"}),
    "grid": ("--grid", {"type": _parse_grid, "metavar": "CSV-of-reals"}),
    "format": ("--format", {"choices": ("json", "csv"), "default": "csv"}),
}

# each command's help line, the RunConfig fields it takes besides the seed and
# those of them it requires; run() checks both, so the parser requires none
_COMMANDS = {
    "analyze": ("maximum matching, driver set, and degree histogram",
                ("input", "gen", "order"), ()),
    "preferential": ("degree-steered driver set via incremental matching",
                     ("input", "gen", "order", "m"), ()),
    "sample": ("ensemble of randomized driver sets", ("input", "gen", "samples", "dedupe"), ()),
    "generate": ("emit a generated network as edge-list text", ("gen",), ("gen",)),
    "reverse": ("flip low-to-high-degree edges with probability R", ("input", "gen", "r"), ("r",)),
    "sweep-p": ("sweep attachment direction p over generated networks",
                ("gen", "grid", "samples", "format"), ("gen", "grid")),
    "sweep-r": ("sweep reversal probability R over one network",
                ("input", "gen", "grid", "samples", "format"), ("grid",)),
}


def run(config: RunConfig) -> str:
    """Execute one command and return the report document."""
    command = config.command
    # every seed feeds numpy's SeedSequence, whose domain is the
    # non-negative integers
    check_seed(config.seed)
    if command not in _COMMANDS:
        raise UsageError(f"unknown command {command!r}")
    _, takes, requires = _COMMANDS[command]
    default = RunConfig(command)
    for field, (flag, settings) in _OPTIONS.items():
        value = getattr(config, field)
        if field in requires and value is None:
            raise UsageError(f"{command} requires {flag}")
        if field not in takes and value != getattr(default, field):
            raise UsageError(f"{command} does not take {flag}")
        if "choices" in settings and value not in settings["choices"]:
            raise UsageError(f"{command} {flag} must be one of {', '.join(settings['choices'])}")

    if command == "sweep-p":
        base = _parse_gen_spec(config.gen, config.seed)
        if not isinstance(base, BaParams):
            raise UsageError("sweep-p sweeps the ba model; use --gen ba:...")
        rows = sweep_p(config.grid, base, samples=config.samples, seed=config.seed)
        return _sweep_report(config, rows, None)

    graph = _build_graph(config)
    if command == "generate":
        return to_edge_list(graph)
    if command == "reverse":
        result = reverse_edges(graph, ReversalParams(r=config.r, seed=config.seed))
        return to_edge_list(result.graph)
    if command == "sweep-r":
        rows = sweep_r(graph, config.grid, samples=config.samples, seed=config.seed)
        return _sweep_report(config, rows, graph)
    if command == "sample":
        summary = sample_mds(graph, config.samples, config.seed, dedupe=config.dedupe)
        payload = asdict(summary)
        payload["lambda_d"] = summary.n_d / graph.node_count
        return _json_report(config, payload, graph)
    order = _build_order(config, graph)
    if command == "analyze":
        result = drivers(graph, max_matching(graph, order), order)
        return _json_report(config, _mds_payload(graph, result, order), graph)
    m = config.m if config.m is not None else graph.node_count
    result = preferential_mds(graph, order, m)
    payload = _mds_payload(graph, result, order)
    payload["m"] = m
    return _json_report(config, payload, graph)


def _build_parser(default_seed: int) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netctrl",
        description="Driver-node analysis of directed networks via maximum matching.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, takes, _) in _COMMANDS.items():
        # an option left out stays out of the namespace, so RunConfig holds
        # every default but the seed's and the sweeps' format
        p = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        for field in takes:
            flag, settings = _OPTIONS[field]
            p.add_argument(flag, dest=field, **settings)
        p.add_argument("--seed", type=int, default=default_seed,
                       help="random seed (default: NETCTRL_SEED or 0)")
        p.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    # a field the subcommand does not take keeps RunConfig's default
    given = {f.name: getattr(args, f.name) for f in fields(RunConfig) if hasattr(args, f.name)}
    return RunConfig(**given)


def main(argv=None) -> int:
    try:
        parser = _build_parser(_default_seed())
        args = parser.parse_args(argv)
        text = run(_config_from_args(args))
        out = getattr(args, "out", None)
        if out:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    except NetctrlError as exc:
        print(f"netctrl: {exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError as exc:
        print(f"netctrl: error: out of memory: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"netctrl: i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
