"""Command-line entry point producing replayable, machine-readable reports.

Every run echoes its full configuration (seed included) so the report can
be regenerated byte-identically. Single-graph analyses emit JSON, sweeps
emit CSV by default, and generated or transformed networks emit edge-list
text with their parameters as header comments.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, fields

from . import __version__
from .errors import (
    IngestionError,
    NetctrlError,
    UndefinedStatisticError,
    UsageError,
    ValidationError,
)
from .generators import BaParams, ReversalParams, gen_directed_ba, gen_directed_er, reverse_edges
from .graph import DirectedGraph, average_degree, read_edge_list, read_text, to_edge_list
from .matching import max_matching
from .mds import MdsResult, NodeOrder, drivers, preferential_mds, sample_mds
from .seeding import check_seed
from .stats import driver_degree_histogram, sweep_p, sweep_r, sweep_rows_to_csv

__all__ = ["RunConfig", "run", "main"]

@dataclass(frozen=True)
class RunConfig:
    """One validated CLI invocation; all fields are echoed in the report."""

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
        values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise UsageError(f"grid must be comma-separated reals, got {text!r}") from None
    if not values:
        raise UsageError("grid must hold at least one value")
    return values


def _parse_gen_spec(spec: str, seed: int):
    kind, _, body = spec.partition(":")
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
    try:
        if kind == "ba":
            allowed = {"n", "m", "p", "m0"}
            unknown = set(fields) - allowed
            if unknown:
                raise UsageError(f"unknown ba fields {sorted(unknown)} in {spec!r}")
            if "n" not in fields:
                raise UsageError(f"ba generator needs n=, got {spec!r}")
            return BaParams(
                n=int(fields["n"]),
                m_attach=int(fields.get("m", 2)),
                m0=int(fields["m0"]) if "m0" in fields else None,
                p=float(fields.get("p", 0.5)),
                seed=seed,
            )
        if kind == "er":
            unknown = set(fields) - {"n", "l"}
            if unknown:
                raise UsageError(f"unknown er fields {sorted(unknown)} in {spec!r}")
            if "n" not in fields or "l" not in fields:
                raise UsageError(f"er generator needs n= and l=, got {spec!r}")
            return ("er", int(fields["n"]), int(fields["l"]))
    except ValueError:
        raise UsageError(f"non-numeric generator field in {spec!r}") from None
    raise UsageError(f"unknown generator {kind!r}; expected ba:... or er:...")


def _build_graph(config: RunConfig) -> DirectedGraph:
    if (config.input is None) == (config.gen is None):
        raise UsageError("exactly one of --input or --gen is required")
    if config.input is not None:
        return read_edge_list(config.input)
    parsed = _parse_gen_spec(config.gen, config.seed)
    if isinstance(parsed, BaParams):
        return gen_directed_ba(parsed)
    _, n, l = parsed
    return gen_directed_er(n, l, seed=config.seed)


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
        try:
            perm = [graph.index_of(name) for name in names]
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


def run(config: RunConfig) -> str:
    """Execute one command and return the report document."""
    command = config.command
    # every seed feeds numpy's SeedSequence, whose domain is the
    # non-negative integers
    check_seed(config.seed)

    if command == "generate":
        if config.gen is None:
            raise UsageError("generate requires --gen")
        if config.input is not None:
            raise UsageError("generate takes --gen only, not --input")
        return to_edge_list(_build_graph(config))

    if command == "reverse":
        if config.r is None:
            raise UsageError("reverse requires --R")
        graph = _build_graph(config)
        result = reverse_edges(graph, ReversalParams(r=config.r, seed=config.seed))
        return to_edge_list(result.graph)

    if command == "sweep-p":
        if config.gen is None:
            raise UsageError("sweep-p requires --gen ba:... as the base model")
        if config.input is not None:
            raise UsageError("sweep-p generates its graphs; --input is not accepted")
        if config.grid is None:
            raise UsageError("sweep-p requires --grid")
        base = _parse_gen_spec(config.gen, config.seed)
        if not isinstance(base, BaParams):
            raise UsageError("sweep-p sweeps the ba model; use --gen ba:...")
        rows = sweep_p(config.grid, base, samples=config.samples, seed=config.seed)
        return _sweep_report(config, rows, None)

    if command == "sweep-r":
        if config.grid is None:
            raise UsageError("sweep-r requires --grid")
        graph = _build_graph(config)
        rows = sweep_r(graph, config.grid, samples=config.samples, seed=config.seed)
        return _sweep_report(config, rows, graph)

    if command in {"analyze", "preferential", "sample"}:
        if config.format != "json":
            raise UsageError(f"{command} reports are JSON; --format {config.format} is not supported")
        graph = _build_graph(config)
        if command == "analyze":
            order = _build_order(config, graph)
            result = drivers(graph, max_matching(graph, order), order)
            return _json_report(config, _mds_payload(graph, result, order), graph)
        if command == "preferential":
            order = _build_order(config, graph)
            m = config.m if config.m is not None else graph.node_count
            result = preferential_mds(graph, order, m)
            payload = _mds_payload(graph, result, order)
            payload["m"] = m
            return _json_report(config, payload, graph)
        summary = sample_mds(graph, config.samples, config.seed, dedupe=config.dedupe)
        payload = asdict(summary)
        payload["lambda_d"] = summary.n_d / graph.node_count
        return _json_report(config, payload, graph)

    raise UsageError(f"unknown command {command!r}")


def _add_graph_source(parser: argparse.ArgumentParser, gen_only: bool = False) -> None:
    if not gen_only:
        parser.add_argument("--input", metavar="PATH", help="edge-list file to analyze")
    parser.add_argument(
        "--gen",
        metavar="SPEC",
        help="generator spec: ba:n=..,m=..,p=..,m0=.. or er:n=..,l=..",
    )


def _build_parser(default_seed: int) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netctrl",
        description="Driver-node analysis of directed networks via maximum matching.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary):
        # an option left out stays out of the namespace, so RunConfig holds
        # every default but the seed's and the sweeps' format
        return sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)

    def common(p, sweep=False):
        # only the sweeps choose a format: the other reports are JSON or edge-list text
        p.add_argument("--seed", type=int, default=default_seed,
                       help="random seed (default: NETCTRL_SEED or 0)")
        if sweep:
            p.add_argument("--format", choices=("json", "csv"), default="csv")
        p.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")

    p = command("analyze", "maximum matching, driver set, and degree histogram")
    _add_graph_source(p)
    p.add_argument("--order", help="asc|desc|random|file:PATH")
    common(p)

    p = command("preferential", "degree-steered driver set via incremental matching")
    _add_graph_source(p)
    p.add_argument("--order", help="asc|desc|random|file:PATH")
    p.add_argument("--m", type=int, help="number of preferentially admitted nodes (default: all)")
    common(p)

    p = command("sample", "ensemble of randomized driver sets")
    _add_graph_source(p)
    p.add_argument("--samples", type=int)
    p.add_argument("--dedupe", action="store_true", help="also count distinct driver sets")
    common(p)

    p = command("generate", "emit a generated network as edge-list text")
    _add_graph_source(p, gen_only=True)
    common(p)

    p = command("reverse", "flip low-to-high-degree edges with probability R")
    _add_graph_source(p)
    p.add_argument("--R", dest="r", type=float, required=True, metavar="FLOAT")
    common(p)

    p = command("sweep-p", "sweep attachment direction p over generated networks")
    _add_graph_source(p, gen_only=True)
    p.add_argument("--grid", type=_parse_grid, required=True, metavar="CSV-of-reals")
    p.add_argument("--samples", type=int)
    common(p, sweep=True)

    p = command("sweep-r", "sweep reversal probability R over one network")
    _add_graph_source(p)
    p.add_argument("--grid", type=_parse_grid, required=True, metavar="CSV-of-reals")
    p.add_argument("--samples", type=int)
    common(p, sweep=True)

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
    except UsageError as exc:
        print(f"netctrl: usage error: {exc}", file=sys.stderr)
        return 2
    except IngestionError as exc:
        print(f"netctrl: ingestion error: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"netctrl: validation error: {exc}", file=sys.stderr)
        return 4
    except UndefinedStatisticError as exc:
        print(f"netctrl: statistic error: {exc}", file=sys.stderr)
        return 5
    except NetctrlError as exc:
        print(f"netctrl: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"netctrl: error: out of memory: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"netctrl: i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
