from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from netctrl import (
    BaParams,
    UsageError,
    _kernel,
    gen_directed_ba,
    parse_edge_list,
    read_edge_list,
    to_edge_list,
)
from netctrl import cli
from netctrl import graph as graph_module
from netctrl.cli import RunConfig, _build_graph, _build_parser, _config_from_args, main, run

from failing_cores import NoMemory
from test_golden import CASES


def config_from_echo(echo: dict) -> RunConfig:
    fields = dict(echo)
    if fields.get("grid") is not None:
        fields["grid"] = tuple(fields["grid"])
    return RunConfig(**fields)

STAR_TEXT = "hub a\nhub b\nhub c\n"


@pytest.fixture
def star_file(tmp_path):
    path = tmp_path / "star.txt"
    path.write_text(STAR_TEXT)
    return str(path)


@pytest.fixture(scope="session")
def report_schema():
    text = resources.files("netctrl").joinpath("report_schema.json").read_text()
    return json.loads(text)


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestAnalyze:
    def test_star_report_values(self, capsys, star_file):
        code, out = run_cli(capsys, "analyze", "--input", star_file, "--seed", "1")
        assert code == 0
        report = json.loads(out)
        assert report["graph"] == {
            "nodes": 4,
            "edges": 3,
            "average_degree": 1.5,
            "duplicate_edges": 0,
        }
        assert report["result"]["n_d"] == 3
        assert report["result"]["perfect_matching"] is False
        assert sorted(report["result"]["drivers"]) == ["b", "c", "hub"]
        assert report["config"]["seed"] == 1

    def test_missing_input_is_ingestion_error(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "analyze", "--input", str(tmp_path / "nope.txt"))
        assert code == 3

    def test_input_and_gen_conflict(self, capsys, star_file):
        code, _ = run_cli(capsys, "analyze", "--input", star_file, "--gen", "er:n=3,l=2")
        assert code == 2

    @pytest.mark.parametrize("spec", ["er:n=5,l=3,l=4", "ba:n=10,n=20"], ids=["er", "ba"])
    def test_repeated_generator_field_is_usage_error(self, capsys, spec):
        code = main(["analyze", "--gen", spec])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "given twice" in captured.err

    def test_er_pair_space_beyond_int64_is_usage_error(self, capsys):
        code = main(["analyze", "--gen", "er:n=99999999999,l=1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("netctrl: usage error:")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sample", "--samples", "0"], "sample count must be an integer >= 1, got 0"),
            (["preferential", "--m", "5"], "m must be an integer in [0, 4], got 5"),
            (["reverse", "--R", "nan"], "r must be a real number in [0, 1], got nan"),
            (
                ["sweep-r", "--grid", "0,1.5", "--samples", "2"],
                "grid value must be a real number in [0, 1], got 1.5",
            ),
            (["sweep-r", "--grid", "0.5", "--samples", "0"], "samples must be an integer >= 1, got 0"),
        ],
        ids=["samples", "m", "R", "grid", "sweep-samples"],
    )
    def test_value_outside_its_domain_is_usage_error(self, capsys, star_file, argv, message):
        code = main(argv + ["--input", star_file])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"netctrl: usage error: {message}\n"

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("ba:n=10,p=1.5", "p must be a real number in [0, 1], got 1.5"),
            ("ba:n=10,m=0", "m_attach must be an integer >= 1, got 0"),
            ("ba:n=3,m0=3", "n must be an integer >= 4, got 3"),
            ("er:n=5,l=21", "l must be an integer in [0, 20], got 21"),
            ("er:n=0,l=0", "n must be an integer >= 1, got 0"),
        ],
        ids=["ba-p", "ba-m", "ba-n", "er-l", "er-n"],
    )
    def test_generator_field_outside_its_domain_is_usage_error(self, capsys, spec, message):
        code = main(["generate", "--gen", spec])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"netctrl: usage error: {message}\n"

    def test_unwritable_out_path_is_io_error(self, capsys, star_file, tmp_path):
        code = main(["analyze", "--input", star_file, "--out", str(tmp_path / "missing" / "report.json")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("netctrl: i/o error:")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_out_of_memory_is_one_line(self, capsys, monkeypatch):
        monkeypatch.setattr(_kernel, "_kernel", NoMemory())
        code = main(["sample", "--gen", "er:n=20,l=30", "--samples", "2"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("netctrl: error: out of memory: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_validates_against_committed_schema(self, capsys, star_file, report_schema):
        _, out = run_cli(capsys, "analyze", "--input", star_file)
        jsonschema.validate(json.loads(out), report_schema)


class TestPreferential:
    def test_m_above_node_count_is_usage_error(self, capsys, star_file):
        code, _ = run_cli(capsys, "preferential", "--input", star_file, "--m", "5")
        assert code == 2

    def test_order_steering_visible_in_report(self, capsys, tmp_path):
        path = tmp_path / "two.txt"
        path.write_text("1 2\n2 1\n1 3\n")
        code, out = run_cli(capsys, "preferential", "--input", str(path), "--order", "asc")
        assert code == 0
        report = json.loads(out)
        assert report["result"]["drivers"] == ["2"]
        assert report["result"]["m"] == 3
        code, out = run_cli(capsys, "preferential", "--input", str(path), "--order", "desc")
        report = json.loads(out)
        assert report["result"]["drivers"] == ["3"]

    def test_order_file(self, capsys, star_file, tmp_path, report_schema):
        order_path = tmp_path / "order.txt"
        order_path.write_text("a\nb\nc\nhub\n")
        code, out = run_cli(
            capsys, "preferential", "--input", star_file, "--order", f"file:{order_path}"
        )
        assert code == 0
        report = json.loads(out)
        assert report["result"]["order"] == "explicit"
        jsonschema.validate(report, report_schema)

    def test_order_file_with_unknown_label(self, capsys, star_file, tmp_path):
        order_path = tmp_path / "order.txt"
        order_path.write_text("a\nb\nc\nzzz\n")
        code, _ = run_cli(
            capsys, "preferential", "--input", star_file, "--order", f"file:{order_path}"
        )
        assert code == 2

    def test_order_file_naming_a_label_twice(self, capsys, tmp_path):
        graph = tmp_path / "path.txt"
        graph.write_text("a b\nb c\n")
        order_path = tmp_path / "order.txt"
        order_path.write_text("a\na\nb\n")
        code = main(["preferential", "--input", str(graph), "--order", f"file:{order_path}"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "netctrl: usage error: order file names node 'a' twice\n"


class TestSample:
    def test_summary_payload(self, capsys, star_file, report_schema):
        code, out = run_cli(
            capsys, "sample", "--input", star_file, "--samples", "20", "--seed", "9", "--dedupe"
        )
        assert code == 0
        report = json.loads(out)
        result = report["result"]
        assert result["sample_count"] == 20
        assert result["n_d"] == 3
        assert result["distinct_driver_sets"] >= 1
        jsonschema.validate(report, report_schema)

    def test_byte_identical_reruns(self, capsys, star_file):
        _, first = run_cli(capsys, "sample", "--input", star_file, "--samples", "15", "--seed", "4")
        _, second = run_cli(capsys, "sample", "--input", star_file, "--samples", "15", "--seed", "4")
        assert first == second

    def test_report_regenerates_from_its_echoed_config(self, capsys, star_file):
        _, out = run_cli(capsys, "sample", "--input", star_file, "--samples", "10", "--seed", "2")
        assert run(config_from_echo(json.loads(out)["config"])) == out

    def test_sweep_report_regenerates_from_its_echoed_config(self, capsys):
        _, out = run_cli(
            capsys, "sweep-p", "--gen", "ba:n=40,m=2,m0=3", "--grid", "0,1", "--samples", "5"
        )
        echo = json.loads(out.split("\n")[1].removeprefix("# config "))
        assert run(config_from_echo(echo)) == out

    def test_env_seed_default(self, capsys, star_file, monkeypatch):
        monkeypatch.setenv("NETCTRL_SEED", "77")
        _, out = run_cli(capsys, "sample", "--input", star_file, "--samples", "5")
        assert json.loads(out)["config"]["seed"] == 77

    def test_bad_env_seed(self, capsys, star_file, monkeypatch):
        monkeypatch.setenv("NETCTRL_SEED", "nope")
        code, _ = run_cli(capsys, "sample", "--input", star_file)
        assert code == 2


class TestSeedDomain:
    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--gen", "er:n=5,l=4"],
            ["preferential", "--gen", "er:n=5,l=4", "--order", "random"],
            ["sample", "--gen", "er:n=5,l=4", "--samples", "3"],
            ["generate", "--gen", "er:n=5,l=4"],
            ["reverse", "--gen", "er:n=5,l=4", "--R", "0.5"],
            ["sweep-p", "--gen", "ba:n=20,m=2,m0=3", "--grid", "0,1", "--samples", "2"],
            ["sweep-r", "--gen", "er:n=5,l=4", "--grid", "0,1", "--samples", "2"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_seed_is_usage_error(self, capsys, argv):
        code = main(argv + ["--seed", "-1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "seed must be a non-negative integer" in captured.err

    def test_negative_env_seed_is_usage_error(self, capsys, star_file, monkeypatch):
        monkeypatch.setenv("NETCTRL_SEED", "-3")
        code, _ = run_cli(capsys, "sample", "--input", star_file, "--samples", "3")
        assert code == 2

    def test_explicit_seed_overrides_a_negative_env_seed(self, capsys, star_file, monkeypatch):
        monkeypatch.setenv("NETCTRL_SEED", "-3")
        code, _ = run_cli(capsys, "sample", "--input", star_file, "--samples", "3", "--seed", "4")
        assert code == 0


class TestEncoding:
    def test_non_utf8_edge_list_is_ingestion_error(self, capsys, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes("caf\xe9 b\nb c\n".encode("latin-1"))
        code, out = run_cli(capsys, "analyze", "--input", str(path))
        assert code == 3
        assert out == ""

    def test_non_utf8_order_file_is_ingestion_error(self, capsys, star_file, tmp_path):
        order_path = tmp_path / "order.txt"
        order_path.write_bytes(b"a\nb\nc\nh\xffub\n")
        code, _ = run_cli(
            capsys, "preferential", "--input", star_file, "--order", f"file:{order_path}"
        )
        assert code == 3

    def test_byte_order_mark_is_not_part_of_a_label(self, capsys, tmp_path):
        path = tmp_path / "bom.txt"
        path.write_bytes("\ufeffhub a\nhub b\nhub c\n".encode("utf-8"))
        code, out = run_cli(capsys, "analyze", "--input", str(path))
        assert code == 0
        assert sorted(json.loads(out)["result"]["drivers"]) == ["b", "c", "hub"]
        assert read_edge_list(path) == parse_edge_list(STAR_TEXT)

    def test_order_file_byte_order_mark_is_dropped(self, capsys, star_file, tmp_path):
        order_path = tmp_path / "order.txt"
        order_path.write_bytes("\ufeffa\nb\nc\nhub\n".encode("utf-8"))
        code, _ = run_cli(
            capsys, "preferential", "--input", star_file, "--order", f"file:{order_path}"
        )
        assert code == 0


class TestGenerateAndReverse:
    def test_generate_round_trips(self, capsys):
        code, out = run_cli(capsys, "generate", "--gen", "ba:n=30,m=2,m0=3,p=0.5", "--seed", "3")
        assert code == 0
        g = parse_edge_list(out)
        assert g.node_count == 30
        assert g.edge_count == 3 + 27 * 2
        assert out.startswith("# ba n=30 m=2 m0=3 p=0.5 seed=3\n")

    def test_generate_takes_the_defaults_of_ba_params(self, capsys):
        # the fields not given are left to BaParams, not restated by the CLI
        code, out = run_cli(capsys, "generate", "--gen", "ba:n=30", "--seed", "5")
        assert code == 0
        assert out == to_edge_list(gen_directed_ba(BaParams(n=30, seed=5)))

    def test_generate_refuses_a_ba_n_past_int64_pairs(self):
        # in a child with a timeout, since growing this many nodes would never end
        src = str(Path(_kernel.__file__).parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from netctrl.cli import main; sys.exit(main(sys.argv[1:]))",
             "generate", "--gen", "ba:n=100000000000000000000"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "netctrl: usage error: n=100000000000000000000 gives more node pairs than int64 indexes\n"

    def test_generate_needs_gen(self, capsys):
        code, _ = run_cli(capsys, "generate", "--seed", "3")
        assert code == 2

    def test_reverse_r_zero_preserves_edges(self, capsys, star_file):
        code, out = run_cli(capsys, "reverse", "--input", star_file, "--R", "0", "--seed", "1")
        assert code == 0
        assert parse_edge_list(out) == parse_edge_list(STAR_TEXT)
        assert "reversed=0" in out

    def test_reverse_writes_out_file(self, capsys, star_file, tmp_path):
        out_path = tmp_path / "reversed.txt"
        code, out = run_cli(
            capsys, "reverse", "--input", star_file, "--R", "1", "--out", str(out_path)
        )
        assert code == 0
        assert out == ""
        assert parse_edge_list(out_path.read_text()).edge_count == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--gen", "er:n=5,l=3"],
            ["reverse", "--gen", "er:n=5,l=3", "--R", "0.5"],
            ["analyze", "--gen", "er:n=5,l=3"],
            ["preferential", "--gen", "er:n=5,l=3"],
            ["sample", "--gen", "er:n=5,l=3", "--samples", "2"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_format_is_not_an_option(self, capsys, argv):
        # these commands emit edge-list text or JSON only: only the sweeps take --format
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--format", "csv"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --format" in captured.err

    def test_label_that_would_read_as_a_comment_is_usage_error(self, capsys, tmp_path):
        # flipped, each edge would be written as '#a x', which reads as a comment
        graph = tmp_path / "g.txt"
        graph.write_text("x #a\ny #a\nz #a\n")
        out_path = tmp_path / "r.txt"
        code = main(["reverse", "--input", str(graph), "--R", "1", "--out", str(out_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("netctrl: usage error: node label '#a' cannot be written")
        assert captured.err.count("\n") == 1
        assert not out_path.exists()

    def test_generated_er_is_seed_stable(self, capsys):
        _, a = run_cli(capsys, "generate", "--gen", "er:n=12,l=30", "--seed", "8")
        _, b = run_cli(capsys, "generate", "--gen", "er:n=12,l=30", "--seed", "8")
        assert a == b


class TestSweeps:
    def test_sweep_r_csv_shape(self, capsys, star_file):
        code, out = run_cli(
            capsys,
            "sweep-r",
            "--input",
            star_file,
            "--grid",
            "0,1",
            "--samples",
            "5",
            "--seed",
            "2",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("# netctrl")
        assert lines[1].startswith("# config ")
        assert lines[2] == "knob,f_hi_lo,mean_kd,avg_degree,ratio,samples,seed"
        assert len(lines) == 5

    def test_sweep_p_json_validates(self, capsys, report_schema):
        code, out = run_cli(
            capsys,
            "sweep-p",
            "--gen",
            "ba:n=60,m=2,m0=3",
            "--grid",
            "0,1",
            "--samples",
            "5",
            "--seed",
            "2",
            "--format",
            "json",
        )
        assert code == 0
        report = json.loads(out)
        jsonschema.validate(report, report_schema)
        assert [row["knob"] for row in report["result"]["rows"]] == [0.0, 1.0]

    def test_sweep_p_requires_ba(self, capsys):
        code, _ = run_cli(capsys, "sweep-p", "--gen", "er:n=10,l=20", "--grid", "0,1")
        assert code == 2

    def test_sweep_byte_identical(self, capsys):
        args = ["sweep-p", "--gen", "ba:n=50,m=2,m0=3", "--grid", "0,0.5", "--samples", "5", "--seed", "6"]
        _, a = run_cli(capsys, *args)
        _, b = run_cli(capsys, *args)
        assert a == b

    def test_sweep_r_on_edgeless_graph_is_statistic_error(self, capsys, tmp_path):
        # an er:n=3,l=0 generated graph has no edges, so f_hi_lo is undefined
        code, _ = run_cli(capsys, "sweep-r", "--gen", "er:n=3,l=0", "--grid", "0", "--samples", "2")
        assert code == 5

    def test_bad_grid_value(self, capsys, star_file):
        code, _ = run_cli(capsys, "sweep-r", "--input", star_file, "--grid", "0,2.5")
        assert code == 2


@pytest.mark.parametrize(
    "argv, required",
    [
        (["analyze"], {}),
        (["preferential"], {}),
        (["sample"], {}),
        (["generate"], {}),
        (["reverse", "--R", "0.5"], {"r": 0.5}),
        (["sweep-p", "--grid", "0,1"], {"grid": (0.0, 1.0), "format": "csv"}),
        (["sweep-r", "--grid", "0,1"], {"grid": (0.0, 1.0), "format": "csv"}),
    ],
    ids=lambda value: value[0] if isinstance(value, list) else None,
)
def test_options_left_out_take_run_configs_defaults(argv, required):
    # RunConfig holds the defaults; only the sweeps' csv format differs
    config = _config_from_args(_build_parser(0).parse_args(argv))
    assert config == replace(RunConfig(command=argv[0]), **required)


# the flags each command's parser accepts besides -h, --seed and --out,
# and the RunConfig field each flag sets
COMMAND_FLAGS = {
    "analyze": {"--input", "--gen", "--order"},
    "preferential": {"--input", "--gen", "--order", "--m"},
    "sample": {"--input", "--gen", "--samples", "--dedupe"},
    "generate": {"--gen"},
    "reverse": {"--input", "--gen", "--R"},
    "sweep-p": {"--gen", "--grid", "--samples", "--format"},
    "sweep-r": {"--input", "--gen", "--grid", "--samples", "--format"},
}
FLAG_FIELDS = {
    "--input": "input", "--gen": "gen", "--order": "order", "--m": "m", "--samples": "samples",
    "--dedupe": "dedupe", "--R": "r", "--grid": "grid", "--format": "format",
}


def test_each_command_accepts_its_flags():
    sub = next(a for a in _build_parser(0)._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(COMMAND_FLAGS)
    for command, flags in COMMAND_FLAGS.items():
        accepted = {flag for action in sub.choices[command]._actions for flag in action.option_strings}
        assert accepted == flags | {"-h", "--help", "--seed", "--out"}, command


def exit_of(capsys, parse, argv) -> tuple:
    """``(exit code, stdout, stderr)`` of a parse that ends the process."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


# help, no command and an unknown one, and per command a help request, an
# unknown option, a bad --samples type, a missing option value and a bad
# --format choice (an unknown option to the commands without --format)
PARSER_EXITS = [["-h"], ["--help"], [], ["frobnicate"], ["frobnicate", "--gen", "er:n=5,l=3"]] + [
    [command] + tail
    for command in COMMAND_FLAGS
    for tail in (["-h"], ["--he"], ["--gen", "er:n=5,l=3", "--help"], ["--bogus"], ["--samples", "many"],
                 ["--out"], ["--format", "xml"])
]


@pytest.mark.parametrize("argv", PARSER_EXITS, ids=" ".join)
def test_help_and_usage_errors_are_the_full_parsers(capsys, monkeypatch, argv):
    # main parses with the running command's parser alone, and hands help
    # and every error to the full parser: each message and exit code is its
    monkeypatch.delenv("NETCTRL_SEED", raising=False)
    expected = exit_of(capsys, _build_parser(0).parse_args, argv)
    assert exit_of(capsys, main, argv) == expected
    assert expected[0] == (0 if expected[1] else 2)


def refuse_to_build(default_seed):
    raise AssertionError("the full parser was built")


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--input", "g.txt", "--order", "desc", "--seed", "3", "--out", "r.json"],
        ["preferential", "--gen", "er:n=6,l=5", "--m", "3", "--order=random"],
        ["sample", "--gen", "er:n=6,l=5", "--samp", "7", "--dedupe", "--seed=9"],
        ["generate", "--gen", "ba:n=20,m=2,m0=3"],
        ["reverse", "--input", "g.txt", "--R", "-0.5"],
        ["sweep-p", "--gen", "ba:n=20,m=2,m0=3", "--grid", "0,0.5", "--samples", "2", "--format", "json"],
        ["sweep-r", "--input", "g.txt", "--grid", "0,1", "--input", "h.txt"],
    ],
    ids=lambda argv: argv[0],
)
def test_the_running_commands_parser_gives_the_full_parsers_config(monkeypatch, argv):
    # repeated, abbreviated and --flag=value options, and a negative value;
    # the full parser is not built on the way
    expected = _build_parser(4).parse_args(argv)
    monkeypatch.setattr(cli, "_build_parser", refuse_to_build)
    args = cli._parse(argv, 4)
    assert vars(args) == vars(expected)
    assert _config_from_args(args) == _config_from_args(expected)


# a valid config of each command, and a value other than RunConfig's default for each field
VALID = {
    "analyze": RunConfig("analyze", gen="er:n=6,l=5"),
    "preferential": RunConfig("preferential", gen="er:n=6,l=5"),
    "sample": RunConfig("sample", gen="er:n=6,l=5", samples=3),
    "generate": RunConfig("generate", gen="er:n=6,l=5"),
    "reverse": RunConfig("reverse", gen="er:n=6,l=5", r=0.5),
    "sweep-p": RunConfig("sweep-p", gen="ba:n=20,m=2,m0=3", grid=(0.5,), samples=2),
    "sweep-r": RunConfig("sweep-r", gen="er:n=6,l=5", grid=(0.5,), samples=2),
}
OTHER_VALUES = {
    "input": "graph.txt", "gen": "er:n=6,l=5", "order": "desc", "m": 3, "samples": 5,
    "dedupe": True, "r": 0.3, "grid": (0.5,), "format": "csv",
}


@pytest.mark.parametrize(
    "command, flag",
    [(command, flag) for command, flags in COMMAND_FLAGS.items()
     for flag in FLAG_FIELDS if flag not in flags],
)
def test_run_refuses_an_option_its_command_does_not_take(command, flag):
    run(VALID[command])
    config = replace(VALID[command], **{FLAG_FIELDS[flag]: OTHER_VALUES[FLAG_FIELDS[flag]]})
    with pytest.raises(UsageError, match=f"^{command} does not take {flag}$"):
        run(config)


@pytest.mark.parametrize("value", ["xml", "JSON", None])
@pytest.mark.parametrize("command", [c for c, flags in COMMAND_FLAGS.items() if "--format" in flags])
def test_run_refuses_a_value_outside_an_options_choices(command, value):
    # the parser refuses these; a library caller's config must not echo one
    with pytest.raises(UsageError, match=f"^{command} --format must be one of json, csv$"):
        run(replace(VALID[command], format=value))


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["reverse", "--gen", "er:n=5,l=3"], "--R"),
        (["sweep-p", "--gen", "ba:n=20,m=2,m0=3"], "--grid"),
        (["sweep-r", "--gen", "er:n=5,l=3"], "--grid"),
        (["generate"], "--gen"),
        (["sweep-p", "--grid", "0,1"], "--gen"),
    ],
    ids=lambda value: value[0] if isinstance(value, list) else value,
)
def test_missing_required_option_is_one_usage_line(capsys, argv, flag):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"netctrl: usage error: {argv[0]} requires {flag}\n"


GOLDEN_DIR = Path(__file__).parent / "golden"


def refuse_to_cut(*args):
    raise AssertionError("every label was cut")


@pytest.mark.parametrize(
    "name",
    [
        "analyze-ba60-asc.json", "analyze-er40-random.json", "preferential-ba80-desc.json",
        "preferential-er50-asc-m20.json", "sample-ba60-dedupe.json", "sweep-p-ba60.csv",
        "sweep-r-ba60.csv",
    ],
)
def test_golden_report_regenerates_from_its_echoed_config(name):
    text = (GOLDEN_DIR / name).read_bytes().decode("utf-8")
    if name.endswith(".json"):
        echo = json.loads(text)["config"]
    else:
        echo = json.loads(text.split("\n")[1].removeprefix("# config "))
    assert run(config_from_echo(echo)) == text


@pytest.mark.parametrize("core", ["compiled", "python"])
@pytest.mark.parametrize("name", ["sample-ba60-dedupe.json", "sweep-r-ba60.csv"])
def test_sample_and_sweep_r_never_cut_a_label(name, core, compiled_kernel, monkeypatch, tmp_path):
    # neither report prints a label: with every label cut refused, a
    # generated graph gives the golden and a parsed one the report of a run
    # that may cut them
    monkeypatch.setattr(_kernel, "_kernel", compiled_kernel if core == "compiled" else None)
    argv = CASES[name]
    gen = argv.index("--gen")
    g = _build_graph(_config_from_args(_build_parser(0).parse_args(argv)))
    path = tmp_path / "graph.txt"
    path.write_text("".join(f"node{u} node{v}\n" for u, v in g.edges), encoding="ascii")
    parsed = argv[:gen] + ["--input", str(path)] + argv[gen + 2:]

    def report(args: list[str], name: str) -> bytes:
        out = tmp_path / name
        assert main(args + ["--out", str(out)]) == 0
        return out.read_bytes()

    uncut = report(parsed, "uncut")
    monkeypatch.setattr(graph_module, "_cut_labels", refuse_to_cut)
    assert report(parsed, "parsed") == uncut
    assert report(argv, "generated") == (GOLDEN_DIR / name).read_bytes()
