"""Workload inputs and the report checks that feed error_rate."""

import json
from pathlib import Path

import pytest

import run
from workloads import SWEEP_GRID, WORKLOADS, EdgeList, ReportChecker

SCHEMA = Path(run.PACKAGE) / "report_schema.json"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_writes_identical_input(name, tmp_path):
    spec = WORKLOADS[name].gen
    paths = [tmp_path / f"{tag}.txt" for tag in ("a", "b", "c")]
    run.generate_input(spec, 3, paths[0])
    run.generate_input(spec, 3, paths[1])
    run.generate_input(spec, 4, paths[2])
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()


def test_oracle_matches_netctrl_matching_number(tmp_path):
    from netctrl import NodeOrder, max_matching, read_edge_list

    path = tmp_path / "ba.txt"
    run.generate_input("ba:n=300,m=2,m0=3,p=0.5", 5, path)
    inp = EdgeList.load(path)
    graph = read_edge_list(path)
    assert (inp.nodes, inp.edges) == (graph.node_count, graph.edge_count)
    assert inp.matching_number == max_matching(graph, NodeOrder.degree_ascending(graph)).size


def _report(tmp_path, name, seed=2):
    """A real report of the workload's command on a small input."""
    from netctrl import cli

    workload = WORKLOADS[name]
    path = tmp_path / "in.txt"
    run.generate_input("ba:n=200,m=2,m0=3,p=0.5", seed, path)
    inp = EdgeList.load(path)
    out = tmp_path / "out.txt"
    assert cli.main(workload.argv(str(path), seed, str(out), inp)) == 0
    return workload, inp, out.read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checks_pass_on_real_reports(name, tmp_path):
    workload, inp, text = _report(tmp_path, name)
    assert workload.check(ReportChecker(SCHEMA), text, inp) == []


def test_preferential_check_rejects_a_foreign_witness_pair(tmp_path):
    workload, inp, text = _report(tmp_path, "preferential-ba3k")
    report = json.loads(text)
    tail, head = report["result"]["witness"][0]
    report["result"]["witness"][0] = [head, tail] if (head, tail) not in inp.label_edges() else [tail, tail]
    errors = workload.check(ReportChecker(SCHEMA), json.dumps(report), inp)
    assert any("not input edges" in e or "repeats" in e for e in errors)


def test_preferential_check_rejects_a_wrong_driver_count(tmp_path):
    workload, inp, text = _report(tmp_path, "preferential-ba3k")
    report = json.loads(text)
    report["result"]["n_d"] += 1
    assert any("n_d" in e for e in workload.check(ReportChecker(SCHEMA), json.dumps(report), inp))


def test_sample_check_rejects_mean_outside_range(tmp_path):
    workload, inp, text = _report(tmp_path, "sample-er10k")
    report = json.loads(text)
    report["result"]["mean_kd"] = report["result"]["max_kd"] + 1.0
    assert any("mean_kd" in e for e in workload.check(ReportChecker(SCHEMA), json.dumps(report), inp))


def test_sweep_check_rejects_a_wrong_ratio_and_a_missing_row(tmp_path):
    workload, inp, text = _report(tmp_path, "sweep-r-ba1k")
    lines = text.splitlines(keepends=True)
    fields = lines[-1].split(",")
    fields[4] = repr(float(fields[4]) * 1.01)
    bad_ratio = "".join(lines[:-1]) + ",".join(fields)
    assert any("ratio" in e for e in workload.check(ReportChecker(SCHEMA), bad_ratio, inp))
    missing_row = "".join(lines[:-1])
    assert workload.check(ReportChecker(SCHEMA), missing_row, inp) == [
        f"CSV has {len(SWEEP_GRID) - 1} rows for a grid of {len(SWEEP_GRID)}"
    ]
