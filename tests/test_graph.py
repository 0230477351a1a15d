from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netctrl import (
    DirectedGraph,
    BaParams,
    IngestionError,
    ReversalParams,
    UsageError,
    _kernel,
    average_degree,
    degrees,
    gen_directed_ba,
    gen_directed_er,
    parse_edge_list,
    reverse_edges,
    to_edge_list,
)

from naive import naive_csr


@st.composite
def digraphs(draw, max_n: int = 8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=min(len(pairs), 16)))
    return DirectedGraph([str(i) for i in range(n)], edges)


class TestParse:
    def test_two_edges(self):
        g = parse_edge_list("a b\nb c")
        assert g.node_count == 3
        assert g.edge_count == 2
        assert g.edges == ((0, 1), (1, 2))
        assert g.labels == ("a", "b", "c")

    def test_duplicate_lines_collapse(self):
        g = parse_edge_list("a b\na b")
        assert g.node_count == 2
        assert g.edge_count == 1
        assert g.duplicate_count == 1

    def test_empty_input_rejected(self):
        with pytest.raises(IngestionError):
            parse_edge_list("")

    def test_comments_and_blank_lines_ignored(self):
        g = parse_edge_list("# header\n% other comment\n\na b\n\nb c\n")
        assert g.edge_count == 2

    def test_malformed_line_names_line_number(self):
        with pytest.raises(IngestionError, match="line 2"):
            parse_edge_list("a b\na b c")

    def test_self_loop_retained(self):
        g = parse_edge_list("v v")
        assert g.node_count == 1
        assert g.edges == ((0, 0),)

    def test_interleaved_duplicates_keep_first_occurrence_order(self):
        g = parse_edge_list("a b\nc d\na b\nb c")
        assert g.labels == ("a", "b", "c", "d")
        assert g.edges == ((0, 1), (2, 3), (1, 2))
        assert g.duplicate_count == 1

    def test_intern_order_is_first_appearance(self):
        g = parse_edge_list("x y\nz x")
        assert g.labels == ("x", "y", "z")
        assert g.edges == ((0, 1), (2, 0))


class TestDegrees:
    def test_out_star(self, star):
        view = degrees(star)
        assert view.in_degree[0] == 0 and view.out_degree[0] == 3 and view.total_degree[0] == 3
        for leaf in (1, 2, 3):
            assert view.in_degree[leaf] == 1
            assert view.out_degree[leaf] == 0
            assert view.total_degree[leaf] == 1

    def test_cycle_symmetry(self, cycle3):
        view = degrees(cycle3)
        assert list(view.in_degree) == [1, 1, 1]
        assert list(view.out_degree) == [1, 1, 1]
        assert list(view.total_degree) == [2, 2, 2]

    def test_self_loop_counts_both_ways(self):
        g = parse_edge_list("v v")
        view = degrees(g)
        assert view.in_degree[0] == 1
        assert view.out_degree[0] == 1
        assert view.total_degree[0] == 2


class TestAverageDegree:
    def test_wiki_vote_row(self):
        g = gen_directed_er(7115, 103689, seed=0)
        assert average_degree(g) == pytest.approx(29.15, abs=0.01)

    def test_florida_row(self):
        g = gen_directed_er(128, 2106, seed=0)
        assert average_degree(g) == pytest.approx(32.91, abs=0.01)

    def test_edgeless(self):
        g = DirectedGraph(["a", "b", "c"], [])
        assert average_degree(g) == 0.0


class TestRoundTrip:
    def test_parse_serialize_parse(self):
        text = "a b\nb c\nc a\nb a\n"
        g = parse_edge_list(text)
        again = parse_edge_list(to_edge_list(g))
        assert again == g
        assert again.edge_count == g.edge_count

    def test_provenance_survives_as_comments(self):
        g = DirectedGraph(["a", "b"], [(0, 1)], provenance=("made by hand",))
        text = to_edge_list(g)
        assert text.startswith("# made by hand\n")
        assert parse_edge_list(text) == g


class TestConstruction:
    def test_keeps_the_first_of_each_repeated_pair(self):
        g = DirectedGraph(["a", "b", "c"], [(0, 1), (1, 2), (0, 1), (2, 0), (1, 2), (0, 1)])
        assert g.edges == ((0, 1), (1, 2), (2, 0))
        assert g.duplicate_count == 3
        assert g.has_edge([0, 1, 2, 1], [1, 2, 0, 0]).tolist() == [True, True, True, False]
        assert g == DirectedGraph(["a", "b", "c"], [(0, 1), (1, 2), (2, 0)])

    def test_rejects_zero_nodes(self):
        with pytest.raises(ValueError):
            DirectedGraph([], [])

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError):
            DirectedGraph(["a"], [(0, 1)])

    def test_rejects_edges_that_are_not_pairs(self):
        with pytest.raises(ValueError):
            DirectedGraph(["a", "b", "c"], [(0, 1, 2), (1, 2, 0)])

    def test_edges_from_an_array_or_a_generator(self):
        pairs = np.array([[0, 1], [1, 2]])
        g = DirectedGraph(["a", "b", "c"], pairs)
        assert g.edges == ((0, 1), (1, 2))
        assert DirectedGraph(["a", "b", "c"], ((u, v) for u, v in pairs.tolist())) == g

    def test_arrays_are_read_only(self, star):
        for array in (star.tails, star.heads, star.out_ptr, star.out_heads, star.in_ptr, star.in_tails):
            with pytest.raises(ValueError):
                array[0] = 1


@st.composite
def pair_lists(draw, max_n: int = 6):
    """A node count and (tail, head) pairs over it, drawn with repeats."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    pair = st.tuples(st.integers(min_value=0, max_value=n - 1), st.integers(min_value=0, max_value=n - 1))
    return n, draw(st.lists(pair, max_size=24))


def csr_arrays(g) -> list[list[int]]:
    return [a.tolist() for a in (g.tails, g.heads, g.out_ptr, g.out_heads, g.in_ptr, g.in_tails)]


@settings(max_examples=100)
@given(pair_lists())
@example((3, [(0, 1), (1, 2), (0, 1), (2, 2), (1, 2), (2, 2)]))
def test_repeated_pairs_collapse_to_their_first_occurrence(case):
    n, pairs = case
    labels = [str(i) for i in range(n)]
    first = list(dict.fromkeys(pairs))  # each pair once, in first-occurrence order
    g = DirectedGraph(labels, pairs)
    once = DirectedGraph(labels, first)
    assert g == once and g.edges == tuple(first)
    assert csr_arrays(g) == csr_arrays(once)
    assert g.duplicate_count == len(pairs) - g.edge_count == len(pairs) - len(first)
    assert once.duplicate_count == 0


@settings(max_examples=60)
@given(digraphs())
def test_csr_rows_hold_the_edges_in_input_order(g):
    n = g.node_count
    assert g.out_ptr[0] == g.in_ptr[0] == 0
    assert g.out_ptr.size == g.in_ptr.size == n + 1
    assert g.out_ptr[-1] == g.in_ptr[-1] == g.edge_count
    # one row per node, each holding that node's edges in input order
    for u in range(n):
        assert g.out_heads[g.out_ptr[u]:g.out_ptr[u + 1]].tolist() == [v for t, v in g.edges if t == u]
        assert g.in_tails[g.in_ptr[u]:g.in_ptr[u + 1]].tolist() == [t for t, v in g.edges if v == u]
    # the rows partition the edges: together they hold the same multiset
    out_rows = np.repeat(np.arange(n), np.diff(g.out_ptr))
    in_rows = np.repeat(np.arange(n), np.diff(g.in_ptr))
    from_out = sorted(zip(out_rows.tolist(), g.out_heads.tolist()))
    from_in = sorted(zip(g.in_tails.tolist(), in_rows.tolist()))
    assert from_out == from_in == sorted(g.edges)
    assert g.edges == tuple(zip(g.tails.tolist(), g.heads.tolist()))


@settings(max_examples=100)
@given(digraphs(max_n=12))
@example(DirectedGraph(["0"], []))
@example(DirectedGraph(["0"], [(0, 0)]))
@example(DirectedGraph(["0", "1", "2"], []))
def test_csr_equals_the_stable_argsort_reference(g):
    assert (g.out_ptr.tolist(), g.out_heads.tolist(), g.in_ptr.tolist(), g.in_tails.tolist()) == naive_csr(g)
    for array in (g.out_ptr, g.out_heads, g.in_ptr, g.in_tails):
        assert array.dtype == np.int64


@settings(max_examples=60)
@given(digraphs())
def test_has_edge_on_scalars_and_arrays(g):
    n = g.node_count
    edges = set(g.edges)
    tails, heads = np.divmod(np.arange(n * n), n)
    expected = [(u, v) in edges for u, v in zip(tails.tolist(), heads.tolist())]
    assert g.has_edge(tails, heads).tolist() == expected
    assert [g.has_edge(u, v) for u, v in zip(tails.tolist(), heads.tolist())] == expected
    assert all(type(g.has_edge(u, v)) is bool for u, v in [(0, 0), (n - 1, 0)])
    # indices outside 0..N-1 are never edges, even where tail * N + head
    # is the key of one
    outside = np.array([[-1, 0], [0, n], [0, -1], [n, 0], [-1, n]])
    assert not g.has_edge(outside[:, 0], outside[:, 1]).any()
    assert not any(g.has_edge(u, v) for u, v in outside.tolist())


EDGE01 = DirectedGraph(["a", "b"], [(0, 1)])


@pytest.mark.parametrize(
    "tail, head",
    [(0.5, 1.9), ("0", "1"), (True, 1), ([0.0], [1]), ([None], [1]), ([0, "1"], [1, 1])],
    ids=["floats", "strings", "bool", "float-array", "None-entry", "mixed-array"],
)
def test_has_edge_refuses_non_integers(tail, head):
    # a cast would cut 0.5 to 0 and parse "0" as 0, and answer True
    with pytest.raises(UsageError, match="must be integers"):
        EDGE01.has_edge(tail, head)


@pytest.mark.parametrize(
    "tail, head, expected",
    [
        (2**70, 0, False),
        (0, 2**70, False),
        (-(2**70), 1, False),
        ([0, 2**70], [1, 1], [True, False]),
        (np.uint64(2**64 - 1), 0, False),
        (np.array([2**63, 0], dtype=np.uint64), [1, 1], [False, True]),
    ],
    ids=[
        "tail-past-int64", "head-past-int64", "negative-past-int64", "array-past-int64",
        "uint64-past-int64", "uint64-array-past-int64",
    ],
)
def test_has_edge_answers_false_past_int64(tail, head, expected):
    # an index outside 0..N-1 is never an edge, however large
    found = EDGE01.has_edge(tail, head)
    assert (found.tolist() if isinstance(found, np.ndarray) else found) == expected


@settings(max_examples=60)
@given(digraphs())
def test_degree_sums_match_edge_count(g):
    view = degrees(g)
    assert int(view.out_degree.sum()) == g.edge_count
    assert int(view.in_degree.sum()) == g.edge_count
    assert int(view.total_degree.sum()) == 2 * g.edge_count


@settings(max_examples=60)
@given(digraphs())
def test_average_degree_is_mean_total_degree(g):
    assert average_degree(g) == pytest.approx(float(np.mean(degrees(g).total_degree)))


@settings(max_examples=60)
@given(digraphs())
def test_round_trip_preserves_labeled_edges(g):
    touched = {u for e in g.edges for u in e}
    if len(touched) != g.node_count or not g.edges:
        return  # isolated nodes are not representable in edge-list text
    again = parse_edge_list(to_edge_list(g))
    assert again.node_count == g.node_count
    assert again.edge_count == g.edge_count
    labeled = {(g.labels[u], g.labels[v]) for u, v in g.edges}
    assert {(again.labels[u], again.labels[v]) for u, v in again.edges} == labeled


def test_round_trip_of_parsed_graph_is_identical():
    # for parsed graphs the intern order is first appearance, which the
    # serializer reproduces exactly
    g = parse_edge_list("b a\na c\nc c\n")
    assert parse_edge_list(to_edge_list(g)) == g


@pytest.mark.parametrize("label", ["#a", "%a", "", " ", "a b", "a\tb", "a\x1cb", "a\n"])
def test_label_that_would_not_read_back_is_refused(label):
    g = DirectedGraph(["x", label], [(0, 1)])
    with pytest.raises(UsageError, match="cannot be written to an edge list"):
        to_edge_list(g)


@pytest.mark.parametrize("note", ["note\nc d", "x\ry", "a\x1cb", "a\u2028b"])
def test_note_with_a_line_break_is_refused(note):
    # \x1c breaks a line for the compiled tokenizer and the line loop,
    # \u2028 for the line loop only: either would end the comment
    g = DirectedGraph(["a", "b"], [(0, 1)], provenance=(note,))
    with pytest.raises(UsageError, match="cannot be written to an edge list"):
        to_edge_list(g)


def test_generated_and_reversed_notes_write_as_comments():
    ba = gen_directed_ba(BaParams(n=30, seed=5))
    er = gen_directed_er(20, 40, seed=2)
    flipped = reverse_edges(ba, ReversalParams(r=0.5, seed=3)).graph
    for g in (ba, er, flipped):
        text = to_edge_list(g)
        assert g.provenance
        assert [line for line in text.splitlines() if line.startswith("#")] == [f"# {note}" for note in g.provenance]
        assert parse_edge_list(text).edge_count == g.edge_count


def labeled_edges(g) -> list[tuple[str, str]]:
    return [(g.label_of(u), g.label_of(v)) for u, v in g.edges]


@pytest.mark.parametrize("r", [0.0, 0.5, 1.0])
def test_reverse_output_of_a_parsed_graph_reads_back(r):
    # comment marks inside labels, where they are no comment
    ba = gen_directed_ba(BaParams(n=60, m_attach=2, m0=3, p=0.5, seed=4))
    names = [f"n{i}#" if i % 2 else f"x%{i}" for i in range(ba.node_count)]
    g = parse_edge_list("".join(f"{names[u]} {names[v]}\n" for u, v in ba.edges))
    result = reverse_edges(g, ReversalParams(r=r, seed=9))
    assert (result.reversed_count > 0) == (r > 0)
    again = parse_edge_list(to_edge_list(result.graph))
    assert labeled_edges(again) == labeled_edges(result.graph)


# What the compiled tokenizer must split exactly as str.splitlines and
# str.split do: every ASCII line break, every other ASCII blank, comment
# marks at line start, after leading blanks and inside tokens, and labels
# drawn from a few so that lines repeat and loop.
LINE_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]
BLANKS = " \t\x1f"
LABELS = ["a", "b", "c", "10", "a#", "x%y", "#h", "%p"]


@st.composite
def edge_list_lines(draw):
    count = draw(st.sampled_from([0, 1, 2, 2, 2, 2, 2, 3]))
    tokens = [draw(st.sampled_from(LABELS)) for _ in range(count)]
    text = draw(st.text(BLANKS, max_size=2)) + draw(st.sampled_from(["", "", "", "#", "%", "# ", "%a "]))
    for token in tokens:
        text += token + draw(st.text(BLANKS, min_size=1, max_size=2))
    return text + draw(st.sampled_from(LINE_BREAKS))


@st.composite
def edge_list_texts(draw):
    text = "".join(draw(st.lists(edge_list_lines(), max_size=10)))
    if draw(st.booleans()):
        text = text.rstrip("".join(LINE_BREAKS))  # a last line with no break
    return text


@settings(max_examples=150, deadline=None)
@given(edge_list_texts(), st.sampled_from([0.0, 0.5, 1.0]), st.integers(0, 2**32 - 1))
def test_reverse_output_reads_back_or_is_refused(text, r, seed):
    try:
        g = parse_edge_list(text)
    except IngestionError:
        return
    flipped = reverse_edges(g, ReversalParams(r=r, seed=seed)).graph
    if any(label.startswith(("#", "%")) for label in flipped.labels):
        with pytest.raises(UsageError):
            to_edge_list(flipped)
        return
    assert labeled_edges(parse_edge_list(to_edge_list(flipped))) == labeled_edges(flipped)


def parsed_both_ways(core, text: str) -> list:
    """What ``parse_edge_list`` gives with the compiled tokenizer and with
    the line loop: the graph's arrays, or the IngestionError's text."""
    results = []
    for compiled in (core, None):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_kernel, "_kernel", compiled)
            try:
                g = parse_edge_list(text)
            except IngestionError as exc:
                results.append(str(exc))
                continue
        arrays = (g.tails, g.heads, g.out_ptr, g.out_heads, g.in_ptr, g.in_tails)
        results.append((g.labels, [a.tolist() for a in arrays], g.duplicate_count))
    return results


def assert_tokenizer_agrees_with_the_line_loop(core, text: str) -> None:
    compiled, loop = parsed_both_ways(core, text)
    assert compiled == loop
    # the compiled tokenizer ran, except on a line the loop reports
    rejected = core.tokenize(text.encode("ascii")) is None
    assert rejected == (isinstance(loop, str) and loop.startswith("line "))


@settings(max_examples=300, deadline=None)
@given(edge_list_texts())
@example("a b\r\nb a\r\n\r\n  # c d e\n%\x1fx\na a\na b\x1c\x1fb\tc\x1f")
@example(" a\tb \n\x0bc #d\n")
@example("# only comments\n\n% here\n")
def test_compiled_tokenizer_agrees_with_the_line_loop(compiled_kernel, text):
    assert_tokenizer_agrees_with_the_line_loop(compiled_kernel, text)


@settings(max_examples=300, deadline=None)
@given(st.text(BLANKS + "".join(LINE_BREAKS) + "#%ab\x00\x7f", max_size=30))
def test_compiled_tokenizer_agrees_with_the_line_loop_on_any_ascii(compiled_kernel, text):
    assert_tokenizer_agrees_with_the_line_loop(compiled_kernel, text)


def test_compiled_tokenizer_agrees_on_thousands_of_labels(compiled_kernel):
    # labels of a few lengths fill the hash table enough to collide, so
    # the probe chains compare labels of equal length
    text = to_edge_list(gen_directed_er(3000, 6000, seed=1))
    text += "".join(text.splitlines(keepends=True)[:50])  # duplicate lines
    assert_tokenizer_agrees_with_the_line_loop(compiled_kernel, text)


def test_non_ascii_text_and_a_missing_core_take_the_line_loop(monkeypatch):
    class Refuses:
        def tokenize(self, data):
            raise AssertionError("the compiled tokenizer ran")

    monkeypatch.setattr(_kernel, "_kernel", Refuses())
    g = parse_edge_list("α β\nβ γ\nα β\n")
    assert g.labels == ("α", "β", "γ") and g.edges == ((0, 1), (1, 2)) and g.duplicate_count == 1
    with pytest.raises(AssertionError, match="tokenizer ran"):
        parse_edge_list("a b\n")
    # a library that will not load leaves the core None
    monkeypatch.setattr(_kernel, "_kernel", None)
    assert parse_edge_list("a b\r\nb c\r\n").edges == ((0, 1), (1, 2))
