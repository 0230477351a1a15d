from __future__ import annotations

import string
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netctrl import graph as graph_module
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
    read_edge_list,
    reverse_edges,
    to_edge_list,
)

from failing_cores import NumpyBuild
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
@given(digraphs(), st.data())
def test_equal_graphs_hash_equal(g, data):
    # rebuilt from its pairs with one of them given twice, at any position
    pairs = list(g.edges)
    if pairs:
        repeat = data.draw(st.sampled_from(pairs))
        pairs.insert(data.draw(st.integers(min_value=0, max_value=len(pairs))), repeat)
    rebuilt = DirectedGraph(g.labels, pairs)
    assert rebuilt == g
    assert hash(rebuilt) == hash(g)


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


def label_stores() -> dict[str, DirectedGraph]:
    """A graph of three nodes for each way the library makes labels, and
    one from a caller's list. Made afresh, so that none has cut its labels."""
    parsed = parse_edge_list("a b\nb c\n")
    return {
        "parsed": parsed,
        "parsed-non-ascii": parse_edge_list("α β\nβ γ\n"),
        "generated": gen_directed_er(3, 2, seed=1),
        "reversed": reverse_edges(parsed, ReversalParams(r=1.0, seed=0)).graph,
        "given": DirectedGraph(["a", "b", "c"], [(0, 1), (1, 2)]),
    }


def refuse_to_cut(*args):
    raise AssertionError("every label was cut")


@pytest.mark.parametrize("kind", sorted(label_stores()))
@pytest.mark.parametrize(
    "node",
    [-1, 3, 2**70, -(2**70), np.uint64(2**64 - 1), 1.0, "1", True, None, np.array([1])],
    ids=["minus-one", "n", "past-int64", "negative-past-int64", "uint64-past-int64",
         "float", "string", "bool", "None", "array"],
)
def test_label_of_refuses_what_is_not_a_node_index(kind, node):
    # a tuple index would read -1 as the last label, True as node 1, and
    # end in a bare IndexError or TypeError on the rest
    g = label_stores()[kind]
    with pytest.raises(UsageError, match="node ind"):
        g.label_of(node)


@pytest.mark.parametrize("kind", sorted(label_stores()))
def test_label_of_cuts_one_label(kind, monkeypatch):
    g = label_stores()[kind]
    with monkeypatch.context() as patch:
        patch.setattr(graph_module, "_cut_labels", refuse_to_cut)
        labels = [g.label_of(0), g.label_of(np.int64(1)), g.label_of(np.uint8(2))]
    assert tuple(labels) == g.labels


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
    class Refuses(NumpyBuild):
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


def test_tokenizer_agrees_on_a_ten_kilobyte_label(compiled_kernel):
    long = "x" * 10240
    for text in (f"{long} b\nb {long}\n", f"a b\nb {long}", f"{long} {long}"):
        assert_tokenizer_agrees_with_the_line_loop(compiled_kernel, text)


def test_tokenizer_agrees_on_fifty_thousand_distinct_labels(compiled_kernel):
    # the hash table and the label buffers grow many times over
    text = "".join(f"t{i} h{i}\n" for i in range(25000)) + "t7 h24999\n"
    assert_tokenizer_agrees_with_the_line_loop(compiled_kernel, text)


@pytest.mark.parametrize("text", ["a b", "a b\nb c", "a b\nc d", "# note\na bb\nbb ccc"])
def test_tokenizer_agrees_on_a_last_label_with_no_line_break(compiled_kernel, text):
    assert_tokenizer_agrees_with_the_line_loop(compiled_kernel, text)


@pytest.mark.parametrize("final", [False, True], ids=["no-final-break", "final-break"])
@pytest.mark.parametrize("brk", ["\n", "\r"], ids=["lf", "cr"])
@pytest.mark.parametrize("width", [1, 2])
def test_tokenizer_fills_its_label_buffers_on_the_densest_text(compiled_kernel, width, brk, final):
    # every token a new label between one-byte separators: each label's
    # bytes and \n fill its token and the byte after it, so the packed
    # labels take the whole text, and one byte more when it ends in a
    # label. One-byte labels also fill the ids and offsets, two per
    # four-byte line
    chars = string.ascii_letters + string.digits
    labels = list(chars) if width == 1 else [a + b for a in chars for b in chars]
    text = brk.join(f"{t} {h}" for t, h in zip(labels[::2], labels[1::2])) + brk * final
    assert_tokenizer_agrees_with_the_line_loop(compiled_kernel, text)
    ends, packed, offsets = compiled_kernel.tokenize(text.encode("ascii"))
    assert packed == "".join(label + "\n" for label in labels).encode("ascii")
    assert len(packed) == len(text) + (not final)
    assert offsets.size == len(labels) + 1 and ends.size == len(labels)
    if width == 1 and not final:
        assert ends.size == (len(text) + 1) // 4 * 2


def test_a_parsed_graph_keeps_its_labels_and_not_the_text(compiled_kernel, monkeypatch, tmp_path):
    monkeypatch.setattr(_kernel, "_kernel", compiled_kernel)
    path = tmp_path / "commented.txt"
    path.write_text("# " + "c" * 100_000 + "\nab cd\ncd ab\n", encoding="ascii")
    g = read_edge_list(path)
    assert g.labels == ("ab", "cd")
    assert len(g._labels._packed) == len("ab\ncd\n")
    # a copy of the labels' offsets, not a view of the text-sized buffer
    offsets = g._labels._offsets
    assert offsets.tolist() == [0, 3, 6] and offsets.base is None


# Labels the library makes are not checked again, so each kind of graph
# must equal the one the public constructor builds, with every check, from
# its labels as a list and its pairs.
PARSED_LABELS = ["a", "b", "10", "x%", "é", "β"]


@st.composite
def parsed_texts(draw):
    """Edge-list text with repeats and self-loops: ASCII, or with a
    non-ASCII label, which takes the line loop."""
    labels = PARSED_LABELS if draw(st.booleans()) else PARSED_LABELS[:4]
    pairs = draw(st.lists(st.tuples(st.sampled_from(labels), st.sampled_from(labels)), min_size=1, max_size=12))
    gaps = [draw(st.sampled_from([" ", "\t", "  "])) for _ in pairs]
    return "".join(f"{t}{gap}{h}\n" for (t, h), gap in zip(pairs, gaps))


def assert_equals_its_public_twin(g, pairs=None):
    """``g`` equals the graph the public constructor builds from its labels
    and ``pairs`` (its own edges when None), in every array and flag."""
    pairs = np.column_stack([g.tails, g.heads]) if pairs is None else pairs
    twin = DirectedGraph(list(g.labels), pairs, provenance=g.provenance)
    assert g == twin and hash(g) == hash(twin)
    assert g.labels == twin.labels and g.provenance == twin.provenance
    assert g.duplicate_count == twin.duplicate_count
    for name in ("tails", "heads", "out_ptr", "out_heads", "in_ptr", "in_tails", "_keys"):
        mine, theirs = getattr(g, name), getattr(twin, name)
        assert mine.dtype == theirs.dtype and mine.tolist() == theirs.tolist()
        assert not mine.flags.writeable and not theirs.flags.writeable


def line_pairs(text: str) -> list[tuple[int, int]]:
    """Every line's (tail, head) ids, repeats included, interned as the parser does."""
    index: dict[str, int] = {}
    return [tuple(index.setdefault(label, len(index)) for label in line.split()) for line in text.splitlines()]


@settings(max_examples=150, deadline=None)
@given(parsed_texts(), st.integers(0, 2**32 - 1))
def test_parsed_and_reversed_graphs_equal_their_public_twins(compiled_kernel, text, seed):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernel, "_kernel", compiled_kernel)
        g = parse_edge_list(text)
    assert_equals_its_public_twin(g, line_pairs(text))
    for r in (0.0, 0.5, 1.0):
        assert_equals_its_public_twin(reverse_edges(g, ReversalParams(r=r, seed=seed)).graph)


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 40), st.integers(1, 3), st.floats(0, 1), st.integers(0, 2**32 - 1))
def test_generated_graphs_equal_their_public_twins(n, m, p, seed):
    ba = gen_directed_ba(BaParams(n=n, m_attach=m, m0=m, p=p, seed=seed))
    er = gen_directed_er(n, n * m, seed=seed)
    for g in (ba, er):
        assert_equals_its_public_twin(g)
        assert_equals_its_public_twin(reverse_edges(g, ReversalParams(r=0.5, seed=seed)).graph)


GRAPH_ARRAYS = ("tails", "heads", "out_ptr", "out_heads", "in_ptr", "in_tails", "_keys")


def built_both_ways(core, n: int, pairs) -> list[DirectedGraph]:
    """The graph of labels 0..n-1 and ``pairs``, built by the compiled
    ``netctrl_build`` and by the numpy build."""
    graphs = []
    for compiled in (core, None):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_kernel, "_kernel", compiled)
            graphs.append(DirectedGraph([str(i) for i in range(n)], pairs))
    return graphs


def assert_builds_agree(core, n: int, pairs) -> None:
    compiled, numpy_built = built_both_ways(core, n, pairs)
    for name in GRAPH_ARRAYS:
        mine, theirs = getattr(compiled, name), getattr(numpy_built, name)
        assert mine.dtype == theirs.dtype == np.int64 and mine.tolist() == theirs.tolist(), name
        assert not mine.flags.writeable and not theirs.flags.writeable
    assert compiled.duplicate_count == numpy_built.duplicate_count
    assert compiled == numpy_built and hash(compiled) == hash(numpy_built)


@settings(max_examples=300, deadline=None)
@given(pair_lists(max_n=9))
@example((1, []))  # one node, no edge
@example((1, [(0, 0), (0, 0), (0, 0)]))  # one node, a repeated self-loop
@example((5, [(0, 1), (0, 1), (2, 2), (1, 0), (2, 2), (0, 1)]))  # repeats, self-loops, isolated 3 and 4
@example((4, [(3, 0), (2, 0), (1, 0), (3, 0), (0, 3)]))  # a row against input order
def test_compiled_build_equals_numpys_on_pairs_with_repeats(compiled_kernel, case):
    n, pairs = case
    assert_builds_agree(compiled_kernel, n, pairs)


@settings(max_examples=150, deadline=None)
@given(digraphs(max_n=12))
@example(DirectedGraph(["0", "1", "2"], []))
def test_compiled_build_equals_numpys_on_simple_graphs(compiled_kernel, g):
    assert_builds_agree(compiled_kernel, g.node_count, list(g.edges))


def test_compiled_build_refuses_what_the_constructor_refuses(compiled_kernel, monkeypatch):
    # the builders check the node indices themselves, with the same message
    # on both engines; a node count past MAX_NODES is refused before either
    for core in (compiled_kernel, None):
        monkeypatch.setattr(_kernel, "_kernel", core)
        with pytest.raises(ValueError, match=r"edge \(1, 3\) out of range for 3 nodes"):
            DirectedGraph(["a", "b", "c"], [(0, 1), (1, 3)])
        with pytest.raises(ValueError, match=r"edge \(-1, 0\) out of range"):
            DirectedGraph(["a", "b"], [(-1, 0)])
        with pytest.raises(ValueError, match="more node pairs than int64"):
            DirectedGraph(graph_module._Labels(graph_module._MAX_NODES + 1), [])
    buffer = graph_module._edge_buffer(3, 1)
    buffer[:2] = (0, 3)
    assert compiled_kernel.build(3, 1, buffer) == graph_module._build_arrays(3, 1, buffer.copy()) == -1
    assert compiled_kernel.build(graph_module._MAX_NODES + 1, 0, buffer) == -1


def tokenized_capacity(core, text: str) -> int:
    """How many ids the tokenizer's ``ends`` buffer had room for."""
    ends, _, _ = core.tokenize(text.encode("ascii"))
    return (ends if ends.base is None else ends.base).size


@pytest.mark.parametrize(
    "text, lines",
    [
        ("a b", 1),  # a last line of three bytes, no line break
        ("ab cd\nx y", 2),
        ("# only\n\n% comments\n\n", 5),
        ("a b\r\nb c\r\n", 2),  # \r\n is a break and a blank line; the text bounds it first
        ("aa bb\r\ncc dd\r\n", 3),
        ("a b\n" * 300, 300),  # both bounds: ids for every line, exactly
        ("\n" * 4000 + "a b", 1001),  # far more lines than edges: the text bounds them
        ("longer_label another\n" * 50 + "x y\x0bz w\x0cu v\x1cs t", 54),  # every kind of break counts
    ],
    ids=["three-bytes", "last-line-unbroken", "comments-only", "crlf", "crlf-long", "full",
         "lines-past-edges", "other-breaks"],
)
def test_tokenizer_sizes_its_ids_by_the_line_count(compiled_kernel, text, lines):
    # two ids per line, where a line is at most the line breaks + 1 and an
    # edge line takes four bytes or more
    assert lines == min(sum(text.count(b) for b in "\n\r\x0b\x0c\x1c\x1d\x1e") + 1, (len(text) + 1) // 4)
    assert_tokenizer_agrees_with_the_line_loop(compiled_kernel, text)
    assert tokenized_capacity(compiled_kernel, text) == 2 * lines


def test_reading_an_edge_list_takes_little_more_than_the_graph(compiled_kernel, monkeypatch, tmp_path):
    # numpy reports its buffers to tracemalloc. Past the text and the
    # graph's own arrays, a read holds the tokenizer's ids and label
    # offsets (16 bytes per line each), its packed labels (a byte per text
    # byte) and a few small arrays: a slack of one text, 32 bytes per line
    # and 64 KiB. Buffers sized by the text at 8 bytes per text byte, or a
    # build that keeps a dozen edge-long temporaries, do not fit
    monkeypatch.setattr(_kernel, "_kernel", compiled_kernel)
    text = to_edge_list(gen_directed_er(10_000, 20_000, seed=5))
    path = tmp_path / "er.txt"
    path.write_text(text, encoding="ascii")
    lines = text.count("\n") + 1
    tracemalloc.start()
    try:
        g = read_edge_list(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    own = g.tails.base.nbytes + len(g._labels._packed) + g._labels._offsets.nbytes
    slack = len(text) + 32 * lines + 64 * 1024
    assert peak <= own + len(text) + slack, f"peak {peak} B, graph {own} B, text {len(text)} B"
