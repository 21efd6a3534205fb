import tracemalloc

import pytest
from hypothesis import given

from mdimlab import (
    DisconnectedError,
    ParseError,
    TooSmallError,
    build_graph,
    cycle_graph,
    emit_edge_list,
    emit_graph,
    emit_graph6,
    parse_edge_list,
    parse_graph,
    parse_graph6,
    path_graph,
    read_graphs,
    subdivision,
)
from mdimlab.formats import derived_to_dot, graph_to_dot

from conftest import connected_graphs


def test_parse_minimal_edge_list():
    assert parse_edge_list("2 1\n0 1\n") == path_graph(2)


def test_parse_edge_list_tolerates_blank_lines():
    assert parse_edge_list("\n3 2\n\n0 1\n1 2\n\n") == path_graph(3)


def test_edge_list_index_out_of_range_reports_line():
    with pytest.raises(ParseError) as err:
        parse_edge_list("3 1\n0 3\n")
    assert err.value.line == 2


@pytest.mark.parametrize(
    "text, line",
    [
        ("3\n0 1\n1 2\n", 1),          # header not 'n m'
        ("x y\n", 1),                   # non-integer header
        ("3 2\n0 1\n", 2),              # missing edge line; points at last line seen
        ("2 1\n0 1 2\n", 2),            # edge line not 'u v'
        ("2 1\na b\n", 2),              # non-integer endpoints
    ],
)
def test_edge_list_errors_carry_positions(text, line):
    with pytest.raises(ParseError) as err:
        parse_edge_list(text)
    assert err.value.line == line


@pytest.mark.parametrize("data, message", [
    (b"2 1\n0\x1c1\n", "edge line must be 'u v' (line 2)"),
    (b"2 1\n0 1\n\x0b\n", "expected 1 edge lines, found 2 (line 3)"),
    (b"2 1\n+0 1\n", "edge endpoints must be integers (line 2)"),
    (b"2 1\n1_0 0\n", "edge endpoints must be integers (line 2)"),
    (b"1_1 1_0\n0 1\n", "header must hold two integers (line 1)"),
    (b"2 1\n-1 1\n", "vertex index out of range 0..1 (line 2)"),
])
def test_edge_list_fields_are_digits_between_blanks(data, message):
    # fields split only at spaces, tabs and CRs; each is '-'? then ASCII digits
    with pytest.raises(ParseError) as err:
        parse_edge_list(data)
    assert str(err.value) == message


@pytest.mark.parametrize("data", [b"2 1\n0 \xc3\xa91\n", b"A\xff\n"])
def test_non_ascii_input_is_rejected(data):
    for reader in (read_graphs, parse_graph):
        with pytest.raises(ParseError, match="input is not ASCII"):
            reader(data)


def test_edge_list_fields_may_be_split_by_tabs_and_crs():
    assert parse_edge_list(b" 2\t1\r\n\t0 \t1\r\n \r\n") == path_graph(2)


def test_empty_inputs_rejected():
    with pytest.raises(ParseError):
        parse_edge_list("   \n")
    with pytest.raises(ParseError):
        parse_graph6("")
    with pytest.raises(ParseError):
        parse_graph("  ")


def test_semantic_errors_are_not_parse_errors():
    with pytest.raises(DisconnectedError):
        parse_edge_list("3 1\n0 1\n")


def test_known_graph6_star():
    g = parse_graph6("D?{")
    assert g.n == 5
    assert set(g.edges) == {(0, 4), (1, 4), (2, 4), (3, 4)}  # star centered at 4
    assert emit_graph6(g) == b"D?{\n"


def test_graph6_header_accepted():
    assert parse_graph6(">>graph6<<D?{") == parse_graph6("D?{")


def test_graph6_single_edge():
    k2 = path_graph(2)
    assert emit_graph6(k2) == b"A_\n"
    assert parse_graph6("A_") == k2


def test_graph6_byte_errors():
    with pytest.raises(ParseError) as err:
        parse_graph6("D?\x1f")
    assert err.value.position == 2
    with pytest.raises(ParseError):
        parse_graph6("D?")        # truncated body
    with pytest.raises(ParseError):
        parse_graph6("D?{{")      # oversized body
    with pytest.raises(ParseError):
        parse_graph6("A`")        # nonzero padding bits


def test_graph6_tiny_graphs_fail_graph_invariant():
    with pytest.raises(TooSmallError):
        parse_graph6("@")  # a single vertex decodes but is below the size floor


def test_multibyte_vertex_count_round_trip():
    g = path_graph(70)
    data = emit_graph6(g)
    assert data.startswith(b"~")
    assert parse_graph6(data) == g


@pytest.mark.parametrize("n, head", [(62, b"}"), (63, b"~??~")])
def test_graph6_vertex_count_forms_at_the_one_byte_limit(n, head):
    data = emit_graph6(path_graph(n))
    assert data.startswith(head) and len(data) == len(head) + (n * (n - 1) // 2 + 5) // 6 + 1
    assert parse_graph6(data) == path_graph(n)


@pytest.mark.parametrize("data, message", [
    ("~", "truncated 36-bit vertex count (byte 1)"),
    ("~?", "truncated 18-bit vertex count (byte 2)"),
])
def test_graph6_truncated_vertex_counts(data, message):
    with pytest.raises(ParseError) as err:
        parse_graph6(data)
    assert str(err.value) == message


def test_graph6_36_bit_count_checks_the_body_length_before_reading_it():
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as err:
            parse_graph6("~~???~??")  # n = 258,048: the smallest 36-bit count
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(err.value) == "adjacency body has 0 bytes, expected 5549042688 (byte 7)"
    assert peak < 1 << 20


def test_autodetect():
    assert parse_graph("2 1\n0 1\n") == path_graph(2)
    assert parse_graph("D?{").n == 5
    assert parse_graph(b">>graph6<<D?{").n == 5


def test_read_graphs_multiline_graph6():
    data = emit_graph6(path_graph(3)) + emit_graph6(cycle_graph(4))
    graphs = read_graphs(data)
    assert [g.n for g in graphs] == [3, 4]


@pytest.mark.parametrize("data, message", [
    (b"A_\x0bA_", "byte 11 outside graph6 range 63..126 (byte 2)"),
    (b"A_\n\x1c\nA_\n", "byte 28 outside graph6 range 63..126 (byte 0)"),
])
def test_graph6_lines_split_at_line_feeds_only(data, message):
    for reader in (read_graphs, parse_graph):
        with pytest.raises(ParseError) as err:
            reader(data)
        assert str(err.value) == message


def test_graph6_lines_may_end_in_crlf():
    assert read_graphs(b"A_\r\nA_\r\n") == [path_graph(2)] * 2
    assert read_graphs(b"A_\n \t\r\nA_\n") == [path_graph(2)] * 2


def test_read_graphs_single_edge_list():
    graphs = read_graphs("4 3\n0 1\n1 2\n2 3\n")
    assert graphs == [path_graph(4)]


def test_emit_edge_list_is_sorted():
    g = build_graph(4, [(3, 2), (1, 0), (0, 2)])
    assert emit_edge_list(g) == b"4 3\n0 1\n0 2\n2 3\n"


def test_emit_graph_format_dispatch():
    g = path_graph(3)
    assert emit_graph(g) == emit_edge_list(g)
    assert emit_graph(g, "graph6") == emit_graph6(g)
    with pytest.raises(ParseError):
        emit_graph(g, "pajek")


@given(connected_graphs())
def test_edge_list_round_trip(g):
    assert parse_edge_list(emit_edge_list(g)) == g


@given(connected_graphs())
def test_graph6_round_trip(g):
    data = emit_graph6(g)
    assert parse_graph6(data) == g
    assert emit_graph6(parse_graph6(data)) == data


def test_dot_for_plain_graph():
    dot = graph_to_dot(path_graph(3), name="p3")
    assert dot.startswith("graph p3 {")
    assert "v0 -- v1;" in dot and "v1 -- v2;" in dot


def test_dot_for_derived_graph_carries_provenance_and_classes():
    dot = derived_to_dot(subdivision(path_graph(2)))
    assert 'label="0: orig 0"' in dot
    assert 'label="2: split e0"' in dot and "shape=box" in dot
    assert 'eclass="sedge"' in dot


def test_unrecognized_input_gives_one_message_from_both_readers():
    with pytest.raises(ParseError) as single:
        parse_graph("!3 0\n")
    with pytest.raises(ParseError) as every:
        read_graphs("!3 0\n")
    assert str(single.value) == str(every.value)
    assert "cannot recognize input starting with '!'" in str(single.value)
