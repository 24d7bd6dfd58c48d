import io
import re
import time
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hubrknn import (
    INFINITY,
    ConfigError,
    FormatError,
    Graph,
    LabelSet,
    ParseError,
    bfs_distances,
    degree_ordering,
    largest_connected_component,
    parse_edge_list,
    parse_object_file,
)
import hubrknn.graph
from hubrknn.graph import text_crc

from graphgen import random_connected_graph


def is_connected(graph):
    return INFINITY not in bfs_distances(graph, 0).dist


def serialize_edge_list(graph, sink):
    """Write a graph as an edge list that parses back to an identical Graph.

    The leading self-pair lines exist only to pin the dense numbering: the
    parser drops them as self-loops but still records each ID's first
    appearance, so re-parsing reproduces the exact raw-to-dense mapping.
    """
    sink.write("# vertex introductions (self-pairs), then one line per edge\n")
    raw = graph.raw_ids
    for r in raw:
        sink.write(f"{r} {r}\n")
    for u in range(graph.vertex_count):
        for v in graph.adjacency[u]:
            if v > u:
                sink.write(f"{raw[u]} {raw[v]}\n")


def rank(ordering):
    """Inverse permutation: rank[v] = position of v in the order."""
    out = [0] * len(ordering)
    for pos, v in enumerate(ordering):
        out[v] = pos
    return out


def test_parse_minimal_path():
    g = parse_edge_list("0 1\n1 2")
    assert g.vertex_count == 3
    assert g.edge_count == 2
    assert g.adjacency == [[1], [0, 2], [1]]


def test_parse_drops_self_loops_and_duplicates():
    g = parse_edge_list("# c\n5 5\n5 7\n7 5")
    assert g.vertex_count == 2
    assert g.edge_count == 1
    assert g.raw_ids == [5, 7]
    assert g.dense_id(5) == 0 and g.dense_id(7) == 1


def test_parse_percent_comments_and_blank_lines():
    g = parse_edge_list("% header\n\n1 2\n")
    assert g.vertex_count == 2 and g.edge_count == 1


def test_parse_fixture_tree(tree14):
    from fixtures import TREE14_TEXT

    g = parse_edge_list(TREE14_TEXT)
    assert g == tree14
    assert g.vertex_count == 14 and g.edge_count == 13


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("0 1\n0 x", "line 2"),
        ("0 1 2", "tokens"),
        ("7", "tokens"),
        ("0 -1", "negative"),
    ],
)
def test_parse_errors_carry_line_info(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_edge_list(text)
    assert fragment in str(err.value)


def test_parse_empty_input_rejected():
    with pytest.raises(ParseError):
        parse_edge_list("# only comments\n")


def test_degree_sum_matches_edge_count():
    g = random_connected_graph(64, 100, seed=7)
    assert sum(len(g.adjacency[v]) for v in range(g.vertex_count)) == 2 * g.edge_count


def test_roundtrip_fixture(tree14):
    sink = io.StringIO()
    serialize_edge_list(tree14, sink)
    assert parse_edge_list(sink.getvalue()) == tree14


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=40, deadline=None)
def test_roundtrip_random_graphs(seed):
    g = random_connected_graph(2 + seed % 40, seed % 60, seed=seed)
    sink = io.StringIO()
    serialize_edge_list(g, sink)
    assert parse_edge_list(sink.getvalue()) == g


def test_roundtrip_preserves_sparse_raw_ids():
    g = parse_edge_list("100 7\n7 999999999999\n100 3")
    sink = io.StringIO()
    serialize_edge_list(g, sink)
    again = parse_edge_list(sink.getvalue())
    assert again == g
    assert again.raw_ids == [100, 7, 999999999999, 3]


def test_parse_records_the_texts_crc(tmp_path):
    """A parsed graph, and its LCC, keep the CRC-32 of the text as read: a
    file with CRLF line ends reads, and records, as its LF text does."""
    text = "# c\n1 2\n2 3\n8 9\n"
    crc = zlib.crc32(text.encode())
    path = tmp_path / "crlf.txt"
    path.write_bytes(text.replace("\n", "\r\n").encode())
    with open(path, encoding="utf-8") as f:
        from_file = parse_edge_list(f)
    for graph in (parse_edge_list(text), from_file):
        assert graph.edge_list_crc == text_crc(text) == crc
        assert largest_connected_component(graph).edge_list_crc == crc
    assert parse_edge_list("1 2\n2 3\n8 9\n") == from_file  # equality ignores the CRC
    assert Graph.from_edges([(1, 2)]).edge_list_crc is None


@pytest.mark.parametrize("chunk", [1, 7, 64, 1 << 16])
def test_parse_reads_a_stream_chunk_by_chunk(tmp_path, monkeypatch, chunk):
    """Lines that straddle chunks parse whole, the CRC is the whole text's,
    and a ParseError names the line number the file gives the line."""
    monkeypatch.setattr(hubrknn.graph, "_CHUNK", chunk)
    text = "# é café\r\n" + "".join(f"{v} {v + 1}\r\n% ü\n" for v in range(40)) + "7 9"
    path = tmp_path / "chunks.txt"
    path.write_bytes(text.encode())
    with open(path, encoding="utf-8") as f:
        graph = parse_edge_list(f)
    as_read = text.replace("\r\n", "\n")
    assert graph == parse_edge_list(as_read)
    assert graph.edge_list_crc == zlib.crc32(as_read.encode())
    path.write_bytes((text + "\n0 1 2\n").encode())
    with open(path, encoding="utf-8") as f, pytest.raises(ParseError, match="^line 83: "):
        parse_edge_list(f)


@pytest.mark.parametrize("parse", [parse_edge_list, parse_object_file])
@pytest.mark.parametrize(
    "data, reason",
    [
        (b"# \xff\n1 2\n", "invalid start byte (0xff)"),
        (b"1 2\n# caf\xc3(\n", "invalid continuation byte (0xc3)"),
        (b"1 2\n# \xe2\x82", "unexpected end of data (0xe2)"),
    ],
    ids=["start", "continuation", "end"],
)
def test_non_utf8_text_is_a_parse_error(parse, data, reason):
    """Both parsers read a byte stream that is not UTF-8 as malformed text."""
    stream = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    with pytest.raises(ParseError, match=rf"^not UTF-8 text: {re.escape(reason)}$"):
        parse(stream)


def _parsed(parse, source):
    """What ``parse`` makes of ``source``: its result and, for a graph, the
    recorded CRC; or the ParseError message, which names the line."""
    try:
        result = parse(source)
    except ParseError as exc:
        return "ParseError", str(exc)
    return result, getattr(result, "edge_list_crc", None)


# Characters that str.splitlines() breaks a line at but a text stream does not.
_NOT_NEWLINES = ["\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("char", _NOT_NEWLINES, ids=[f"{ord(c):x}" for c in _NOT_NEWLINES])
def test_a_text_parses_as_a_stream_holding_it(end, char):
    """A ``str`` splits into lines only at "\\n", as a text stream does: the
    same graph and CRC, or the same ParseError with the same line number,
    from both; a character inside a line is whitespace, or part of a token."""
    edge_texts = [f"1{char}2{end}2 3{end}", f"# a{char}b{end}1 2{end}3{end}"]
    object_texts = [f"4{char}5{end}", f"# a{char}b{end}4{end}"]
    for parse, texts in ((parse_edge_list, edge_texts), (parse_object_file, object_texts)):
        for text in texts:
            assert _parsed(parse, text) == _parsed(parse, io.StringIO(text))
    for source in (edge_texts[0], io.StringIO(edge_texts[0])):
        assert parse_edge_list(source) == Graph.from_edges([(1, 2), (2, 3)])
    assert _parsed(parse_edge_list, edge_texts[1]) == (
        "ParseError", "line 3: expected two vertex IDs, found 1 tokens"
    )
    assert _parsed(parse_object_file, object_texts[1]) == ([4], None)


@pytest.mark.parametrize(
    "make",
    [lambda raw_ids: Graph([[]] * len(raw_ids), raw_ids),
     lambda raw_ids: LabelSet([[v] for v in range(len(raw_ids))], [[0]] * len(raw_ids), raw_ids)],
    ids=["graph", "labelset"],
)
def test_graph_and_labels_map_raw_ids_alike(make):
    """One ``dense_id`` over ``raw_ids``: a known ID maps to its position,
    an absent one is a ConfigError, and a table naming an ID twice is a
    FormatError."""
    mapped = make([10, 2**40, 30])
    assert [mapped.dense_id(r) for r in (30, 10, 2**40)] == [2, 0, 1]
    with pytest.raises(ConfigError, match="^vertex 7 is not in the graph$"):
        mapped.dense_id(7)
    with pytest.raises(FormatError, match="^the raw-ID table names a raw ID twice$"):
        make([5, 6, 5]).dense_id(6)


def test_lcc_identity_on_connected_input():
    g = parse_edge_list("0 1\n1 2")
    assert largest_connected_component(g) is g


def test_lcc_keeps_larger_component():
    # the larger component first, then last: the early stop must not cut it
    for text in ("0 1\n1 2\n8 9", "8 9\n0 1\n1 2"):
        g = parse_edge_list(text)
        lcc = largest_connected_component(g)
        assert lcc.vertex_count == 3
        assert lcc.raw_ids == [0, 1, 2]
        assert is_connected(lcc)


def test_lcc_tie_goes_to_smallest_dense_id():
    # two components of size 2; the one holding dense vertex 0 must win
    g = parse_edge_list("10 11\n20 21")
    lcc = largest_connected_component(g)
    assert lcc.raw_ids == [10, 11]


def test_lcc_output_connected_on_random_multicomponent():
    # brute-force check: component chosen by the library matches max size
    text = "\n".join(
        ["0 1", "1 2", "2 3", "3 0", "50 51", "51 52", "90 91"]
    )
    g = parse_edge_list(text)
    lcc = largest_connected_component(g)
    assert lcc.vertex_count == 4
    assert is_connected(lcc)


def test_lcc_is_linear_in_the_component_count():
    # 20,000 two-vertex components: one pass over them takes well under
    # 0.1 s, and a rescan of the visited flags per component several seconds
    g = Graph.from_edges((2 * i, 2 * i + 1) for i in range(20_000))
    t0 = time.perf_counter()
    lcc = largest_connected_component(g)
    assert time.perf_counter() - t0 < 2.0
    assert lcc.raw_ids == [0, 1]  # all tie; the smallest dense ID wins


def test_degree_ordering_star_center_first():
    g = parse_edge_list("0 1\n0 2\n0 3\n0 4")
    assert degree_ordering(g)[0] == 0


def test_degree_ordering_fixture(tree14):
    from fixtures import TREE14_ORDER

    assert degree_ordering(tree14) == TREE14_ORDER


def test_degree_ordering_ring_pure_id_tiebreak():
    n = 8
    g = Graph.from_edges([(i, (i + 1) % n) for i in range(n)])
    assert degree_ordering(g) == tuple(range(n))


def test_ordering_rank_is_inverse():
    g = random_connected_graph(30, 40, seed=3)
    ordering = degree_ordering(g)
    inverse = rank(ordering)
    for pos, v in enumerate(ordering):
        assert inverse[v] == pos
    by_degree = sorted(range(g.vertex_count), key=lambda v: (-len(g.adjacency[v]), v))
    assert [inverse[v] for v in by_degree] == list(range(g.vertex_count))
