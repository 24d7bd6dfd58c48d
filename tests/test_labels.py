import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hubrknn import (
    INFINITY,
    FormatError,
    Graph,
    LabelSet,
    bfs_distances,
    build_pll_labels,
    degree_ordering,
    hl_distance,
    load_labels,
    save_labels,
)

from fixtures import TREE14_LABELS, TREE14_TOTAL_PAIRS, label_pairs
from graphgen import preferential_attachment_graph, random_connected_graph


def test_single_vertex_label():
    g = Graph.from_edges([(3, 3)])  # lone vertex via a dropped self-loop
    labels = build_pll_labels(g)
    assert label_pairs(labels, 0) == [(0, 0)]
    assert hl_distance(labels, 0, 0) == 0


def test_fixture_labels_match_golden(tree14_labels):
    assert tree14_labels.total_pairs == TREE14_TOTAL_PAIRS
    for v, expected in TREE14_LABELS.items():
        assert label_pairs(tree14_labels, v) == expected


def test_fixture_spot_distances(tree14_labels):
    assert hl_distance(tree14_labels, 11, 13) == 4  # via the shared hub 1: 2+2
    for v in range(14):
        assert hl_distance(tree14_labels, v, v) == 0


def test_out_of_range_vertex_rejected(tree14_labels):
    with pytest.raises(ValueError):
        hl_distance(tree14_labels, 0, 14)


def test_random_graph_all_pairs_match_bfs():
    g = random_connected_graph(64, 96, seed=11)
    labels = build_pll_labels(g)
    for s in range(g.vertex_count):
        row = bfs_distances(g, s).dist
        for t in range(g.vertex_count):
            assert hl_distance(labels, s, t) == row[t]


def test_random_pairs_match_bfs_on_pa_graph():
    g = preferential_attachment_graph(64, 2, seed=5)
    labels = build_pll_labels(g)
    rng = random.Random(17)
    rows = {}
    for _ in range(1000):
        s, t = rng.randrange(64), rng.randrange(64)
        if s not in rows:
            rows[s] = bfs_distances(g, s).dist
        assert hl_distance(labels, s, t) == rows[s][t]


def test_own_hub_entry_present_everywhere():
    g = random_connected_graph(50, 70, seed=23)
    labels = build_pll_labels(g)
    for v in range(g.vertex_count):
        assert (v, 0) in label_pairs(labels, v)


def test_labels_minimal_on_fixture(tree14, tree14_labels):
    """Dropping any single pair must break some distance on the fixture."""
    truth = [bfs_distances(tree14, s).dist for s in range(14)]
    for v in range(14):
        for pos in range(len(tree14_labels.hubs[v])):
            hubs = [list(h) for h in tree14_labels.hubs]
            dists = [list(d) for d in tree14_labels.dists]
            del hubs[v][pos], dists[v][pos]
            mutated = LabelSet(hubs, dists, tree14_labels.total_pairs - 1)
            broken = any(
                hl_distance(mutated, s, t) != truth[s][t]
                for s in range(14)
                for t in range(14)
            )
            assert broken, f"pair {pos} of vertex {v} is redundant"


def test_distance_width_guard():
    n = 300  # path graph: first landmark sits at one end of a long chain
    g = Graph.from_edges([(i, i + 1) for i in range(n - 1)])
    with pytest.raises(FormatError) as err:
        build_pll_labels(g)
    assert "255" in str(err.value)


def test_save_load_roundtrip_fixture(tree14_labels):
    sink = io.BytesIO()
    save_labels(tree14_labels, sink)
    loaded = load_labels(io.BytesIO(sink.getvalue()))
    assert loaded == tree14_labels
    assert loaded.total_pairs == tree14_labels.total_pairs


def test_load_rejects_corrupted_magic(tree14_labels):
    sink = io.BytesIO()
    save_labels(tree14_labels, sink)
    data = bytearray(sink.getvalue())
    data[0] ^= 0xFF
    with pytest.raises(FormatError):
        load_labels(io.BytesIO(bytes(data)))


def test_load_rejects_truncation(tree14_labels):
    sink = io.BytesIO()
    save_labels(tree14_labels, sink)
    with pytest.raises(FormatError):
        load_labels(io.BytesIO(sink.getvalue()[:-3]))


def test_load_rejects_unsorted_label(tree14_labels):
    sink = io.BytesIO()
    save_labels(tree14_labels, sink)
    data = bytearray(sink.getvalue())
    # vertex 0 has one pair (hub 0) right after the 4-byte count at offset 13;
    # bump its hub above vertex 1's first hub... simpler: swap vertex 1's two
    # pairs, which makes its hubs descend.
    base = 13 + 4 + 5 + 4  # header, v0 count, v0 pair, v1 count
    pair1, pair2 = data[base : base + 5], data[base + 5 : base + 10]
    data[base : base + 5], data[base + 5 : base + 10] = pair2, pair1
    with pytest.raises(FormatError) as err:
        load_labels(io.BytesIO(bytes(data)))
    assert "sorted" in str(err.value)


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=100, deadline=None)
def test_roundtrip_random_labelsets_byte_identical(seed):
    g = random_connected_graph(2 + seed % 24, seed % 40, seed=seed)
    labels = build_pll_labels(g, degree_ordering(g))
    sink = io.BytesIO()
    save_labels(labels, sink)
    data = sink.getvalue()
    again = io.BytesIO()
    save_labels(load_labels(io.BytesIO(data)), again)
    assert again.getvalue() == data


def test_disconnected_pair_reports_infinity():
    # labels built per component still answer INFINITY across components
    g = Graph.from_edges([(0, 1), (2, 3)])
    labels = build_pll_labels(g)
    assert hl_distance(labels, 0, 3) == INFINITY
