import gc
import hashlib
import io
import random
import struct
import tracemalloc
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hubrknn import (
    INFINITY,
    MAX_DIST,
    ConfigError,
    FormatError,
    Graph,
    LabelSet,
    bfs_distances,
    build_pll_labels,
    degree_ordering,
    hl_distance,
    largest_connected_component,
    load_labels,
    parse_edge_list,
    save_labels,
)
from hubrknn.labels import _PAIR

from fixtures import TREE14_LABELS, TREE14_TEXT, TREE14_TOTAL_PAIRS, label_pairs
from graphgen import preferential_attachment_graph, random_connected_graph


def reference_pll(graph, ordering):
    """Pruned landmark labeling with the per-vertex prune test, as a reference.

    The visit to w at depth d is pruned when some hub h of w's label has
    dist(root, h) + dist(h, w) <= d, read from the root's label.
    """
    n = graph.vertex_count
    adjacency = graph.adjacency
    hubs = [[] for _ in range(n)]
    dists = [[] for _ in range(n)]
    root_dist = [INFINITY] * n  # distances root -> hub, indexed by hub
    seen = bytearray(n)
    for root in ordering:
        for h, dh in zip(hubs[root], dists[root]):
            root_dist[h] = dh
        seen[root] = 1
        touched = [root]
        level = [root]
        d = 0
        while level:
            next_level = []
            for w in level:
                if any(root_dist[h] + dh <= d for h, dh in zip(hubs[w], dists[w])):
                    continue
                if d > MAX_DIST:
                    raise FormatError(f"hop distance {d} exceeds {MAX_DIST}")
                hubs[w].append(root)
                dists[w].append(d)
                for x in adjacency[w]:
                    if not seen[x]:
                        seen[x] = 1
                        next_level.append(x)
            touched.extend(next_level)
            level = next_level
            d += 1
        for h in hubs[root]:
            root_dist[h] = INFINITY
        for v in touched:
            seen[v] = 0
    for v in range(n):
        pairs = sorted(zip(hubs[v], dists[v]))
        hubs[v] = [h for h, _ in pairs]
        dists[v] = [d for _, d in pairs]
    return LabelSet(hubs, dists)


def all_pairs(labels):
    """Every label as (hub, dist) pairs in hub order, whatever the stored order."""
    return [label_pairs(labels, v) for v in range(labels.vertex_count)]


def random_ordering(graph, seed):
    order = list(range(graph.vertex_count))
    random.Random(seed).shuffle(order)
    return tuple(order)


def path_graph(n):
    return Graph.from_edges([(i, i + 1) for i in range(n - 1)])


def tree_graph(n, seed):
    rng = random.Random(seed)
    return Graph.from_edges([(rng.randrange(v), v) for v in range(1, n)])


def two_component_graph():
    left = [(i, (i * 7 + 3) % 40) for i in range(40)] + [(i, i + 1) for i in range(39)]
    right = [(100 + i, 100 + (i * i) % 25) for i in range(25)]
    return Graph.from_edges(left + right + [(100 + i, 101 + i) for i in range(24)])


BUILD_GRAPHS = {
    **{
        f"pa-{n}-{attach}-s{seed}": preferential_attachment_graph(n, attach, seed)
        for n, attach in ((300, 1), (300, 3), (200, 12))
        for seed in (1, 2, 3)
    },
    **{
        f"random-{n}-{extra}-s{seed}": random_connected_graph(n, extra, seed)
        for n, extra, seed in ((150, 40, 4), (150, 400, 5), (80, 1500, 6))
    },
    "tree-200": tree_graph(200, 7),
    "path-60": path_graph(60),
    "two-components": two_component_graph(),
}


@pytest.mark.parametrize("order_seed", [None, 11, 12])
@pytest.mark.parametrize("name", sorted(BUILD_GRAPHS))
def test_build_matches_reference_pll(name, order_seed):
    g = BUILD_GRAPHS[name]
    if order_seed is None:
        ordering = degree_ordering(g)
    else:
        ordering = random_ordering(g, order_seed)
    labels = build_pll_labels(g, ordering)
    expected = reference_pll(g, ordering)
    assert all_pairs(labels) == all_pairs(expected)
    assert labels.total_pairs == expected.total_pairs


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=120),
       st.integers(min_value=0, max_value=2**32))
@settings(max_examples=100, deadline=None)
def test_build_matches_reference_on_random_graphs(n, edge_count, seed):
    rng = random.Random(seed)
    edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(edge_count)]
    g = Graph.from_edges(edges + [(v, v) for v in range(n)])  # loops keep every vertex
    ordering = random_ordering(g, seed)
    labels = build_pll_labels(g, ordering)
    expected = reference_pll(g, ordering)
    assert all_pairs(labels) == all_pairs(expected)
    assert labels.total_pairs == expected.total_pairs


def test_build_bytes_on_the_criterion_graph_are_pinned(pa3k, pa3k_labels):
    """PA 3000/12 (seed 1234), the benchmark's 3k graph, through the LCC and
    degree order, saves to the bytes of the build that sorted (dist, hub)
    tuples at its end."""
    assert (pa3k.edge_count, pa3k_labels.total_pairs) == (35_864, 298_389)
    assert hashlib.sha256(_saved(pa3k_labels)).hexdigest() == (
        "ec165b8873ba2d8ffeaa34d4ed888dc2da5f6b0a673666711a8cbaf3a724e5db"
    )


def _assert_distance_major(labels):
    """Each label starts with (v, 0) and ascends strictly by (dist, hub)."""
    for v in range(labels.vertex_count):
        pairs = list(zip(labels.dists[v], labels.hubs[v]))
        assert pairs[0] == (0, v)
        assert all(a < b for a, b in zip(pairs, pairs[1:]))
        assert 0 not in labels.dists[v][1:]


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=60, deadline=None)
def test_built_and_loaded_labels_are_distance_major(seed):
    n = 2 + seed % 90
    if seed % 2:
        g = preferential_attachment_graph(n, 1 + seed % 5, seed=seed)
    else:
        g = random_connected_graph(n, seed % 150, seed=seed)
    built = build_pll_labels(g, random_ordering(g, seed))
    _assert_distance_major(built)
    loaded = load_labels(io.BytesIO(_saved(built)))
    _assert_distance_major(loaded)
    _assert_compact(loaded)
    assert loaded == built


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
    with pytest.raises(ConfigError, match=r"^vertex pair \(0, 14\) out of range for 14 vertices$"):
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
            mutated = LabelSet(hubs, dists)
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


def test_distance_width_boundary():
    # first landmark at one end: its BFS reaches hop n - 1
    longest = path_graph(MAX_DIST + 1)
    labels = build_pll_labels(longest, tuple(range(MAX_DIST + 1)))
    assert hl_distance(labels, 0, MAX_DIST) == MAX_DIST
    sink = io.BytesIO()
    save_labels(labels, sink)
    assert load_labels(io.BytesIO(sink.getvalue())) == labels

    too_long = path_graph(MAX_DIST + 2)
    with pytest.raises(FormatError) as err:
        build_pll_labels(too_long, tuple(range(MAX_DIST + 2)))
    assert "255" in str(err.value)


@pytest.mark.parametrize(
    "order",
    [
        pytest.param((0, 1, 1, 3), id="repeated-vertex"),
        pytest.param((0, 1, 2, 4), id="vertex-beyond-n"),
        pytest.param((0, 1, 2), id="too-short"),
        pytest.param((0, 1, 2, 3, 4), id="too-long"),
    ],
)
def test_build_rejects_an_ordering_that_is_not_a_permutation(order):
    with pytest.raises(ConfigError, match="^ordering is not a permutation of the graph's"):
        build_pll_labels(path_graph(4), order)


def test_save_load_roundtrip_fixture(tree14_labels):
    sink = io.BytesIO()
    save_labels(tree14_labels, sink)
    loaded = load_labels(io.BytesIO(sink.getvalue()))
    assert loaded == tree14_labels
    assert loaded.total_pairs == tree14_labels.total_pairs


def _assert_compact(labels):
    """Distances are bytes, and each hub value is one shared int object."""
    shared = {}
    for v in range(labels.vertex_count):
        assert type(labels.dists[v]) is bytes
        assert len(labels.dists[v]) == len(labels.hubs[v])
        for h in labels.hubs[v]:
            assert shared.setdefault(h, h) is h


def test_built_and_loaded_labels_share_one_compact_form():
    g = preferential_attachment_graph(600, 6, seed=9)
    built = build_pll_labels(g)
    assert max(map(max, built.hubs)) > 256  # beyond CPython's cached small ints
    _assert_compact(built)
    sink = io.BytesIO()
    save_labels(built, sink)
    data = sink.getvalue()
    loaded = load_labels(io.BytesIO(data))
    _assert_compact(loaded)
    assert loaded == built
    assert loaded.total_pairs == built.total_pairs
    again = io.BytesIO()
    save_labels(loaded, again)
    assert again.getvalue() == data


def _traced(work):
    """work()'s result, the bytes it left allocated, and its peak."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = work()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, retained - base, peak - base


def test_loaded_labels_stay_compact():
    # PA 800/8: 32,490 pairs. Measured 13.1 B/pair; with a fresh int per
    # hub of every pair 16.5, and with a list of distances as well 25.0.
    g = preferential_attachment_graph(800, 8, seed=7)
    sink = io.BytesIO()
    save_labels(build_pll_labels(g), sink)
    source = io.BytesIO(sink.getvalue())
    labels, retained, _ = _traced(lambda: load_labels(source))
    assert retained / labels.total_pairs < 15


def _saved(labels):
    sink = io.BytesIO()
    save_labels(labels, sink)
    return sink.getvalue()


def _with_label(labels, v, pairs):
    """A copy of ``labels`` with vertex v's label replaced, pairs kept in order."""
    hubs, dists = list(labels.hubs), list(labels.dists)
    hubs[v] = [h for h, _ in pairs]
    dists[v] = bytes(d for _, d in pairs)
    return LabelSet(hubs, dists)


def _load_error(labels, v, pairs):
    """The FormatError message of loading ``labels`` with vertex v's label
    replaced, as written by save_labels; a full load and one that decodes
    only v's label fail alike."""
    data = _saved(_with_label(labels, v, pairs))
    messages = set()
    for vertices in (None, [v]):
        with pytest.raises(FormatError) as err:
            load_labels(io.BytesIO(data), vertices)
        messages.add(str(err.value))
    (message,) = messages
    return message


def _resealed(data):
    """A label file changed in place, its CRC recomputed, so the change
    reaches the checks behind the CRC."""
    body = bytes(data[:-4])
    return body + struct.pack("<I", zlib.crc32(body))


def _sealed_v4(n, body):
    """A v4 label file of ``n`` vertices, no edge list, ``body`` after the
    header, its CRC intact."""
    data = b"RHUB\x04" + struct.pack("<QQ", n, 1 << 32) + body
    return data + struct.pack("<I", zlib.crc32(data))


def test_load_rejects_hostile_vertex_count():
    """A header claiming 2**40 vertices, checksum intact, allocates nothing
    per vertex, not even the raw-ID table or the counts column. Each vertex
    needs 17 bytes: its raw ID, its count and its own pair."""
    data = _sealed_v4(2**40, struct.pack("<QIIB", 0, 1, 0, 0))

    def attempt():
        with pytest.raises(FormatError) as err:
            load_labels(io.BytesIO(data))
        assert f"{2**40} labels cannot fit" in str(err.value)

    _, _, peak = _traced(attempt)
    assert peak < 1 << 20
    # 40 bytes hold the count and own pair of 3 vertices (27), not their raw IDs too (51)
    with pytest.raises(FormatError, match="^truncated stream: 3 labels cannot fit in 40 bytes$"):
        load_labels(io.BytesIO(_sealed_v4(3, bytes(40))))


def test_load_rejects_corrupted_magic(tree14_labels):
    data = bytearray(_saved(tree14_labels))
    data[0] ^= 0xFF
    with pytest.raises(FormatError):
        load_labels(io.BytesIO(bytes(data)))


# a full load, and a partial one: the CRC covers the labels it does not decode
SUBSETS = [pytest.param(None, id="all"), pytest.param((4, 11), id="subset")]


@pytest.fixture(scope="module")
def bound_tree14_labels():
    """TREE14's labels built from its edge-list text, so their file names it."""
    return build_pll_labels(parse_edge_list(TREE14_TEXT))


@pytest.mark.parametrize("vertices", SUBSETS)
def test_load_rejects_truncation(bound_tree14_labels, vertices):
    data = _saved(bound_tree14_labels)
    for size in range(len(data)):  # cuts inside and between labels alike
        with pytest.raises(FormatError):
            load_labels(io.BytesIO(data[:size]), vertices)


@pytest.mark.parametrize("vertices", SUBSETS)
def test_load_rejects_every_single_byte_change(bound_tree14_labels, vertices):
    """Every byte of the file, set to each of its 255 other values, fails;
    the header's edge-list CRC and the raw-ID table included."""
    data = _saved(bound_tree14_labels)
    assert len(data) == 21 + 8 * 14 + 4 * 14 + 5 * TREE14_TOTAL_PAIRS + 4
    (edge_list_crc,) = struct.unpack_from("<Q", data, 13)
    assert edge_list_crc == zlib.crc32(TREE14_TEXT.encode())
    bad = bytearray(data)
    for pos, old in enumerate(data):
        for new in range(256):
            if new != old:
                bad[pos] = new
                with pytest.raises(FormatError) as err:
                    load_labels(io.BytesIO(bad), vertices)
                # past the magic and the version byte, the checksum catches it
                assert pos < 5 or "checksum mismatch" in str(err.value)
        bad[pos] = old


@pytest.mark.parametrize("version", [1, 2, 3])
def test_load_rejects_old_label_version(tree14_labels, version):
    # version 1 stored labels in hub order with no checksum, version 2 each
    # label's count in front of its pairs, version 3 no edge-list CRC and
    # no raw-ID table
    data = bytearray(_saved(tree14_labels))
    assert data[4] == 4
    data[4] = version
    with pytest.raises(FormatError, match=f"unsupported label-file version {version}"):
        load_labels(io.BytesIO(bytes(data)))


def test_load_rejects_unsorted_label(tree14_labels):
    """Pairs out of (dist, hub) order, within one distance and across two."""
    assert label_pairs(tree14_labels, 11) == [(0, 3), (1, 2), (5, 1), (11, 0)]
    for pairs, wrong in (
        ([(11, 0), (5, 1), (1, 2), (0, 2)], (0, 2)),  # hubs descend within distance 2
        ([(11, 0), (5, 1), (0, 2), (0, 2)], (0, 2)),  # and repeat within it
        ([(11, 0), (1, 2), (5, 1), (0, 3)], (5, 1)),  # distance 2 before distance 1
    ):
        message = _load_error(tree14_labels, 11, pairs)
        assert message == f"label of vertex 11 has {wrong} out of order"


def test_load_rejects_changed_zero_distances(tree14_labels):
    """Each label starts with (v, 0) and holds no other pair at distance 0."""
    changed = 0
    for v in range(14):
        stored = list(zip(tree14_labels.hubs[v], tree14_labels.dists[v]))
        for pos, (h, d) in enumerate(stored):
            for new in (1, 255) if h == v else (0,):
                pairs = list(stored)
                pairs[pos] = (h, new)
                message = _load_error(tree14_labels, v, pairs)
                if h == v:
                    assert message.endswith(f"does not start with its own pair ({v}, 0)")
                else:  # every pair after (v, 0) needs distance >= 1
                    assert message == f"label of vertex {v} has ({h}, 0) out of order"
                changed += 1
    assert changed == 2 * 14 + TREE14_TOTAL_PAIRS - 14

    own_last = label_pairs(tree14_labels, 5)  # hub order puts (5, 0) last
    for pairs in (own_last[:-1], own_last, [(1, 1), (5, 0), (0, 2)]):
        message = _load_error(tree14_labels, 5, pairs)
        assert message == "label of vertex 5 does not start with its own pair (5, 0)"
    # the counts column names an empty label before any label is decoded
    assert _load_error(tree14_labels, 5, []) == "label of vertex 5 is empty"


def test_load_rejects_repeated_and_out_of_range_hubs(tree14_labels):
    for pairs, expected in (
        ([(11, 0), (5, 1), (5, 2), (0, 3)], "names a hub twice"),
        ([(11, 0), (5, 1), (1, 2), (11, 3)], "names a hub twice"),
        ([(11, 0), (5, 1), (11, 1), (0, 3)], "names a hub twice"),  # own hub at 1
        ([(11, 0), (5, 1), (1, 2), (14, 3)], "names hub 14 >= 14"),
        ([(11, 0), (15, 1), (1, 2), (0, 3)], "names hub 15 >= 14"),
    ):
        message = _load_error(tree14_labels, 11, pairs)
        assert message == f"label of vertex 11 {expected}"


@pytest.mark.parametrize("name", ["tree14", "pa300"])
def test_partial_load_decodes_only_the_given_vertices(tree14_labels, name):
    """The given labels equal the full load's, every other one is None, and
    the set's totals and checksum describe the whole file."""
    if name == "tree14":
        built, vertices = tree14_labels, [11, 4, 11, 0]  # a repeat decodes once
    else:
        built = build_pll_labels(preferential_attachment_graph(300, 4, seed=5))
        vertices = range(0, 300, 7)
    data = _saved(built)
    full = load_labels(io.BytesIO(data))
    part = load_labels(io.BytesIO(data), vertices)
    assert part.vertex_count == full.vertex_count
    assert part.total_pairs == full.total_pairs == built.total_pairs
    assert part.checksum() == full.checksum() == built.checksum()
    wanted = set(vertices)
    for v in range(full.vertex_count):
        if v in wanted:
            assert part.hubs[v] == full.hubs[v] and part.dists[v] == full.dists[v]
            assert type(part.dists[v]) is bytes
        else:
            assert part.hubs[v] is None and part.dists[v] is None
            with pytest.raises(TypeError):
                len(part.hubs[v])
    _assert_compact(LabelSet([part.hubs[v] for v in wanted], [part.dists[v] for v in wanted]))
    s, t = min(wanted), max(wanted)
    assert hl_distance(part, s, t) == hl_distance(full, s, t)
    # IDs outside the file's range decode nothing, as a full load has no entry for them
    none = load_labels(io.BytesIO(data), [-1, full.vertex_count])
    assert none.hubs == [None] * full.vertex_count


# the TREE14 label file's counts column starts after the magic, the version,
# n, the edge-list CRC and the raw-ID table
COUNTS_AT = 4 + 1 + 8 + 8 + 8 * 14


def test_load_checks_the_counts_column_first(tree14_labels):
    """With the CRC recomputed: an empty label and counts that disagree with
    the pairs fail before any label is decoded, in a partial load too; the
    structure of a label the load does not decode is not checked."""
    data = _saved(tree14_labels)
    assert struct.unpack_from("<I", data, COUNTS_AT + 4 * 3) == (2,)
    cases = {
        (3, 0): "label of vertex 3 is empty",
        (3, 3): "counts sum to 40 pairs but 195 bytes follow",
        (3, 1): "counts sum to 38 pairs but 195 bytes follow",
    }
    for (v, count), message in cases.items():
        bad = bytearray(data)
        struct.pack_into("<I", bad, COUNTS_AT + 4 * v, count)
        for vertices in (None, [11], []):
            with pytest.raises(FormatError) as err:
                load_labels(io.BytesIO(_resealed(bad)), vertices)
            assert str(err.value) == message
    # vertex 3 gives its second pair to vertex 4: the sum holds, and only a
    # load that decodes 4 sees a label that does not start with its own pair
    bad = bytearray(data)
    struct.pack_into("<II", bad, COUNTS_AT + 4 * 3, 1, 3)
    bad = _resealed(bad)
    for vertices in (None, [4], [3, 4]):
        with pytest.raises(FormatError) as err:
            load_labels(io.BytesIO(bad), vertices)
        assert str(err.value) == "label of vertex 4 does not start with its own pair (4, 0)"
    part = load_labels(io.BytesIO(bad), [3, 11])
    assert label_pairs(part, 3) == [(3, 0)]
    assert label_pairs(part, 11) == label_pairs(tree14_labels, 11)


@pytest.mark.parametrize("name", ["tree14", "pa300"])
def test_checksum_is_the_label_files_trailing_crc(tree14_labels, name):
    """Built labels, their file's last four bytes and the labels loaded from
    it agree on the checksum; so do equal but distinct label sets."""
    if name == "tree14":
        built = tree14_labels
    else:
        built = build_pll_labels(preferential_attachment_graph(300, 4, seed=5))
    data = _saved(built)
    (trailing,) = struct.unpack("<I", data[-4:])
    assert trailing == zlib.crc32(data[:-4])
    loaded = load_labels(io.BytesIO(data))
    copy = LabelSet([list(hv) for hv in built.hubs], [bytes(dv) for dv in built.dists])
    assert copy == built and copy.hubs is not built.hubs
    assert built.checksum() == trailing
    assert loaded.checksum() == trailing
    assert copy.checksum() == trailing
    assert _saved(copy) == data
    dists = list(built.dists)
    dists[-1] = dists[-1][:-1] + bytes([dists[-1][-1] + 1])
    other = LabelSet(built.hubs, dists)
    assert other != built and other.checksum() != trailing


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


def reference_save_labels(labels):
    """The v4 label file written field by field, each pair by
    ``_PAIR.pack``, its checksum by zlib.crc32."""
    crc = labels.edge_list_crc
    fields = [b"RHUB\x04", struct.pack("<QQ", labels.vertex_count, 1 << 32 if crc is None else crc)]
    fields += [struct.pack("<Q", r) for r in labels.raw_ids]
    fields += [struct.pack("<I", len(hv)) for hv in labels.hubs]
    fields += [
        _PAIR.pack(h, d) for hv, dv in zip(labels.hubs, labels.dists) for h, d in zip(hv, dv)
    ]
    data = b"".join(fields)
    return data + struct.pack("<I", zlib.crc32(data))


# hub IDs that fill one byte, and ones that fill all four
_HUB = st.one_of(st.integers(0, 255), st.integers(2**24, 2**32 - 1))
_LABEL = st.lists(st.tuples(_HUB, st.integers(0, MAX_DIST)), min_size=1, max_size=6)


@given(st.lists(_LABEL, min_size=1, max_size=6), st.data())
@settings(max_examples=100, deadline=None)
def test_save_labels_writes_the_per_pair_encoders_bytes(pairs, data):
    """Any hub ID that fits a u32, any distance byte, u64 raw IDs and
    either edge-list CRC field are written as the per-pair encoder writes
    them."""
    n = len(pairs)
    raw_ids = data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=n, max_size=n))
    crc = data.draw(st.one_of(st.none(), st.integers(0, 2**32 - 1)))
    labels = LabelSet(
        [[h for h, _ in label] for label in pairs],
        [bytes(d for _, d in label) for label in pairs],
        raw_ids,
        crc,
    )
    assert _saved(labels) == reference_save_labels(labels)


def test_save_labels_writes_the_per_pair_encoders_bytes_on_seeded_sets(tree14_labels):
    """A built label set, and a seeded one whose every hub ID fills all
    four bytes."""
    rng = random.Random(28)
    sizes = [rng.randint(1, 9) for _ in range(40)]
    wide = LabelSet(
        [[rng.randrange(2**24, 2**32) for _ in range(s)] for s in sizes],
        [bytes(rng.randrange(MAX_DIST + 1) for _ in range(s)) for s in sizes],
    )
    for labels in (tree14_labels, wide):
        assert _saved(labels) == reference_save_labels(labels)


def test_disconnected_pair_reports_infinity():
    # labels built per component still answer INFINITY across components
    g = Graph.from_edges([(0, 1), (2, 3)])
    labels = build_pll_labels(g)
    assert hl_distance(labels, 0, 3) == INFINITY


def test_raw_ids_and_edge_list_crc_round_trip():
    """Built labels carry their graph's raw IDs, u64 up to 2**64 - 1, and
    edge-list CRC through the file, in a full and a partial load; labels of
    a graph never parsed from text, or built by hand, carry None and their
    dense IDs."""
    top = 2**64 - 1
    text = f"7 {top}\n{top} 0\n# the LCC drops 5 and 6\n5 6\n"
    graph = largest_connected_component(parse_edge_list(text))
    built = build_pll_labels(graph)
    assert list(built.raw_ids) == [7, top, 0]
    assert built.edge_list_crc == zlib.crc32(text.encode())
    data = _saved(built)
    for loaded in (load_labels(io.BytesIO(data)), load_labels(io.BytesIO(data), [])):
        assert list(loaded.raw_ids) == [7, top, 0]
        assert loaded.edge_list_crc == built.edge_list_crc
        assert [loaded.dense_id(r) for r in (7, top, 0)] == [0, 1, 2]
        with pytest.raises(ConfigError, match="^vertex 5 is not in the graph$"):
            loaded.dense_id(5)
    for labels in (build_pll_labels(Graph.from_edges([(9, 3), (3, 4)])),
                   LabelSet([[0], [1]], [[0], [0]])):
        loaded = load_labels(io.BytesIO(_saved(labels)))
        assert list(loaded.raw_ids) == list(labels.raw_ids)
        assert loaded.edge_list_crc is labels.edge_list_crc is None
    assert list(LabelSet([[0], [1]], [[0], [0]]).raw_ids) == [0, 1]
    with pytest.raises(ConfigError, match="^1 raw IDs for 2 labels$"):
        LabelSet([[0], [1]], [[0], [0]], [5])


def test_build_rejects_a_raw_id_wider_than_u64():
    graph = parse_edge_list(f"1 {2**64}\n1 2\n")
    message = f"^raw vertex ID {2**64} does not fit the label file's u64$"
    with pytest.raises(FormatError, match=message):
        build_pll_labels(graph)


def test_partial_load_decodes_the_labels_of_raw_vertices():
    """``raw_vertices`` are looked up in the file's table: 30 and 10 are
    vertices 2 and 0; 99 is in no table and decodes nothing."""
    labels = build_pll_labels(parse_edge_list("10 20\n20 30\n30 40\n"))
    data = _saved(labels)
    part = load_labels(io.BytesIO(data), [3], [30, 10, 99])
    assert [v for v, hv in enumerate(part.hubs) if hv is not None] == [0, 2, 3]
    assert load_labels(io.BytesIO(data), [], [99]).hubs == [None] * 4


def test_load_checks_the_header_and_raw_id_table_behind_the_crc(bound_tree14_labels):
    """With the CRC recomputed: an edge-list CRC field that no CRC-32 takes
    fails the load, and a raw-ID table that names an ID twice fails the
    first lookup through it."""
    data = _saved(bound_tree14_labels)
    bad = bytearray(data)
    struct.pack_into("<Q", bad, 13, 2**32 + 1)
    with pytest.raises(FormatError, match=f"^edge-list CRC field {2**32 + 1} is not a CRC-32$"):
        load_labels(io.BytesIO(_resealed(bad)))
    bad = bytearray(data)
    struct.pack_into("<Q", bad, 21 + 8 * 13, 4)  # vertex 13's raw ID is vertex 4's
    loaded = load_labels(io.BytesIO(_resealed(bad)))
    with pytest.raises(FormatError, match="^the raw-ID table names a raw ID twice$"):
        loaded.dense_id(4)
    with pytest.raises(FormatError, match="^the raw-ID table names a raw ID twice$"):
        load_labels(io.BytesIO(_resealed(bad)), [], [4])
