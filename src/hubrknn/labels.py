"""Two-hop hub labels: pruned landmark labeling, distance queries, file I/O.

Every vertex carries an array of (hub, distance) pairs such that any two
vertices share at least one hub on a shortest path between them (the cover
property). Labels are distance-major, in memory and in the label file: the
own pair (v, 0) first, then strictly ascending by (distance, hub).

Label and index files share one framing (``_seal``/``_unseal``): magic,
version byte, body, and a CRC-32 of all of it that is checked first. An
index names its labels by their file's CRC, ``LabelSet.checksum()``, and a
label file names its edge list by the text's CRC-32 and carries the raw-ID
table, so a command that has the labels needs no parse to map raw IDs.
"""

from __future__ import annotations

import io
import struct
import sys
import zlib
from array import array
from itertools import accumulate, chain
from typing import IO, Iterable, Sequence

from .errors import ConfigError, FormatError
from .graph import Graph, RawIdMap, _check_vertex, degree_ordering

# Sentinel strictly greater than any representable hop distance.
INFINITY = 1 << 30

# Distances are a single byte, in the label file and in memory (``bytes``);
# construction enforces this bound.
MAX_DIST = 255

_MAGIC = b"RHUB"
_VERSION = 4
_HEAD = struct.Struct("<QQ")  # vertex count, edge-list CRC: the label file's header
_UNBOUND = 1 << 32  # the edge-list CRC field of labels not built from a parsed text
_RAW_ID = struct.Struct("<Q")
_PAIR = struct.Struct("<IB")
_U32 = struct.Struct("<I")  # a label's pair count; a checksum
# A vertex holds at least its raw ID, its label's count and its own pair.
_MIN_VERTEX_SIZE = _RAW_ID.size + _U32.size + _PAIR.size


def _seal(magic: bytes, version: int, body: bytes | bytearray) -> bytes:
    """``magic``, the version byte, ``body`` and a u32 LE CRC-32 of all three."""
    head = magic + bytes((version,))
    return b"".join((head, body, _U32.pack(zlib.crc32(body, zlib.crc32(head)))))


def _unseal(data: bytes, magic: bytes, version: int, kind: str, head: struct.Struct):
    """A sealed ``kind`` file's ``head`` fields, the rest of its body, and its
    CRC; the magic, the version and the CRC are checked first."""
    if data[:4] != magic:
        raise FormatError(f"bad {kind}-file magic {data[:4]!r}")
    if len(data) > 4 and data[4] != version:
        raise FormatError(f"unsupported {kind}-file version {data[4]}")
    end = len(data) - _U32.size  # where the checksum starts
    if end < 5 + head.size:
        raise FormatError("truncated stream")
    (crc,) = _U32.unpack_from(data, end)
    if crc != zlib.crc32(memoryview(data)[:end]):
        raise FormatError(f"{kind}-file checksum mismatch: the file is corrupt or truncated")
    return head.unpack_from(data, 5), data[5 + head.size : end], crc


def _raw_id_table(raw_ids: Sequence[int]) -> memoryview:
    """``raw_ids`` as a read-only sequence of u64 ints, 8 bytes each; a
    FormatError names an ID that does not fit."""
    try:
        return _u64_view(struct.pack(f"<{len(raw_ids)}Q", *raw_ids))
    except struct.error:
        bad = next(r for r in raw_ids if not 0 <= r < 1 << 64)
        raise FormatError(f"raw vertex ID {bad} does not fit the label file's u64") from None


def _u64_view(data: bytes) -> memoryview:
    """Little-endian u64s in ``data`` as a memoryview of ints."""
    if sys.byteorder == "big":
        count = len(data) // _RAW_ID.size
        data = struct.pack(f">{count}Q", *struct.unpack(f"<{count}Q", data))
    return memoryview(data).cast("Q")


class LabelSet(RawIdMap):
    """Per-vertex hub labels: a hub list and a distance byte string each,
    with the raw IDs and the edge-list CRC of the graph they label.

    ``hubs[v]`` is a ``list[int]``; ``dists[v]`` is a ``bytes`` aligned with
    it, one byte per pair as in the label file. Pairs are in (dist, hub)
    order from ``(v, 0)``, so a sweep meets the nearest hubs first.
    Indexing ``bytes`` returns cached small ints, so a sweep reads both alike.
    Labels from ``build_pll_labels`` and ``load_labels`` also point to one
    int object per hub, so a pair costs a list slot and a distance byte.
    Immutable by convention once built; queries may run concurrently.
    ``raw_ids[v]`` is vertex v's raw input ID (by default v itself), a
    memoryview of u64s; ``dense_id`` maps back. ``edge_list_crc`` is the
    graph's ``Graph.edge_list_crc``: the CRC-32 of the edge-list text the
    labels were built from, None when the graph was never parsed from text.
    ``checksum()`` names the set's label file. Equality compares the labels
    only.
    A set from ``load_labels(source, vertices)`` holds None, never an empty
    label, for every vertex not decoded; ``total_pairs`` counts them all.
    """

    __slots__ = ("hubs", "dists", "total_pairs", "edge_list_crc", "_crc")

    def __init__(
        self,
        hubs: list[list[int]],
        dists: list[bytes] | list[list[int]],
        raw_ids: Sequence[int] | None = None,
        edge_list_crc: int | None = None,
    ):
        super().__init__(_raw_id_table(range(len(hubs)) if raw_ids is None else raw_ids))
        if len(self.raw_ids) != len(hubs):
            raise ConfigError(f"{len(self.raw_ids)} raw IDs for {len(hubs)} labels")
        self.hubs = hubs
        self.dists = [bytes(d) for d in dists]  # no copy of a bytes argument
        self.total_pairs = sum(map(len, hubs))
        self.edge_list_crc = edge_list_crc
        self._crc: int | None = None

    def checksum(self) -> int:
        """The CRC-32 this set's label file ends with, encoded at most once."""
        if self._crc is None:
            save_labels(self, io.BytesIO())
        return self._crc

    @property
    def vertex_count(self) -> int:
        return len(self.hubs)

    def avg_label_size(self) -> float:
        return self.total_pairs / self.vertex_count

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabelSet):
            return NotImplemented
        return self.hubs == other.hubs and self.dists == other.dists

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"LabelSet(vertices={self.vertex_count}, pairs={self.total_pairs})"


def build_pll_labels(graph: Graph, ordering: tuple[int, ...] | None = None) -> LabelSet:
    """Run pruned landmark labeling over the given vertex ordering.

    ``ordering`` is a permutation of the vertex IDs, first landmark first;
    ``degree_ordering`` by default.

    One BFS per vertex, in priority order. A visit to w at depth d is pruned
    when the labels built so far already certify dist(root, w) <= d;
    otherwise (root, d) is appended to w's label and the BFS expands through
    w. Each BFS level is a set (a Python int, one bit per vertex) and is
    pruned as a whole: ``reach[h][j]`` holds the vertices whose label has hub
    h at distance <= j, so the visits a root pair (h, r) certifies at depth
    d are ``reach[h][d - r]``, and one OR per root pair covers the level.
    Bits are numbered in reverse landmark order (the last landmark is bit
    0), which keeps the sets of late, small searches short. The labels
    equal those of the per-vertex prune test.

    Each level is direction-optimizing (Beamer, Asanovic and Patterson, SC
    2012): the cover of depth d + 1 is made before level d expands, so only
    the *free* vertices, neither kept nor covered yet, can join level d + 1.
    When fewer vertices are free than kept, the level pulls: a free vertex
    joins if a neighbour is kept. Otherwise it pushes, ORing the kept
    vertices' neighbour sets. A BFS ends when no free vertex joins.

    Labels grow in columns: ``by_d[d][w]`` lists w's hubs at distance d in
    root order, so a kept visit is one append. A root's prune certificates
    are grouped the same way: ``certs[r]`` holds the ``reach`` lists of its
    hubs at distance r >= 1, and depth d reads only the groups with r <= d.
    Each finished ``reach`` list is padded with its last set to one entry
    per column, and grows with ``by_d``, so ``sets[d - r]`` needs no bound
    test: d <= len(by_d) and r >= 1. At the end each column is sorted as
    ints and the columns are concatenated: the (dist, hub) order. The
    ``reach`` sets live only during the BFSs, at 1.6 (PA 3000/12) and 3.0
    (PA 8000/12) times the label file's size. The columns hold one list per
    vertex for each distance that some label reaches, until the labels are
    assembled: on a 256-vertex path ordered from one end that is 65,536
    lists, the build's worst case for its memory peak (7.51 MiB under
    tracemalloc).
    """
    order = degree_ordering(graph) if ordering is None else ordering
    n = graph.vertex_count
    if sorted(order) != list(range(n)):
        raise ConfigError("ordering is not a permutation of the graph's vertex IDs")
    raw_ids = _raw_id_table(graph.raw_ids)  # an ID too wide fails before the BFSs

    bit_of = [0] * n
    for i, v in enumerate(order):
        bit_of[v] = n - 1 - i
    vertex_of = order[::-1]  # bit -> vertex
    neighbours = [sum(1 << bit_of[x] for x in graph.adjacency[v]) for v in vertex_of]
    by_d: list[list[list[int]]] = []  # by_d[d][w]: w's hubs at distance d, in root order
    reach: list[list[int]] = [[] for _ in range(n)]
    done: list[list[int]] = []  # the finished roots' reach lists
    everyone = (1 << n) - 1

    for root in order:
        # The root's label holds earlier landmarks only; their BFS is done.
        certs = [[reach[h] for h in column[root]] for column in by_d]
        root_reach = reach[root]
        keep = cumulative = 1 << bit_of[root]
        free = everyone ^ keep  # neither kept nor covered yet
        d = 0
        while keep:
            if d > MAX_DIST:
                raise FormatError(f"hop distance {d} exceeds the serializable maximum {MAX_DIST}")
            cumulative |= keep
            root_reach.append(cumulative)
            if d == len(by_d):
                by_d.append([[] for _ in range(n)])
                for sets in done:  # one entry per column, as below
                    sets.append(sets[-1])
            column = by_d[d]
            d += 1
            if free:  # with none free there is nothing to cover; level d is still kept
                covered = 0
                for dh in range(1, min(d + 1, len(certs))):
                    j = d - dh
                    for sets in certs[dh]:
                        covered |= sets[j]
                free &= ~covered
            nxt = 0
            bits = bin(keep)
            top = len(bits) - 1
            i = bits.find("1", 2)
            if free.bit_count() < keep.bit_count():
                # Pull: the next level is the free vertices next to a kept one.
                while i > 0:
                    column[vertex_of[top - i]].append(root)
                    i = bits.find("1", i + 1)
                bits = bin(free)
                top = len(bits) - 1
                i = bits.find("1", 2)
                while i > 0:
                    b = top - i
                    if neighbours[b] & keep:
                        nxt |= 1 << b
                    i = bits.find("1", i + 1)
            else:  # push: OR the kept vertices' neighbour sets
                while i > 0:
                    b = top - i
                    column[vertex_of[b]].append(root)
                    nxt |= neighbours[b]
                    i = bits.find("1", i + 1)
            keep = nxt & free
            free ^= keep
        root_reach += [cumulative] * (len(by_d) - len(root_reach))
        done.append(root_reach)

    # The sweeps read labels in (dist, hub) order: each column's hubs are
    # sorted as ints. The hubs stay the shared ``root`` int objects. The
    # bitsets go first, so assembling the labels never holds them as well.
    del reach, done, neighbours
    hubs: list[list[int]] = [[] for _ in range(n)]
    dists = [bytearray() for _ in range(n)]
    for d, column in enumerate(by_d):
        step = bytes((d,))
        for hv, dv, hd in zip(hubs, dists, column):
            if hd:
                hd.sort()
                hv += hd
                dv += step * len(hd)
    return LabelSet(hubs, dists, raw_ids, graph.edge_list_crc)


def hl_distance(labels: LabelSet, s: int, t: int) -> int:
    """Minimum of dist(s,h) + dist(h,t) over common hubs; INFINITY if none.

    One ``_label_walk`` of t's label, the walk ``offline.object_distances``
    and ``offline.load_index`` make with a bound.
    """
    _check_vertex(labels.vertex_count, s)
    _check_vertex(labels.vertex_count, t)
    to_s = dict(zip(labels.hubs[s], labels.dists[s]))
    return _label_walk(to_s, labels.hubs[t], labels.dists[t], INFINITY)


def _label_walk(to_s: dict[int, int], hubs: list[int], dists: bytes, best: int) -> int:
    """The least ``to_s[h] + d`` over one label's pairs (h, d) if below
    ``best``, else ``best``; ``to_s`` is the other label as a dict."""
    for h, d in zip(hubs, dists):
        if d >= best:
            break  # the label ascends by distance: no later hub does better
        via = to_s.get(h, INFINITY) + d
        if via < best:
            best = via
    return best


def save_labels(labels: LabelSet, sink: IO[bytes]) -> None:
    """Serialize to the binary label format (see README), in one write, and
    record the file's CRC as the labels' checksum."""
    n, crc = labels.vertex_count, labels.edge_list_crc
    hubs = array("I", chain.from_iterable(labels.hubs))
    if sys.byteorder == "big":
        hubs.byteswap()
    hub_bytes = hubs.tobytes()
    body = bytearray(_HEAD.pack(n, _UNBOUND if crc is None else crc))
    body += struct.pack(f"<{n}Q", *labels.raw_ids)
    body += struct.pack(f"<{n}I", *map(len, labels.hubs))  # the counts column
    at = len(body)
    body += bytes(_PAIR.size * len(hubs))
    for j in range(4):  # a pair: its hub's four little-endian bytes, then its distance
        body[at + j::5] = hub_bytes[j::4]
    body[at + 4::5] = b"".join(labels.dists)
    data = _seal(_MAGIC, _VERSION, body)
    (labels._crc,) = _U32.unpack_from(data, len(data) - _U32.size)
    sink.write(data)


def load_labels(
    source: IO[bytes], vertices: Iterable[int] | None = None, raw_vertices: Iterable[int] = ()
) -> LabelSet:
    """Read and validate a label file; FormatError on any corruption.

    The framing and its checksum are checked first, then the header's
    edge-list CRC field and the counts column: no label is empty, and the
    counts add up to the pairs that follow. The raw-ID table is always
    decoded. Each decoded label must start with (v, 0), and every later
    pair have distance >= 1, ascend strictly by (dist, hub) and name a
    distinct hub in range. Every hub is mapped to one shared int object per
    vertex; a label's distances are its pairs' distance bytes. With
    ``vertices``, only their labels are decoded and checked, and those of
    the vertices whose raw IDs are ``raw_vertices``: every other entry is
    None, and IDs outside range(n) or the table decode nothing.
    ``total_pairs`` and ``checksum()`` (the file's CRC) describe the whole
    file either way.
    """
    (n, edge_list_crc), data, crc = _unseal(source.read(), _MAGIC, _VERSION, "label", _HEAD)
    if edge_list_crc > _UNBOUND:
        raise FormatError(f"edge-list CRC field {edge_list_crc} is not a CRC-32")
    size = len(data)
    # Bound n by the bytes present before allocating anything per vertex.
    if n * _MIN_VERTEX_SIZE > size:
        raise FormatError(f"truncated stream: {n} labels cannot fit in {size} bytes")
    counts_at = _RAW_ID.size * n
    counts = struct.unpack_from(f"<{n}I", data, counts_at)
    if 0 in counts:
        raise FormatError(f"label of vertex {counts.index(0)} is empty")
    # ends[v] is where vertex v's pairs start, ends[v + 1] where they end
    ends = list(accumulate(map(_PAIR.size.__mul__, counts), initial=counts_at + _U32.size * n))
    if ends[-1] != size:
        raise FormatError(f"counts sum to {sum(counts)} pairs but {size - ends[0]} bytes follow")
    labels = LabelSet([], [])
    labels.raw_ids = _u64_view(data[:counts_at])
    labels.edge_list_crc = None if edge_list_crc == _UNBOUND else edge_list_crc
    labels.total_pairs, labels._crc = sum(counts), crc
    if vertices is None:
        wanted = range(n)
    else:
        wanted = set(vertices)
        for raw in raw_vertices:
            try:
                wanted.add(labels.dense_id(raw))
            except ConfigError:  # a raw ID not in the table decodes nothing
                pass
        wanted.intersection_update(range(n))
    shared = list(range(n))
    owner = [-1] * n  # owner[h] is the last vertex whose label named hub h
    hubs: list = [None] * n
    dists: list = [None] * n
    for v in wanted:
        start, end = ends[v], ends[v + 1]
        pairs = _PAIR.iter_unpack(data[start:end])
        if next(pairs) != (v, 0):
            raise FormatError(f"label of vertex {v} does not start with its own pair ({v}, 0)")
        hv = [shared[v]]
        owner[v] = v
        ph, pd = -1, 1  # so a later pair at distance 0 is out of order
        try:
            for h, d in pairs:
                if d != pd:
                    if d < pd:
                        raise FormatError(f"label of vertex {v} has ({h}, {d}) out of order")
                    pd = d
                elif h <= ph:
                    raise FormatError(f"label of vertex {v} has ({h}, {d}) out of order")
                ph = h
                if owner[h] == v:
                    raise FormatError(f"label of vertex {v} names a hub twice")
                owner[h] = v
                hv.append(shared[h])
        except IndexError:  # owner[h] with h >= n
            raise FormatError(f"label of vertex {v} names hub {h} >= {n}") from None
        hubs[v] = hv
        # the distances are each pair's last byte
        dists[v] = data[start + _PAIR.size - 1 : end : _PAIR.size]
    labels.hubs, labels.dists = hubs, dists
    return labels
