"""Two-hop hub labels: pruned landmark labeling, distance queries, file I/O.

Every vertex carries a hub-sorted array of (hub, distance) pairs such that
any two vertices share at least one hub lying on a shortest path between
them (the cover property). A vertex-to-vertex distance query is then a
single merge sweep over two sorted arrays.
"""

from __future__ import annotations

import struct
from typing import IO

from .errors import ConfigError, FormatError
from .graph import Graph, VertexOrdering, degree_ordering

# Sentinel strictly greater than any representable hop distance.
INFINITY = 1 << 30

# Distances are a single byte, in the label file and in memory (``bytes``);
# construction enforces this bound.
MAX_DIST = 255

_MAGIC = b"RHUB"
_VERSION = 1
_PAIR = struct.Struct("<IB")
_HEAD_COUNT = struct.Struct("<I")
# A label holds at least its own pair: a 4-byte count and one 5-byte pair.
_MIN_LABEL_SIZE = _HEAD_COUNT.size + _PAIR.size


class LabelSet:
    """Per-vertex hub labels: a hub list and a distance byte string each.

    ``hubs[v]`` is a strictly ascending ``list[int]``; ``dists[v]`` is a
    ``bytes`` aligned with it, one byte per pair as in the label file.
    Indexing ``bytes`` returns cached small ints, so a sweep reads both alike.
    Labels from ``build_pll_labels`` and ``load_labels`` also point to one
    int object per hub, so a pair costs a list slot and a distance byte.
    Immutable by convention once built; queries may run concurrently.
    """

    __slots__ = ("hubs", "dists", "total_pairs")

    def __init__(self, hubs: list[list[int]], dists: list[bytes] | list[list[int]]):
        self.hubs = hubs
        self.dists = [bytes(d) for d in dists]  # no copy of a bytes argument
        self.total_pairs = sum(map(len, hubs))

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


def build_pll_labels(graph: Graph, ordering: VertexOrdering | None = None) -> LabelSet:
    """Run pruned landmark labeling over the given vertex ordering.

    One BFS per vertex, in priority order. A visit to w at depth d is pruned
    when the labels built so far already certify dist(root, w) <= d;
    otherwise (root, d) is appended to w's label and the BFS expands through
    w. Each BFS level is a set (a Python int, one bit per vertex) and is
    pruned as a whole: ``reach[h][j]`` holds the vertices whose label has hub
    h at distance <= j, so the visits a root pair (h, r) certifies at depth
    d are ``reach[h][d - r]``, and one OR per root pair covers the level.
    Bits are numbered in reverse landmark order (the last landmark is bit
    0), which keeps the sets of late, small searches short. The labels
    equal those of the per-vertex prune test. The ``reach`` sets live only
    during the build, at three to six times the label file's size.
    """
    if ordering is None:
        ordering = degree_ordering(graph)
    n = graph.vertex_count
    order = ordering.order
    if len(order) != n:
        raise ConfigError("ordering size does not match the graph")

    bit_of = [0] * n
    for i, v in enumerate(order):
        bit_of[v] = n - 1 - i
    vertex_of = order[::-1]  # bit -> vertex
    neighbours = [sum(1 << bit_of[x] for x in graph.adjacency[v]) for v in vertex_of]
    hubs: list[list[int]] = [[] for _ in range(n)]
    dists: list[list[int]] = [[] for _ in range(n)]
    reach: list[list[int]] = [[] for _ in range(n)]

    for root in order:
        # The root's label holds earlier landmarks only; their BFS is done.
        certs = [(reach[h], dh, len(reach[h]) - 1) for h, dh in zip(hubs[root], dists[root])]
        root_reach = reach[root]
        level = seen = 1 << bit_of[root]
        cumulative = 0
        d = 0
        while level:
            covered = 0
            for sets, dh, last in certs:
                if dh <= d:
                    covered |= sets[min(d - dh, last)]
            keep = level & ~covered
            if keep and d > MAX_DIST:
                raise FormatError(
                    f"hop distance {d} exceeds the serializable maximum {MAX_DIST}"
                )
            cumulative |= keep
            root_reach.append(cumulative)
            nxt = 0
            bits = bin(keep)
            top = len(bits) - 1
            i = bits.find("1", 2)
            while i > 0:
                b = top - i
                w = vertex_of[b]
                hubs[w].append(root)
                dists[w].append(d)
                nxt |= neighbours[b]
                i = bits.find("1", i + 1)
            level = nxt & ~seen
            seen |= level
            d += 1

    # Labels were appended in landmark order; queries need hub order. The
    # hubs stay the shared ``root`` int objects.
    for v in range(n):
        pairs = sorted(zip(hubs[v], dists[v]))
        hubs[v] = [h for h, _ in pairs]
        dists[v] = bytes(d for _, d in pairs)

    return LabelSet(hubs, dists)


def hl_distance(labels: LabelSet, s: int, t: int) -> int:
    """Minimum of dist(s,h) + dist(h,t) over common hubs; INFINITY if none."""
    n = labels.vertex_count
    if not (0 <= s < n and 0 <= t < n):
        raise ValueError(f"vertex pair ({s}, {t}) out of range for {n} vertices")
    hs, ds = labels.hubs[s], labels.dists[s]
    ht, dt = labels.hubs[t], labels.dists[t]
    best = INFINITY
    i = j = 0
    ls, lt = len(hs), len(ht)
    while i < ls and j < lt:
        a, b = hs[i], ht[j]
        if a == b:
            cand = ds[i] + dt[j]
            if cand < best:
                best = cand
            i += 1
            j += 1
        elif a < b:
            i += 1
        else:
            j += 1
    return best


def save_labels(labels: LabelSet, sink: IO[bytes]) -> None:
    """Serialize to the binary label format (see README for the layout)."""
    sink.write(_MAGIC)
    sink.write(struct.pack("<B", _VERSION))
    sink.write(struct.pack("<Q", labels.vertex_count))
    pack = _PAIR.pack
    for v in range(labels.vertex_count):
        hv, dv = labels.hubs[v], labels.dists[v]
        sink.write(_HEAD_COUNT.pack(len(hv)))
        sink.write(b"".join(pack(h, d) for h, d in zip(hv, dv)))


def load_labels(source: IO[bytes]) -> LabelSet:
    """Read and validate a label file; FormatError on any corruption.

    Every hub is mapped to one shared int object per vertex, and each
    label's distances are the distance bytes of its pairs.
    """
    magic = _read_exact(source, 4)
    if magic != _MAGIC:
        raise FormatError(f"bad label-file magic {magic!r}")
    (version,) = struct.unpack("<B", _read_exact(source, 1))
    if version != _VERSION:
        raise FormatError(f"unsupported label-file version {version}")
    (n,) = struct.unpack("<Q", _read_exact(source, 8))
    data = source.read()
    size = len(data)
    # Bound n by the bytes present before allocating anything per vertex.
    if n * _MIN_LABEL_SIZE > size:
        raise FormatError(f"truncated stream: {n} labels cannot fit in {size} bytes")
    shared = list(range(n))
    hubs: list[list[int]] = []
    dists: list[bytes] = []
    pos = 0
    for v in range(n):
        (count,) = _HEAD_COUNT.unpack_from(data, pos)
        start = pos + _HEAD_COUNT.size
        pos = start + count * _PAIR.size
        # the labels after this one need their minimum size too
        if pos + (n - 1 - v) * _MIN_LABEL_SIZE > size:
            raise FormatError("truncated stream")
        hv: list[int] = []
        prev = -1
        own = False  # the cover property for (v, v) needs (v, 0)
        for h, d in _PAIR.iter_unpack(data[start:pos]):
            if h <= prev:
                raise FormatError(f"label of vertex {v} is not strictly hub-sorted")
            if h >= n:
                raise FormatError(f"label of vertex {v} names hub {h} >= {n}")
            if not d:
                if h != v:
                    raise FormatError(f"label of vertex {v} has hub {h} at distance 0")
                own = True
            prev = h
            hv.append(shared[h])
        if not own:
            # hubs ascend strictly, so (v, d) with d > 0 also ends here
            raise FormatError(f"label of vertex {v} lacks its own pair ({v}, 0)")
        hubs.append(hv)
        # the distances are each pair's last byte
        dists.append(data[start + _PAIR.size - 1 : pos : _PAIR.size])
    if pos != size:
        raise FormatError("trailing bytes after the last label")
    return LabelSet(hubs, dists)


def _read_exact(source: IO[bytes], nbytes: int) -> bytes:
    buf = source.read(nbytes)
    if len(buf) != nbytes:
        raise FormatError("truncated stream")
    return buf
