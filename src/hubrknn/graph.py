"""Raw input: edge lists, object files, and the raw-to-dense vertex ID map.

Input graphs are plain text edge lists (one edge per line, ``#``/``%``
comments), the format used by most public network datasets; object files
hold one raw vertex ID per line. A ``str`` parses exactly as a text stream
holding it: lines end at ``\n`` only. Vertex IDs in a file ("raw" IDs) may
be arbitrary non-negative integers; they are remapped to dense 0-based IDs
in order of first appearance, and the mapping is kept on the Graph so
results can be reported in the caller's original IDs. A parsed Graph also
keeps the CRC-32 of the text it was parsed from, which a label file stores
to name the edge list it was built from (``edge_list_crc`` reads it with no
parse). The vertex rules live here as well: ``_check_vertex`` is the one
range check of a dense vertex ID, and ``ObjectSet`` holds distinct objects.
"""

from __future__ import annotations

import io
import zlib
from collections import deque
from typing import IO, Iterable, Iterator, Sequence

from .errors import ConfigError, FormatError, ParseError

COMMENT_PREFIXES = ("#", "%")
_CHUNK = 1 << 16  # characters of a text stream read at a time


class RawIdMap:
    """``raw_ids[v]`` is the raw input ID of dense vertex ``v``; ``dense_id``
    maps back through a dict made on first use."""

    __slots__ = ("raw_ids", "_dense")

    def __init__(self, raw_ids: Sequence[int]):
        self.raw_ids = raw_ids
        self._dense: dict[int, int] | None = None

    def dense_id(self, raw: int) -> int:
        """Map a raw input ID to its dense ID; ConfigError if absent,
        FormatError if ``raw_ids`` repeats an ID."""
        if self._dense is None:
            dense = dict(zip(self.raw_ids, range(len(self.raw_ids))))
            if len(dense) != len(self.raw_ids):
                raise FormatError("the raw-ID table names a raw ID twice")
            self._dense = dense
        try:
            return self._dense[raw]
        except KeyError:
            raise ConfigError(f"vertex {raw} is not in the graph") from None


class Graph(RawIdMap):
    """Immutable, undirected, unweighted graph over dense vertex IDs.

    ``adjacency[v]`` is a sorted list of neighbors with no self-loops and no
    duplicates; ``raw_ids[v]`` is the original ID vertex ``v`` had on input.
    ``edge_list_crc`` is the ``text_crc`` of the edge list the graph was
    parsed from, None for a graph never parsed from text; equality ignores
    it. Instances are safe to share between threads once built.
    """

    __slots__ = ("vertex_count", "edge_count", "adjacency", "edge_list_crc")

    def __init__(
        self, adjacency: list[list[int]], raw_ids: list[int], edge_list_crc: int | None = None
    ):
        super().__init__(raw_ids)
        self.vertex_count = len(adjacency)
        self.adjacency = adjacency
        self.edge_count = sum(len(nbrs) for nbrs in adjacency) // 2
        self.edge_list_crc = edge_list_crc

    @classmethod
    def from_edges(cls, pairs: Iterable[tuple[int, int]]) -> "Graph":
        """Build a Graph from raw (u, v) pairs.

        Every pair is treated as an undirected edge; self-loops and duplicate
        edges are dropped. Raw IDs are densified in first-appearance order
        (scanning u then v of each pair).
        """
        ids: dict[int, int] = {}  # raw -> dense, in first-appearance order
        edges: set[tuple[int, int]] = set()
        for ru, rv in pairs:
            u, v = ids.setdefault(ru, len(ids)), ids.setdefault(rv, len(ids))
            if u == v:
                continue
            edges.add((u, v) if u < v else (v, u))

        if not ids:
            raise ParseError("empty graph: input contains no vertices")

        raw_ids = list(ids)
        adjacency: list[list[int]] = [[] for _ in raw_ids]
        for u, v in edges:
            adjacency[u].append(v)
            adjacency[v].append(u)
        for nbrs in adjacency:
            nbrs.sort()
        return cls(adjacency, raw_ids)

    def avg_degree(self) -> float:
        return 2.0 * self.edge_count / self.vertex_count

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.adjacency == other.adjacency and self.raw_ids == other.raw_ids

    __hash__ = None  # type: ignore[assignment]  # mutable lists inside

    def __repr__(self) -> str:
        return f"Graph(vertices={self.vertex_count}, edges={self.edge_count})"


class ObjectSet:
    """Distinct object vertices; list position is the canonical object index."""

    __slots__ = ("vertices",)

    def __init__(self, vertices: tuple[int, ...]):
        if len(set(vertices)) != len(vertices):
            raise ConfigError("object set contains duplicate vertices")
        if any(v < 0 for v in vertices):
            raise ConfigError("object set contains negative vertex IDs")
        self.vertices = vertices

    def __len__(self) -> int:
        return len(self.vertices)


def _check_vertex(n: int, v: int) -> None:
    """v must be a vertex of a graph with n vertices; the one range check."""
    if not 0 <= v < n:
        raise ConfigError(f"vertex {v} out of range for {n} vertices")


class _DataLines:
    """(line number, stripped line) of each line of a text stream, or of a
    ``str`` read as one, that is not blank or a comment. Lines end at "\\n"
    only; the stream is read in chunks, so no more than one chunk's lines
    are held at a time. ``crc`` takes in the ``text_crc`` of the text read."""

    def __init__(self, source: str | IO[str], comments: tuple[str, ...]):
        self.stream = io.StringIO(source) if isinstance(source, str) else source
        self.comments = comments
        self.crc = 0

    def _lines(self) -> Iterator[str]:
        rest = ""
        for chunk in _chunks(self.stream):
            self.crc = text_crc(chunk, self.crc)
            *done, rest = (rest + chunk).split("\n")
            yield from done
        yield rest

    def __iter__(self) -> Iterator[tuple[int, str]]:
        for lineno, line in enumerate(self._lines(), start=1):
            stripped = line.strip()
            if stripped and not stripped.startswith(self.comments):
                yield lineno, stripped


def _chunks(stream: IO[str]) -> Iterator[str]:
    """The text of ``stream``, ``_CHUNK`` characters at a time; ParseError
    when its bytes are not UTF-8."""
    try:
        while chunk := stream.read(_CHUNK):
            yield chunk
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc.reason} (0x{exc.object[exc.start]:02x})") from None


def text_crc(text: str, crc: int = 0) -> int:
    """The CRC-32 of ``text`` encoded as UTF-8, continuing ``crc``: what
    binds a label file to the edge list it was built from."""
    return zlib.crc32(text.encode("utf-8"), crc)


def edge_list_crc(stream: IO[str]) -> int:
    """The ``text_crc`` of an edge-list stream, read in chunks with no parse;
    for no characters, the ParseError that ``parse_edge_list`` raises."""
    crc, empty = 0, True
    for chunk in _chunks(stream):
        crc, empty = text_crc(chunk, crc), False
    if empty:
        Graph.from_edges(())  # raises "empty graph: input contains no vertices"
    return crc


def parse_edge_list(source: str | IO[str]) -> Graph:
    """Parse an edge-list text or text stream into a normalized Graph that
    records the text's ``text_crc``.

    Lines starting with '#' or '%' are comments. Each data line holds two
    whitespace-separated non-negative integer IDs. Raises ParseError with the
    offending line number on malformed input.
    """
    lines = _DataLines(source, COMMENT_PREFIXES)

    def pairs() -> Iterator[tuple[int, int]]:
        for lineno, stripped in lines:
            tokens = stripped.split()
            if len(tokens) != 2:
                raise ParseError(
                    f"line {lineno}: expected two vertex IDs, found {len(tokens)} tokens"
                )
            try:
                u, v = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise ParseError(
                    f"line {lineno}: non-integer vertex ID in {stripped!r}"
                ) from None
            if u < 0 or v < 0:
                raise ParseError(f"line {lineno}: negative vertex ID in {stripped!r}")
            yield u, v

    graph = Graph.from_edges(pairs())
    graph.edge_list_crc = lines.crc
    return graph


def parse_object_file(source: str | IO[str]) -> list[int]:
    """Raw vertex IDs, one per line of a text or text stream; '#' starts a
    comment. A source holding none is a ParseError."""
    out: list[int] = []
    for lineno, stripped in _DataLines(source, ("#",)):
        try:
            out.append(int(stripped))
        except ValueError:
            raise ParseError(
                f"line {lineno}: expected a vertex ID, got {stripped!r}"
            ) from None
    if not out:
        raise ParseError("empty object set: input contains no vertices")
    return out


def largest_connected_component(graph: Graph) -> Graph:
    """Induced subgraph on the largest connected component, IDs re-densified.

    Size ties go to the component containing the smallest dense vertex ID.
    Returns the input unchanged when it is already connected.
    """
    n = graph.vertex_count
    visited = [False] * n
    best: list[int] = []
    unvisited = n
    for start in range(n):
        if visited[start]:
            continue
        component = _bfs_collect(graph, start, visited)
        unvisited -= len(component)
        if len(component) > len(best):
            best = component
        if len(best) > unvisited:  # no remaining component can win
            break
    if len(best) == n:
        return graph

    best.sort()  # keep relative dense order stable
    remap = {old: new for new, old in enumerate(best)}
    adjacency = [[remap[w] for w in graph.adjacency[old]] for old in best]
    raw_ids = [graph.raw_ids[old] for old in best]
    return Graph(adjacency, raw_ids, graph.edge_list_crc)


def _bfs_collect(graph: Graph, start: int, visited: list[bool]) -> list[int]:
    visited[start] = True
    queue = deque([start])
    out = [start]
    adjacency = graph.adjacency
    while queue:
        v = queue.popleft()
        for w in adjacency[v]:
            if not visited[w]:
                visited[w] = True
                out.append(w)
                queue.append(w)
    return out


def degree_ordering(graph: Graph) -> tuple[int, ...]:
    """Vertices by descending degree, ties by ascending ID: the label
    build's landmark order, first landmark first."""
    adjacency = graph.adjacency
    return tuple(sorted(range(graph.vertex_count), key=lambda v: (-len(adjacency[v]), v)))
