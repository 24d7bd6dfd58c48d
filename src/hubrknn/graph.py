"""Undirected graph parsing and normalization.

Input graphs are plain text edge lists (one edge per line, ``#``/``%``
comments), the format used by most public network datasets. Vertex IDs in a
file ("raw" IDs) may be arbitrary non-negative integers; they are remapped to
dense 0-based IDs in order of first appearance, and the mapping is kept on
the Graph so results can be reported in the caller's original IDs. A parsed
Graph also keeps the CRC-32 of the text it was parsed from, which a label
file stores to name the edge list it was built from.
"""

from __future__ import annotations

import zlib
from collections import deque
from typing import IO, Iterable, Iterator

from .errors import ConfigError, ParseError

COMMENT_PREFIXES = ("#", "%")
_CHUNK = 1 << 16  # characters of an edge-list stream read at a time


class Graph:
    """Immutable, undirected, unweighted graph over dense vertex IDs.

    ``adjacency[v]`` is a sorted list of neighbors with no self-loops and no
    duplicates; ``raw_ids[v]`` is the original ID vertex ``v`` had on input.
    ``edge_list_crc`` is the ``text_crc`` of the edge list the graph was
    parsed from, None for a graph never parsed from text; equality ignores
    it. Instances are safe to share between threads once built.
    """

    __slots__ = (
        "vertex_count", "edge_count", "adjacency", "raw_ids", "edge_list_crc", "_raw_to_dense"
    )

    def __init__(
        self, adjacency: list[list[int]], raw_ids: list[int], edge_list_crc: int | None = None
    ):
        self.vertex_count = len(adjacency)
        self.adjacency = adjacency
        self.edge_count = sum(len(nbrs) for nbrs in adjacency) // 2
        self.raw_ids = raw_ids
        self.edge_list_crc = edge_list_crc
        self._raw_to_dense = {raw: v for v, raw in enumerate(raw_ids)}

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

    def dense_id(self, raw: int) -> int:
        """Map a raw input ID to its dense ID; ConfigError if absent."""
        try:
            return self._raw_to_dense[raw]
        except KeyError:
            raise ConfigError(f"vertex {raw} is not in the graph") from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.adjacency == other.adjacency and self.raw_ids == other.raw_ids

    __hash__ = None  # type: ignore[assignment]  # mutable lists inside

    def __repr__(self) -> str:
        return f"Graph(vertices={self.vertex_count}, edges={self.edge_count})"


def _data_lines(
    source: str | IO[str] | Iterable[str], comments: tuple[str, ...]
) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) of each line not blank or a comment."""
    lines = source.splitlines() if isinstance(source, str) else source
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith(comments):
            yield lineno, stripped


def text_crc(text: str, crc: int = 0) -> int:
    """The CRC-32 of ``text`` encoded as UTF-8, continuing ``crc``: what
    binds a label file to the edge list it was built from."""
    return zlib.crc32(text.encode("utf-8"), crc)


def parse_edge_list(source: str | IO[str]) -> Graph:
    """Parse an edge-list text or text stream into a normalized Graph that
    records the text's ``text_crc``.

    Lines starting with '#' or '%' are comments. Each data line holds two
    whitespace-separated non-negative integer IDs. Raises ParseError with the
    offending line number on malformed input.
    """
    crc = 0

    def lines() -> Iterator[str]:
        """The lines of ``source``, as iterating it gives them, while ``crc``
        takes in the text read; a stream is read in chunks, so no more than
        one chunk's lines are held at a time."""
        nonlocal crc
        if isinstance(source, str):
            crc = text_crc(source)
            yield from source.splitlines()
            return
        rest = ""
        while chunk := source.read(_CHUNK):
            crc = text_crc(chunk, crc)
            *done, rest = (rest + chunk).split("\n")
            yield from done
        yield rest

    def pairs() -> Iterator[tuple[int, int]]:
        for lineno, stripped in _data_lines(lines(), COMMENT_PREFIXES):
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
    graph.edge_list_crc = crc
    return graph


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
