import pytest

from hubrknn import Graph, ObjectSet, build_pll_labels, degree_ordering, largest_connected_component

from fixtures import TREE14_EDGES, TREE14_OBJECTS
from graphgen import preferential_attachment_graph


@pytest.fixture(scope="session")
def tree14() -> Graph:
    return Graph.from_edges(TREE14_EDGES)


@pytest.fixture(scope="session")
def tree14_labels(tree14):
    return build_pll_labels(tree14, degree_ordering(tree14))


@pytest.fixture(scope="session")
def tree14_objects() -> ObjectSet:
    return ObjectSet(TREE14_OBJECTS)


@pytest.fixture(scope="session")
def pa3k() -> Graph:
    """PA 3000/12 (seed 1234) through the LCC: the benchmark's 3k graph."""
    return largest_connected_component(preferential_attachment_graph(3000, 12, 1234))


@pytest.fixture(scope="session")
def pa3k_labels(pa3k):
    return build_pll_labels(pa3k, degree_ordering(pa3k))
