import functools

import pytest

from graphhom import build_complex, cohomology, corpus_graphs


@pytest.fixture(scope="session")
def corpus():
    return corpus_graphs()


@pytest.fixture(scope="session")
def complex_of():
    """Session-wide memo of built complexes, keyed by (graph, variant) like
    the one `verify.run_checks` holds for a single check run."""
    return functools.cache(lambda graph, variant: build_complex(graph, variant))


@pytest.fixture(scope="session")
def table_of(complex_of):
    """Session-wide memo of cohomology tables, keyed by (graph, variant)."""
    return functools.cache(lambda graph, variant: cohomology(complex_of(graph, variant)))
