import functools
from dataclasses import replace

import pytest

from graphhom import build_complex, cohomology, corpus_graphs


@pytest.fixture(scope="session")
def corpus():
    return corpus_graphs()


@pytest.fixture(scope="session")
def complex_of():
    """Session-wide memo of built complexes, keyed by (graph, variant) like
    the one `verify.run_checks` holds for a single check run: it keeps the
    blocks it read, so each height is written once."""
    return functools.cache(
        lambda graph, variant: replace(cx := build_complex(graph, variant), blocks=list(cx.blocks))
    )


@pytest.fixture(scope="session")
def table_of(complex_of):
    """Session-wide memo of cohomology tables, keyed by (graph, variant)."""
    return functools.cache(lambda graph, variant: cohomology(complex_of(graph, variant)))
