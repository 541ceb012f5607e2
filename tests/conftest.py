import functools
from dataclasses import replace

import pytest

import graphhom.cube as cube
from graphhom import build_complex, cohomology, corpus_graphs


def record_builds(monkeypatch, *modules):
    """Every complex built from now on by the private builder `_build` as
    looked up in `modules`, with the state map it was given, as (complex,
    states) pairs. `cube` records every `build_complex`, `homology` the
    cycle summands of `tutte_cohomology`. Each complex is kept alive, so
    the ids of its sequences stay its own."""
    built = []
    build = cube._build

    def recording(G, variant, states):
        built.append((build(G, variant, states), states))
        return built[-1][0]

    for module in modules:
        monkeypatch.setattr(module, "_build", recording)
    return built


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
