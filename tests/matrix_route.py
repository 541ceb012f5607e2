"""The matrix-product route, kept in the tests as the reference for the
target-array chain maps: global differentials and chain maps as
`IntMatrix`es, so that their oracles stay matrix products."""

from graphhom.matrices import IntMatrix


def differential(cx, i):
    """d^i: C^i -> C^(i+1) of `cx` in the global basis order, assembled from
    `BigradedComplex.nonzeros` (zero outside the stored heights)."""
    return IntMatrix(cx.rank(i + 1), cx.rank(i), {(r, c): v for r, c, v in cx.nonzeros(i)})


def map_matrix(targets, rows):
    """The 0/1 matrix with `rows` rows of a target array: column l holds a 1
    in row targets[l], or nothing when targets[l] is -1."""
    return IntMatrix(rows, len(targets), {(t, l): 1 for l, t in enumerate(targets) if t >= 0})
