"""Solution validators for every problem the paper solves.

Each validator raises :class:`VerificationError` with a precise witness on
failure and returns silently on success; ``check_*`` variants return bools.
Tests and benchmarks validate every produced solution.

The validators behind ``Execution.validate`` for the bulk-capable problem
kinds -- :func:`assert_proper_coloring`, :func:`assert_defective_coloring`,
:func:`assert_maximal_independent_set` and :func:`assert_h_partition` --
are columnar: they read the graph's CSR view and columns of the result
(:mod:`repro.verify.columns`; zero-copy for the bulk kernels'
:class:`~repro.runtime.bulk.ColumnMap` views), never ``g.edges()`` or
``g.neighbors()``, so validating a ``Graph.from_csr`` graph never builds
its Python object layer.  Their witness is the lowest offending vertex or
canonical edge.  The loop-form definitions they are tested against live
in the test suite (``tests/verify/oracle.py``).
"""

from repro.verify.colorings import (
    VerificationError,
    assert_proper_coloring,
    assert_proper_edge_coloring,
    assert_list_coloring,
    assert_defective_coloring,
    color_count,
    defect_of,
)
from repro.verify.sets import (
    assert_maximal_independent_set,
    assert_maximal_matching,
)
from repro.verify.structures import (
    assert_forest_decomposition,
    assert_h_partition,
    assert_acyclic_orientation,
    assert_arbdefective_coloring,
)

__all__ = [
    "VerificationError",
    "assert_proper_coloring",
    "assert_proper_edge_coloring",
    "assert_list_coloring",
    "assert_defective_coloring",
    "assert_maximal_independent_set",
    "assert_maximal_matching",
    "assert_forest_decomposition",
    "assert_h_partition",
    "assert_acyclic_orientation",
    "assert_arbdefective_coloring",
    "color_count",
    "defect_of",
]
