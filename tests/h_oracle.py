"""H = e_1 + ... + e_2n applied to a sparse vector one generator at a
time: the tests' oracle for the sparse matrix that
:func:`fplrs.groundstate.build_h_matrix` builds and ``_residual`` reads.
"""

from __future__ import annotations

from fplrs.linkpat import LpVector, apply_e


def apply_hamiltonian(v: LpVector) -> LpVector:
    """H = e_1 + ... + e_2n acting linearly."""
    out = LpVector.zero(v.n)
    for j in range(1, 2 * v.n + 1):
        out = out + apply_e(v, j)
    return out
