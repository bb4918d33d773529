"""Dense real-space references shared by the tests."""

from dataclasses import astuple

import numpy as np

from bosepol.rice_mele import RiceMeleParams, _ring_hamiltonian, rmm_cell_blocks
from bosepol.states import LatticeSpec


def rmm_hopping_matrix(params: RiceMeleParams, lattice: LatticeSpec) -> np.ndarray:
    """Real-space Rice-Mele hopping matrix with periodic boundary conditions.

    Basis ordering matches the lattice (cell-major, site-next): the blocks
    of :func:`bosepol.rice_mele.rmm_cell_blocks` on a ring of ``lattice.cells``
    cells. Its Bloch blocks are those of ``_bloch_hamiltonians``, with
    eigenvalues in +/- eps_k pairs.
    """
    if lattice.sites_per_cell != 2:
        raise ValueError("Rice-Mele model needs two sites per cell")
    return _ring_hamiltonian(*rmm_cell_blocks(astuple(params)), lattice.cells)
