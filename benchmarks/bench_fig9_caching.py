"""Figure 9: expectation-value evaluation with and without intermediate caching.

The paper evaluates an operator composed of one-site terms on all sites and
two-site terms on all neighbouring pairs of a square PEPS with bond dimension
4, for side lengths 2..12, using IBMPS; the cached strategy of Section IV-B
is up to 4.5x faster at side 12.

The scaled-down default sweeps side lengths 2..5 with bond dimension 2 and
checks the two shapes of the figure: the cached and uncached evaluations give
the same value, and the speed-up from caching grows with the lattice side.

The library keeps only the cached strategy (``PEPS.expectation``); the
timed uncached leg, :func:`uncached_pass`, and the per-term reference the
cached value is checked against, :func:`expectation_uncached`, are written
here.
"""

import time

import numpy as np
import pytest

from repro.operators.hamiltonians import Hamiltonian
from repro.operators.pauli import pauli_matrix
from repro.peps import BMPS, make_environment
from repro.peps.envs import local_terms
from repro.peps.peps import random_peps
from repro.tensornetwork import ImplicitRandomizedSVD

from benchmarks.conftest import scaled


def all_site_and_bond_observable(nrow, ncol):
    """One-site X on every site plus ZZ on every neighbouring pair (as in Fig. 9)."""
    ham = Hamiltonian(nrow, ncol)
    x, z = pauli_matrix("X"), pauli_matrix("Z")
    zz = np.kron(z, z)
    for s in range(ham.n_sites):
        ham.add_one_site(s, x)
    for a, b in ham.nearest_neighbor_pairs():
        ham.add_two_site(a, b, zz)
    return ham


def expectation_uncached(state, observable, option=None):
    """``<O>`` with a fresh environment per local term: nothing is shared
    between terms, not even the norm.

    Each term is normalised in its own environment, so the sum is the
    library's ``Re(sum_i <psi|O_i|psi> / <psi|psi>)`` term by term.  A
    truncated ``<psi|psi>`` carries a small imaginary part; dividing real
    parts instead would differ from the cached pass by the product of the
    two imaginary parts, not by rounding.

    The tests check the shared-boundary expectation pass against it too.
    """
    return sum(
        make_environment(state, option).expectation([term])
        for term in local_terms(observable)
    )


def uncached_pass(state, observable, option=None):
    """Fig. 9's timed uncached leg: a fresh environment per local term for
    its unnormalised value, and one more environment for the norm.

    Like :func:`expectation_uncached` it shares nothing between terms, but
    it pays for one norm sweep, not one per term.  Its ``Re(sum) /
    Re(norm)`` is not the library's formula once truncation leaves
    ``<psi|psi>`` slightly complex, so the sweep checks the cached value
    against :func:`expectation_uncached`, computed outside the timed block.
    """
    total = sum(
        make_environment(state, option).expectation([term], normalized=False)
        for term in local_terms(observable)
    )
    return total / float(np.real(make_environment(state, option).norm_sq()))


def test_fig9_caching_speedup(benchmark, record_rows):
    sides = scaled([2, 3, 4, 5], [2, 4, 6, 8, 10, 12])
    bond = scaled(2, 4)
    m = scaled(4, 16)

    def sweep():
        rows = []
        for side in sides:
            state = random_peps(side, side, bond_dim=bond, seed=side)
            ham = all_site_and_bond_observable(side, side)
            option = BMPS(ImplicitRandomizedSVD(rank=m, niter=1, seed=0))

            start = time.perf_counter()
            cached = state.expectation(ham, contract_option=option)
            cached_time = time.perf_counter() - start

            start = time.perf_counter()
            uncached_pass(state, ham, option)
            uncached_time = time.perf_counter() - start

            reference = expectation_uncached(state, ham, option)
            rows.append((side, len(ham), cached_time, uncached_time,
                         uncached_time / max(cached_time, 1e-12),
                         abs(cached - reference)))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    record_rows(
        f"Fig. 9: expectation value with/without caching (bond {bond}, m={m})",
        ["side", "terms", "with cache (s)", "without cache (s)", "speed-up", "|difference|"],
        rows,
    )
    # Both strategies compute the same number.
    assert all(row[5] < 1e-6 for row in rows)
    # Caching helps, and helps more on larger lattices (the 4.5x shape).
    speedups = [row[4] for row in rows]
    assert speedups[-1] > 1.0
    assert speedups[-1] >= speedups[0] * 0.9
