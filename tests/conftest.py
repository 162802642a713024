"""Shared pytest fixtures."""

from functools import partial

import numpy as np
import pytest

from repro.backends import get_backend
from repro.tensornetwork.contraction_path import _candidates
from repro.tensornetwork.einsum_spec import parse_einsum


@pytest.fixture
def rng():
    """A deterministic random generator for test data."""
    return np.random.default_rng(12345)


@pytest.fixture
def numpy_backend():
    return get_backend("numpy")


@pytest.fixture
def dist_backend():
    """A small simulated distributed backend (4 processes)."""
    return get_backend("distributed", nprocs=4)


@pytest.fixture(params=["numpy", "distributed"])
def backend(request):
    """Parametrized fixture running a test on both backends."""
    if request.param == "numpy":
        return get_backend("numpy")
    return get_backend("distributed", nprocs=4)


def random_complex(rng, shape):
    """Helper used across test modules for complex test tensors."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def search_inputs(subscripts, shapes):
    """What the planner's searches take: the parsed spec, its terms, its
    output label set and the label extents."""
    spec = parse_einsum(subscripts, n_operands=len(shapes))
    return spec, list(spec.inputs), set(spec.output), spec.index_dimensions(shapes)


def order_cost(terms, output, dims, order):
    """What the searches minimise, summed over the steps of ``order``."""
    total = 0
    for pair in order:
        terms, cost = next(
            (after, cost) for p, after, cost in _candidates(terms, output, dims) if p == pair
        )
        total += cost
    return total


def run_plan(plan, operands):
    """Execute a plan step by step on NumPy's unoptimized kernel."""
    return plan.execute(operands, partial(np.einsum, optimize=False))
