"""Shared pytest fixtures."""

import importlib
from functools import partial

import numpy as np
import pytest
from hypothesis import settings

from repro.backends import get_backend
from repro.peps.envs.sampling import _sample_group, _SamplingPlan
from repro.tensornetwork.contraction_path import _candidates
from repro.tensornetwork.einsum_spec import parse_einsum
from repro.tensornetwork.network import contract_network
from repro.utils.rng import derive_rng, ensure_rng

#: Shared hypothesis profile: property tests contract real tensors, so keep
#: the example counts modest to stay fast and deterministic.
FAST = settings(max_examples=20, deadline=None)


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


@pytest.fixture
def randomized_svd_calls(monkeypatch):
    """The ranks of the Algorithm 4 runs made while the test runs: an implicit
    ``einsumsvd`` whose sketch covers the operator's short side makes none."""
    module = importlib.import_module("repro.linalg.randomized_svd")
    original, calls = module.randomized_svd, []

    def spy(backend, operator, rank, *args, **kwargs):
        calls.append(rank)
        return original(backend, operator, rank, *args, **kwargs)

    monkeypatch.setattr(module, "randomized_svd", spy)
    return calls


def random_complex(rng, shape):
    """Helper used across test modules for complex test tensors."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def sample_in_groups_of_one(env, rng, nshots):
    """What ``env.sample(rng=rng, nshots=nshots)`` draws, with every shot
    advanced as its own lockstep group on its own substream."""
    root = int(ensure_rng(rng).integers(0, 2**63 - 1, dtype=np.int64))
    plan = _SamplingPlan(env)
    return np.concatenate(
        [_sample_group(plan, [derive_rng(root, "shot", s)]) for s in range(nshots)]
    )


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


def brute_force_order(terms, output, dims):
    """The reference the planner's search is held against: every pair order
    enumerated outright, the cheapest kept, the first one met on ties."""
    best = [None, None]

    def walk(terms, order, cost):
        if len(terms) == 1:
            if best[0] is None or cost < best[0]:
                best[:] = cost, order
            return
        for pair, after, step_cost in _candidates(terms, output, dims):
            walk(after, order + [pair], cost + step_cost)

    walk(terms, [], 0)
    return best[1]


def random_network(rng, n):
    """Subscripts and shapes of a random ``n``-operand network with small
    extents (so costs tie often): every label sits on one to three operands,
    some survive into the output."""
    labels = "abcdefghijklmnopqrstuvwxyz"[: n + 3]
    # An unoptimized reference einsum visits the whole index space.
    largest = 3 if len(labels) <= 12 else 2
    extent = {label: int(rng.integers(1, largest + 1)) for label in labels}
    terms = [[] for _ in range(n)]
    for k, label in enumerate(labels):
        # the first n labels chain the operands so none is left empty
        owners = {k % n, int(rng.integers(n))} if k < n else set()
        owners |= {int(o) for o in rng.integers(n, size=rng.integers(1, 3))}
        for owner in sorted(owners):
            terms[owner].append(label)
    output = [label for label in labels if rng.random() < 0.3]
    rng.shuffle(output)
    subscripts = ",".join("".join(term) for term in terms) + "->" + "".join(output)
    shapes = [tuple(extent[label] for label in term) for term in terms]
    return subscripts, shapes


def run_plan(plan, operands):
    """Execute a plan step by step on NumPy's unoptimized kernel."""
    return plan.execute(operands, partial(np.einsum, optimize=False))


def exact_single_layer_value(backend, grid):
    """Reference value of a single-layer grid via the generic network contractor."""
    operands, inputs = [], []
    nrow, ncol = len(grid), len(grid[0])
    for i in range(nrow):
        for j in range(ncol):
            operands.append(grid[i][j])
            inputs.append((("v", i, j), ("h", i, j), ("v", i + 1, j), ("h", i, j + 1)))
    result = contract_network(operands, inputs, (), backend=backend)
    return backend.item(result)
