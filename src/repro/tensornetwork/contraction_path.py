"""The contraction planner: the one place a pairwise contraction order is chosen.

Every consumer that contracts more than two tensors — ``NumPyBackend.einsum``
/ ``einsum_batched``, the distributed engine and
:func:`~repro.tensornetwork.network.contract_network` — asks
:func:`find_path` for a :class:`ContractionPlan` and only *executes* it, so
the order that is counted (``total_flops``) is the order that runs.  The
search works purely on index metadata (labels and extents): the cheapest
order, by dynamic programming over operand subsets, up to
:data:`EXHAUSTIVE_LIMIT` operands, greedy above.  Plans are cached on
``(spec, shapes)``; callers with free-form labels canonicalise them first so
that structurally equal networks share one entry.  It plays the role
``opt_einsum`` plays for the original Koala library.

A plan whose largest intermediate exceeds :data:`BLOCK_TRIGGER` elements also
carries a :class:`Blocking`: one output label cut into equal slices, and the
plan :func:`relower`-ed at the slice extent, chosen once per signature so that
no slice's intermediate exceeds :data:`BLOCK_TARGET` and the slices add no
flops.  Executors run such a plan slice by slice, each slice's result written
in place into one output laid out as the whole plan's
(:func:`slice_operands`, :func:`concat_blocks`, the one home of block slicing
and assembly, which the distributed engine's canonical blocks use too).
Slicing a label the plan never sums changes no sum, and the slices keep every
matrix product on the BLAS kernels the whole plan runs (:data:`BLOCK_ALIGN`
here; the NumPy executor checks operand strides at run time), so a blocked
plan's result is bitwise the unblocked one's.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import combinations
from math import prod
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.telemetry.metrics import REGISTRY
from repro.telemetry.trace import span
from repro.tensornetwork.einsum_spec import EinsumSpec, parse_einsum, symbols

Label = Hashable
Term = Tuple[Label, ...]

#: Largest operand count whose cheapest order is searched for.  The search
#: evaluates about ``0.75 * 3**n`` splits at well under a microsecond each:
#: some 10 ms for the 9 operands of a two-row strip column, 0.2 s for 12.
EXHAUSTIVE_LIMIT = 12

#: What writing one element of a step's result (and reading it back in a later
#: step) costs the search, in complex multiply-adds: 32 bytes of traffic at a
#: few flops per byte.  Without it the search buys a few percent of flops with
#: a several times larger intermediate, which runs slower.
WRITE_COST = 8

#: Plans whose largest intermediate holds more elements than this run as
#: output slices (:class:`Blocking`).  At 2^17 the rule also split the IBMPS
#: norm's 147k-557k element plans 2 ways, halving GEMMs such as
#: (512x512)@(512x17), and that rung ran 7% slower; at 2^19 every benchmark
#: rung read within noise and only the BMPS norm's zip-up einsums block.
BLOCK_TRIGGER = 1 << 19

#: The largest intermediate a slice of a blocked plan may hold: 2^17 complex
#: elements are 2 MiB, one core's L2 on the machines measured (docs/perf.md).
BLOCK_TARGET = 1 << 17

#: A slice may shrink a matrix product's row or column count only to a
#: multiple of this.  OpenBLAS computes a product's edge rows and columns
#: (and a one-row or one-column product, as a matrix-vector product) with
#: other kernels than the rest, which round differently: a (4, 3) @ (3, 4)
#: complex product's first two columns differ in the last bit from the
#: (4, 3) @ (3, 2) product's, and a real product's first 12 columns can differ
#: from the 12-column product's.  Shrunk to multiples of 8 elements, every
#: measured product kept its bits, so a blocked plan's result is bitwise the
#: unblocked one's (docs/perf.md, "Blocked plans").
BLOCK_ALIGN = 8


@dataclass(frozen=True)
class ContractionPlan:
    """A contraction order fixed from labels and extents; immutable, picklable.

    Attributes
    ----------
    inputs / output:
        The labels of each operand and of the result, as given to
        :func:`find_path`.
    path:
        The operand positions contracted at each step, in the
        ``np.einsum_path`` convention (positions refer to the *current*
        operand list: the picked operands are removed, the result appended).
        Every step is pairwise, except the single step of a one-operand
        expression.
    steps:
        For each step, einsum subscripts with letters local to that step (a
        network may carry more labels than the einsum alphabet, one step
        never does).  The last step produces ``output`` exactly, summing
        whatever labels are left and fixing the axis order.
    lowered:
        For each step, the same contraction as plain tuples of ints, ready to
        run as transpose, reshape and one matrix product (see :func:`_lower`).
    total_flops:
        Estimated floating-point operations (complex FMAs * 8).
    max_intermediate_size:
        Largest number of elements of any operand, intermediate or result.
    blocking:
        How the plan runs as output slices, or ``None`` to run it whole (see
        :class:`Blocking`).  Counting ignores it: the slices' flops sum to
        ``total_flops`` exactly.
    """

    inputs: Tuple[Term, ...]
    output: Term
    path: Tuple[Tuple[int, ...], ...]
    steps: Tuple[str, ...]
    lowered: Tuple[tuple, ...]
    total_flops: float
    max_intermediate_size: int
    blocking: Optional["Blocking"] = None

    def execute(self, operands: Sequence, einsum: Callable):
        """Contract ``operands`` step by step through
        ``einsum(subscripts, *tensors)``; returns the result tensor."""
        work = list(operands)
        for pair, step in zip(self.path, self.steps):
            picked = [work.pop(k) for k in reversed(pair)]
            work.append(einsum(step, *reversed(picked)))
        return work[0]


@dataclass(frozen=True)
class Blocking:
    """A plan run as equal slices of one output label.

    ``label`` is cut at ``bounds`` (contiguous ``(lo, hi)`` pairs covering its
    extent), and every slice contracts its slices of the operands that carry
    the label by ``plan``, the parent plan re-lowered at the slice extent.
    """

    label: Label
    bounds: Tuple[Tuple[int, int], ...]
    plan: ContractionPlan


def find_path(
    spec: Union[str, EinsumSpec], shapes: Sequence[Sequence[int]]
) -> ContractionPlan:
    """The contraction plan for an einsum expression (planned once, then cached).

    Parameters
    ----------
    spec:
        Einsum subscripts, or an :class:`EinsumSpec` whose labels may be any
        hashables.
    shapes:
        Shapes of the operands (they weight the search).

    Raises ``ValueError`` for subscripts outside the parser's grammar
    (ellipsis, repeated labels within a term) and for shapes inconsistent
    with the labels.
    """
    return _plan(spec, tuple(map(tuple, shapes)))


@lru_cache(maxsize=4096)
def _plan(spec: Union[str, EinsumSpec], shapes: Tuple[Tuple[int, ...], ...]) -> ContractionPlan:
    if isinstance(spec, str):
        spec = parse_einsum(spec, n_operands=len(shapes))
    dims = spec.index_dimensions(shapes)
    if not spec.inputs:
        raise ValueError("cannot find a contraction path for zero operands")
    n = len(spec.inputs)
    search = _optimal_order if n <= EXHAUSTIVE_LIMIT else _greedy_order
    with span("planner.search", operands=n):
        order = search(list(spec.inputs), set(spec.output), dims)
    REGISTRY.counter("planner.searches", operands=n).add()
    plan = _build_plan(spec, dims, order)
    if plan.max_intermediate_size <= BLOCK_TRIGGER:
        return plan
    return replace(plan, blocking=_blocking(plan, dims))


def _blocking(plan: ContractionPlan, dims: Dict[Label, int]) -> Optional[Blocking]:
    """The output slices a large plan runs as, or ``None``.

    The output labels are tried in order; for each, the fewest parts (2 to
    64, dividing the extent) whose re-lowered plan holds no intermediate above
    :data:`BLOCK_TARGET` elements, whose parts add no flops (which holds when
    every step of the path touches the label) and whose matrix products shrink
    only to multiples of :data:`BLOCK_ALIGN` rows or columns.  A one-operand
    plan multiplies nothing, so slicing it gains nothing: it is never blocked.
    """
    if len(plan.inputs) == 1:
        return None
    for label in plan.output:
        extent = dims[label]
        for parts in range(2, min(extent, 64) + 1):
            if extent % parts:
                continue
            width = extent // parts
            block = relower(plan, {**dims, label: width})
            if (block.max_intermediate_size <= BLOCK_TARGET
                    and parts * block.total_flops == plan.total_flops
                    and _aligned(plan, block)):
                bounds = tuple((k * width, (k + 1) * width) for k in range(parts))
                return Blocking(label, bounds, block)
    return None


def _aligned(plan: ContractionPlan, block: ContractionPlan) -> bool:
    """Whether every row or column count of ``block``'s matrix products that
    differs from ``plan``'s is a multiple of :data:`BLOCK_ALIGN`."""
    for whole, part in zip(plan.lowered, block.lowered):
        for rows_or_columns in ((2, 1), (5, 2)):  # shape_a's rows, shape_b's columns
            size = part[rows_or_columns[0]][rows_or_columns[1]]
            if size != whole[rows_or_columns[0]][rows_or_columns[1]] and size % BLOCK_ALIGN:
                return False
    return True


def relower(plan: ContractionPlan, dims: Dict[Label, int]) -> ContractionPlan:
    """``plan``'s contraction order lowered at other label extents ``dims``.

    Nothing is searched: the steps are those of ``plan.path``, so the result
    contracts a slice of ``plan``'s operands (the distributed engine's
    canonical blocks) exactly as ``plan`` contracts the whole.
    """
    return _build_plan(plan, dims, plan.path)


def slice_operands(
    inputs: Sequence[Term], label: Label, operands: Sequence[np.ndarray], lo: int, hi: int
) -> List[np.ndarray]:
    """Restrict every operand whose labels (``inputs``) carry ``label`` to
    ``[lo, hi)`` of that label (views); the other operands pass through."""
    out = []
    for term, array in zip(inputs, operands):
        if label in term:
            array = array[(slice(None),) * term.index(label) + (slice(lo, hi),)]
        out.append(array)
    return out


def concat_blocks(
    output: Term, label: Label, blocks: Iterable[np.ndarray], extent: int, perm: Sequence[int]
) -> np.ndarray:
    """Join result blocks along ``label``'s axis of the result labelled ``output``.

    The blocks, in label order, are written one at a time into one
    preallocated array, so ``blocks`` may be a generator that computes each
    block when asked and no more than one block is alive beside the result.
    ``extent`` is the label's total extent.  The result is laid out as a
    C-contiguous array transposed by ``perm`` (the identity for C order), so
    a caller gives it the layout the unsliced computation would have: a
    block's strides cannot tell, since an axis sliced to extent 1 ties with
    its neighbours.  A first block of the whole extent comes back as it is.
    """
    axis = output.index(label)
    out = None
    lo = 0
    for block in blocks:
        if out is None:
            if block.shape[axis] == extent:
                return block  # one block covers the label: nothing to join
            shape = block.shape[:axis] + (extent,) + block.shape[axis + 1:]
            order = sorted(range(len(perm)), key=perm.__getitem__)
            out = np.empty([shape[k] for k in order], dtype=block.dtype).transpose(perm)
        hi = lo + block.shape[axis]
        out[(slice(None),) * axis + (slice(lo, hi),)] = block
        lo = hi
    return out


def path_cache_stats() -> dict:
    """Hit/miss/size counters of the plan cache.

    Benchmarks read these to report how well repeated hot-loop contractions
    amortize their planning (a lockstep sampler should show almost-all hits
    after the first site of the first row).
    """
    info = _plan.cache_info()
    return {"path": {"hits": info.hits, "misses": info.misses, "size": info.currsize}}


def clear_path_caches() -> None:
    """Drop every cached plan (and the counters).

    Call between benchmark measurements so planning cost and cache-hit
    counts are attributed to the measured phase, reproducibly across runs.
    """
    _plan.cache_clear()


def _size(term: Sequence[Label], dims: Dict[Label, int]) -> int:
    return prod(dims[label] for label in term)


def _pair_result(term_a: Term, term_b: Term, keep: set) -> Term:
    """Labels surviving the contraction of a pair: those still needed by the
    output or another operand, and those only one of the two carries."""
    return tuple(
        label
        for label in dict.fromkeys(term_a + term_b)
        if label in keep or (label in term_a) != (label in term_b)
    )


def _contract_pair(terms: List[Term], i: int, j: int, output: set) -> List[Term]:
    """The operand list after contracting positions ``i < j``: the other
    operands in order, then the result."""
    rest = terms[:i] + terms[i + 1:j] + terms[j + 1:]
    return rest + [_pair_result(terms[i], terms[j], output.union(*rest))]


def _candidates(terms: List[Term], output: set, dims: Dict[Label, int]):
    """Every pair of ``terms`` with the operand list after contracting it and
    what the step costs.

    The one cost function of both searches: the multiply-adds of the step (the
    product of all extents it touches) plus :data:`WRITE_COST` per element of
    its result.
    """
    for i, j in combinations(range(len(terms)), 2):
        after = _contract_pair(terms, i, j, output)
        volume = _size(set(terms[i]).union(terms[j]), dims)
        yield (i, j), after, volume + WRITE_COST * _size(after[-1], dims)


def _greedy_order(terms: List[Term], output: set, dims: Dict[Label, int]) -> List[Tuple[int, int]]:
    """Repeatedly contract the cheapest pair that shares an index (outer
    products only when unavoidable), ties to the smaller result, then to the
    earlier pair."""
    order = []
    while len(terms) > 1:
        best = None
        for (i, j), after, cost in _candidates(terms, output, dims):
            shares = not set(terms[i]).isdisjoint(terms[j])
            key = (not shares, cost, _size(after[-1], dims))
            if best is None or key < best[0]:
                best = (key, (i, j), after)
        _, pair, terms = best
        order.append(pair)
    return order


def _optimal_order(terms: List[Term], output: set, dims: Dict[Label, int]) -> List[Tuple[int, int]]:
    """The order of the cheapest total cost; among equally cheap orders the
    one whose path, as a sequence of position pairs, is smallest.

    Each step contracts the first pair (in ``combinations`` order) that some
    cheapest tree over the current operands contracts directly.  The rule
    names one order whatever order sets or dicts iterate in, so every process
    plans a signature alike.
    """
    n = len(terms)
    order = []
    evaluations = 0
    while len(terms) > 1:
        nodes, count = _cheapest_tree_nodes(terms, output, dims)
        evaluations += count
        i, j = next(
            pair for pair in combinations(range(len(terms)), 2)
            if (1 << pair[0] | 1 << pair[1]) in nodes
        )
        terms = _contract_pair(terms, i, j, output)
        order.append((i, j))
    REGISTRY.counter("planner.split_evaluations", operands=n).add(evaluations)
    return order


def _cheapest_tree_nodes(
    terms: List[Term], output: set, dims: Dict[Label, int]
) -> Tuple[Set[int], int]:
    """The operand subsets (as bit masks of positions) that occur as a node of
    some cheapest contraction tree, and how many splits were evaluated.

    What contracting a subset leaves — its labels and size — does not depend
    on the order it was contracted in, so ``best[S]`` is the minimum over the
    splits ``S = A | B`` of ``best[A] + best[B]`` plus the cost of the step
    joining them (:func:`_candidates`' cost), ``3**n / 2`` splits in all.
    """
    bit = {label: 1 << k for k, label in enumerate(dims)}
    # An extent of 0 weighs as 1: split costs divide by the extents two parts share.
    extent = [max(dim, 1) for dim in dims.values()]

    def size(mask: int) -> int:
        total = 1
        while mask:
            low = mask & -mask
            total *= extent[low.bit_length() - 1]
            mask ^= low
        return total

    on_term = [sum(bit[label] for label in term) for term in terms]
    seen = repeated = 0
    for mask in on_term:
        repeated |= seen & mask
        seen |= mask
    # As in _pair_result: a label outlives a subset if the output, an operand
    # outside the subset, or no second operand at all carries it.
    kept = sum(bit[label] for label in output) | (seen & ~repeated)
    full = (1 << len(terms)) - 1
    carried = [0] * (full + 1)
    for subset in range(1, full + 1):
        low = subset & -subset
        carried[subset] = carried[subset ^ low] | on_term[low.bit_length() - 1]
    labels = [carried[s] & (kept | carried[full ^ s]) for s in range(full + 1)]
    sizes = [size(mask) for mask in labels]
    shared_size = {0: 1}

    best = [0] * (full + 1)
    cheapest_splits: List[Sequence[int]] = [()] * (full + 1)
    evaluations = 0
    for subset in range(3, full + 1):  # ascending: the parts of a split come first
        low = subset & -subset
        rest = subset ^ low
        if not rest:
            continue
        cheapest = None
        part = rest
        while part:  # every split once: ``a`` holds the lowest position
            part = (part - 1) & rest
            a = low | part
            b = subset ^ a
            shared = labels[a] & labels[b]
            divisor = shared_size.get(shared)
            if divisor is None:
                divisor = shared_size[shared] = size(shared)
            cost = best[a] + best[b] + sizes[a] * sizes[b] // divisor
            evaluations += 1
            if cheapest is None or cost < cheapest:
                cheapest = cost
                ties = [a]
            elif cost == cheapest:
                ties.append(a)
        best[subset] = cheapest + WRITE_COST * sizes[subset]
        cheapest_splits[subset] = ties

    nodes = {full}
    stack = [full]
    while stack:
        subset = stack.pop()
        for a in cheapest_splits[subset]:
            for part in (a, subset ^ a):
                if part not in nodes:
                    nodes.add(part)
                    stack.append(part)
    return nodes, evaluations


def _build_plan(
    spec: EinsumSpec, dims: Dict[Label, int], order: Sequence[Tuple[int, ...]]
) -> ContractionPlan:
    """Steps, cost and peak size of contracting ``spec`` in ``order``."""
    path = tuple(order) or ((0,),)  # a single operand still takes one step
    terms = list(spec.inputs)
    output = set(spec.output)
    max_size = max(_size(term, dims) for term in terms)
    volume = 0
    steps, lowered = [], []
    for pair in path:
        picked = [terms[k] for k in pair]
        terms = [term for k, term in enumerate(terms) if k not in pair]
        if terms:
            result = _pair_result(*picked, output.union(*terms))
        else:
            result = spec.output
        labels = list(dict.fromkeys(label for term in picked for label in term))
        letter = dict(zip(labels, symbols(len(labels))))
        steps.append(
            ",".join("".join(letter[label] for label in term) for term in picked)
            + "->" + "".join(letter[label] for label in result)
        )
        lowered.append(_lower(picked, result, dims))
        volume += _size(labels, dims)
        max_size = max(max_size, _size(result, dims))
        terms.append(result)
    return ContractionPlan(
        inputs=spec.inputs,
        output=spec.output,
        path=path,
        steps=tuple(steps),
        lowered=tuple(lowered),
        total_flops=8.0 * volume,
        max_intermediate_size=max_size,
    )


def _lower(picked: Sequence[Term], result: Term, dims: Dict[Label, int]) -> tuple:
    """One step as transpose, reshape and matrix product.

    A pairwise step is ``(sum_a, perm_a, shape_a, sum_b, perm_b, shape_b,
    shape_ab, perm_ab)``: operand ``a`` transposed by ``perm_a`` groups its
    labels as (batch, kept, contracted) and is reshaped to the 3-D
    ``shape_a``, ``b`` likewise as (batch, contracted, kept); their stacked
    matrix product reshaped to ``shape_ab`` and transposed by ``perm_ab`` is
    the step's result.  Batch labels are the shared ones the result keeps.  A
    label only one operand carries and the result drops goes last in that
    operand's permutation, where the reshape absorbs an extent of 1; the axes
    of any other extent are listed in ``sum_a`` / ``sum_b`` and summed
    (keeping the axis) before the transpose.  The step of a one-operand
    expression is ``(sum_axes, perm)``: sum those axes away, then transpose.
    """
    if len(picked) == 1:
        (a,) = picked
        left = [label for label in a if label in result]
        return (
            tuple(k for k, label in enumerate(a) if label not in result),
            tuple(left.index(label) for label in result),
        )
    a, b = picked
    shared = [label for label in a if label in b]
    batch = [label for label in shared if label in result]
    contracted = [label for label in shared if label not in result]
    lowered = []
    for term, other, first in ((a, b, True), (b, a, False)):
        kept = [label for label in term if label not in other and label in result]
        dropped = [label for label in term if label not in other and label not in result]
        groups = (batch, kept, contracted) if first else (batch, contracted, kept)
        lowered += [
            tuple(term.index(label) for label in dropped if dims[label] != 1),
            tuple(term.index(label) for group in groups + (dropped,) for label in group),
            tuple(_size(group, dims) for group in groups),
        ]
    product = batch + [label for label in a + b if label not in shared and label in result]
    lowered += [
        tuple(dims[label] for label in product),
        tuple(product.index(label) for label in result),
    ]
    return tuple(lowered)
