"""Linial-style color reduction to an ``O(d²)`` palette in ``O(log* X)`` rounds.

The paper starts its main algorithm by "computing an O(Δ̄²)-edge
coloring in O(log* n) rounds [Lin87]" (Section 4.3) and repeatedly
appeals to the fact that, given an ``X``-coloring, list coloring
constant-degree graphs costs ``O(log* X)``.  This module provides that
machinery as a *vertex* procedure on an arbitrary conflict graph — the
callers run it on the line graph to color edges.

One reduction round (the classic construction): let the current proper
coloring use palette ``{0, ..., m-1}`` and let ``d`` be the maximum
degree.  Pick a prime ``q`` and write each color as a polynomial of
degree ``< k`` over ``GF(q)`` (its base-``q`` digits), where
``k = ceil(log_q m)``.  Two distinct polynomials agree on at most
``k - 1`` field elements, so if ``q > d * (k - 1)`` every node can pick
a point ``x`` where its polynomial disagrees with all neighbors'
polynomials; the new color ``(x, f(x))`` lives in a palette of size
``q²``.  Iterating shrinks ``m`` after ``O(log* m)`` rounds to an
``O(d²)`` fixpoint, where the smallest valid ``q`` no longer shrinks the
palette.  That is at most ``next_prime(2d + 1)²``, since above it a
prime ``q > 2d`` with three digits still shrinks the palette; e.g.
``191²`` for ``d = 94``.

Representation: :func:`linial_reduce` maps the items to dense ids
``0..n-1`` in adjacency order once per call and builds one CSR of the
conflict graph as two int32 pair columns ``(src, nbr)``, listed item by
item in adjacency order and, within an item, in its neighbor order.
The input properness check and every round read that one CSR.  A round
works on whole arrays: the ``(k, n)`` base-``q`` digits of all colors,
then one pass per point ``x = 0, 1, …`` that evaluates every polynomial
at ``x`` and settles every item still free there.  Only one point's
values are held at a time, never an ``n × q`` evaluation table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Hashable, Mapping, Sequence

import numpy as np

from repro.errors import AlgorithmInvariantError, InvalidInstanceError
from repro.utils.gf import digits_base_q
from repro.utils.logstar import ceil_log
from repro.utils.primes import next_prime


@dataclass(frozen=True)
class LinialStepParameters:
    """The ``(q, k)`` pair used by one reduction round.

    ``q`` is the field size (prime), ``k`` the number of base-``q``
    digits of the current palette, and ``q²`` the next palette size.
    """

    q: int
    k: int

    @property
    def new_palette_size(self) -> int:
        return self.q * self.q


def linial_step_parameters(palette_size: int, degree: int) -> LinialStepParameters:
    """Return the smallest valid ``(q, k)`` for one reduction round.

    Searches primes upward until ``q > degree * (k - 1)`` with
    ``k = ceil(log_q palette_size)`` — the collision bound that makes
    the step sound.
    """
    if palette_size < 2:
        raise InvalidInstanceError(
            f"palette size must be >= 2, got {palette_size}"
        )
    if degree < 0:
        raise InvalidInstanceError(f"degree must be >= 0, got {degree}")
    # A prime below both ``palette_size`` and ``degree + 1`` fails the
    # bound (it needs k >= 2 digits, so q > degree is required), so the
    # smallest valid q is found by searching upward from there.
    q = max(2, min(palette_size, degree + 1))
    while True:
        q = next_prime(q)
        k = max(1, ceil_log(q, palette_size))
        if q > degree * max(0, k - 1):
            return LinialStepParameters(q=q, k=k)
        q += 1


@dataclass(frozen=True)
class LinialResult:
    """Outcome of the iterated reduction.

    Attributes
    ----------
    colors:
        Item -> color in ``{0, ..., palette_size - 1}``.
    palette_size:
        Size of the final palette (``O(d²)``).
    rounds:
        Number of synchronous reduction rounds performed.
    step_parameters:
        The ``(q, k)`` used by each round, for analysis/benchmarks.
    """

    colors: dict[Hashable, int]
    palette_size: int
    rounds: int
    step_parameters: tuple[LinialStepParameters, ...]


@dataclass(frozen=True)
class _ConflictCSR:
    """The conflict graph on dense ids, built once per call.

    ``items[i]`` is the item with dense id ``i`` (adjacency order).
    ``pairs`` is an int32 ``(2, P)`` array whose rows are the ``src``
    and ``nbr`` columns: pair ``p`` says item ``src[p]`` lists
    ``nbr[p]`` as a neighbor.  Pairs run item by item in adjacency
    order, each item's in its neighbor-list order, so the first flagged
    pair is the first ``(item, neighbor)`` a per-item loop over the
    adjacency would meet.
    """

    items: list[Hashable]
    pairs: np.ndarray

    @classmethod
    def build(cls, adjacency: Mapping[Hashable, Sequence[Hashable]]) -> "_ConflictCSR":
        items = list(adjacency)
        index = {item: i for i, item in enumerate(items)}
        degrees = np.fromiter(
            map(len, adjacency.values()), dtype=np.int64, count=len(items)
        )
        pairs = np.empty((2, int(degrees.sum())), dtype=np.int32)
        pairs[0] = np.repeat(np.arange(len(items), dtype=np.int32), degrees)
        pairs[1] = np.fromiter(
            map(index.__getitem__, chain.from_iterable(adjacency.values())),
            dtype=np.int32,
            count=pairs.shape[1],
        )
        return cls(items=items, pairs=pairs)

    def clashes(self, colors: np.ndarray) -> np.ndarray:
        """Indices of the pairs whose two items share a color.

        Colors are compared by their rank among the distinct colors,
        a narrow int, so the two gathered pair columns stay small.
        """
        ranks = np.unique(colors, return_inverse=True)[1]
        ranks = ranks.astype(np.min_scalar_type(colors.size))
        src, nbr = self.pairs
        return np.flatnonzero(ranks[src] == ranks[nbr])

    def improper(self, pair: int, color: int) -> InvalidInstanceError:
        src, nbr = self.pairs[:, pair]
        return InvalidInstanceError(
            f"items {self.items[src]!r} and {self.items[nbr]!r} share color "
            f"{color}; the input coloring must be proper"
        )


def _color_array(values: Sequence[int]) -> np.ndarray:
    """Colors as int64, or as Python ints when some exceed int64.

    Callers may pass any ints (IDs reach ``n⁴``), so a color that does
    not fit int64 keeps an object array: its digits are then taken with
    Python-int arithmetic, which neither overflows nor wraps.
    """
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _digits(colors: np.ndarray, q: int, k: int) -> np.ndarray:
    """Base-``q`` digits of every color as a ``(k, n)`` int64 array.

    Row ``j`` holds digit ``j`` (least significant first), exactly as
    :func:`repro.utils.gf.digits_base_q`; a color that is negative or
    needs more than ``k`` digits raises that function's error.
    """
    digits = np.empty((k, colors.size), dtype=np.int64)
    remaining = colors
    for j in range(k):
        digits[j] = remaining % q
        remaining = remaining // q
    if remaining.any():
        first = np.flatnonzero(remaining)[0]
        digits_base_q(int(colors[first]), q, k)  # raises
    return digits


def _round(
    csr: _ConflictCSR, colors: np.ndarray, params: LinialStepParameters
) -> np.ndarray:
    """One synchronous reduction round over the whole conflict graph.

    Every item's polynomial (its color's digits) is evaluated at one
    point ``x`` at a time, for ``x = 0, 1, …, q-1``, as a dot product
    with the powers ``x^j mod q``, reduced mod ``q``.  A pending item
    that agrees with some neighbor at ``x`` stays pending; every other
    pending item settles on ``x``, its first free point, as in the
    textbook per-item loop.  Pairs whose item has settled are dropped, so
    later points touch only the items still looking.  The new color of
    an item settled on ``x`` is ``x·q + f(x)``.

    An item sharing its color with a neighbor agrees with it everywhere
    and never settles, so every improper pair surfaces among the items
    left pending after ``x = q-1``.  The first of them in adjacency
    order is the item a per-item loop would fail on: it raises
    :class:`InvalidInstanceError` naming its first same-colored neighbor
    or, if it has none, :class:`AlgorithmInvariantError`.
    """
    q, k = params.q, params.k
    digits = _digits(colors, q, k)
    # powers[j, x] = x^j mod q; a dot product with digits stays < k·q².
    powers = np.ones((k, q), dtype=np.int64)
    xs = np.arange(q, dtype=np.int64)
    for j in range(1, k):
        powers[j] = powers[j - 1] * xs % q
    # f(x) < q: gathering it onto the pairs in the narrowest dtype that
    # holds q - 1 keeps the largest per-point temporary small.
    narrow = np.min_scalar_type(q - 1)
    n = colors.size
    point = np.empty(n, dtype=np.int64)
    pending = np.ones(n, dtype=bool)
    pairs = csr.pairs
    for x in range(q):
        value = powers[:, x] @ digits
        value %= q
        ends = value.astype(narrow)[pairs]
        # Every remaining pair's src is pending, so blocked ⊆ pending.
        blocked = np.zeros(n, dtype=bool)
        blocked[pairs[0, ends[0] == ends[1]]] = True
        point[pending ^ blocked] = x
        pending = blocked
        # A blocked item keeps the pair that blocked it, so no pairs
        # left means no item left pending.
        pairs = pairs[:, blocked[pairs[0]]]
        if not pairs.shape[1]:
            value = (powers[:, point] * digits).sum(axis=0) % q
            return point * q + value

    first = int(np.flatnonzero(pending)[0])
    own = np.flatnonzero(csr.pairs[0] == first)
    clashes = own[colors[csr.pairs[1, own]] == colors[first]]
    if clashes.size:
        raise csr.improper(int(clashes[0]), int(colors[first]))
    raise AlgorithmInvariantError(
        f"no evaluation point left for {csr.items[first]!r}: q={q} too small "
        f"for degree {own.size} and k={k}"
    )


def _one_round(
    adjacency: Mapping[Hashable, list[Hashable]],
    colors: Mapping[Hashable, int],
    params: LinialStepParameters,
) -> dict[Hashable, int]:
    """Execute one synchronous reduction round (all nodes in parallel).

    Builds the conflict-graph CSR for this one call and runs
    :func:`_round` on it; :func:`linial_reduce` builds the CSR once and
    reuses it across rounds.  Tests cross-check the chosen points
    against :meth:`FieldPolynomial.agreement_points`.
    """
    csr = _ConflictCSR.build(adjacency)
    new_colors = _round(csr, _color_array([colors[item] for item in csr.items]), params)
    return dict(zip(csr.items, new_colors.tolist()))


def linial_reduce(
    adjacency: Mapping[Hashable, list[Hashable]],
    initial_colors: Mapping[Hashable, int],
    *,
    stop_at: int | None = None,
) -> LinialResult:
    """Iterate the reduction until the ``O(d²)`` fixpoint.

    Parameters
    ----------
    adjacency:
        Symmetric adjacency of the conflict graph (for edge coloring:
        the line graph).
    initial_colors:
        Proper coloring with non-negative integer colors — typically
        the unique IDs, giving the ``O(log* n)`` round bound.
    stop_at:
        Optional early-exit palette size: stop as soon as the palette
        is at most this value.

    Returns
    -------
    LinialResult
        Final proper coloring, its palette size and the round count.
    """
    if not adjacency:
        return LinialResult(colors={}, palette_size=0, rounds=0, step_parameters=())
    missing = [item for item in adjacency if item not in initial_colors]
    if missing:
        raise InvalidInstanceError(
            f"items without initial colors: {missing[:3]!r}"
        )
    colors = {item: int(initial_colors[item]) for item in adjacency}
    if any(c < 0 for c in colors.values()):
        raise InvalidInstanceError("initial colors must be non-negative")
    degree = max(map(len, adjacency.values()))
    if degree == 0:
        # No conflicts at all: a single color suffices, zero rounds.
        return LinialResult(
            colors={item: 0 for item in adjacency},
            palette_size=1,
            rounds=0,
            step_parameters=(),
        )
    csr = _ConflictCSR.build(adjacency)
    color_array = _color_array(list(colors.values()))
    clashes = csr.clashes(color_array)
    if clashes.size:
        first = int(clashes[0])
        raise csr.improper(first, colors[csr.items[csr.pairs[0, first]]])

    palette_size = max(colors.values()) + 1
    steps: list[LinialStepParameters] = []
    while True:
        if stop_at is not None and palette_size <= stop_at:
            break
        if palette_size < 2:
            break
        params = linial_step_parameters(palette_size, degree)
        if params.new_palette_size >= palette_size:
            break  # fixpoint reached; further rounds would not shrink
        color_array = _round(csr, color_array, params)
        palette_size = params.new_palette_size
        steps.append(params)

    if steps:
        colors = dict(zip(csr.items, color_array.tolist()))
    return LinialResult(
        colors=colors,
        palette_size=palette_size,
        rounds=len(steps),
        step_parameters=tuple(steps),
    )


def linial_fixpoint_palette(degree: int) -> int:
    """Return ``next_prime(degree + 1)²``, the ``k = 2`` palette size.

    This is the smallest ``q²`` a round can produce at this degree
    (a round needs ``k >= 2``, hence ``q > degree``).
    :func:`linial_reduce` stops earlier when that ``q`` would need more
    digits, so its final palette is only bounded by
    ``linial_fixpoint_palette(2 * degree)`` (``191²`` rather than
    ``97²`` on the ``d = 94`` line graph of ``random_regular(48, 192)``).
    """
    if degree < 0:
        raise InvalidInstanceError(f"degree must be >= 0, got {degree}")
    if degree == 0:
        return 1
    q = next_prime(degree + 1)  # smallest prime strictly greater than degree
    return q * q
