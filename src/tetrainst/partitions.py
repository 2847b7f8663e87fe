"""Plane partitions, configurations and the solid-partition sign counts.

Plane partitions are finite order ideals in Z^3_{>=0}.  They are enumerated
through their height-function description: a table ``h[a][b]`` of positive
column heights, weakly decreasing along rows and columns, with total size n.
Enumeration of plane partitions per size, and of configurations per rank
vector and size, is memoized for the life of the process.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, product


@dataclass(frozen=True)
class OrderIdeal:
    """A finite order ideal in Z^d_{>=0}, stored as a sorted tuple of boxes."""

    boxes: tuple

    def __init__(self, boxes):
        object.__setattr__(self, "boxes", tuple(sorted(tuple(b) for b in boxes)))

    @property
    def size(self):
        return len(self.boxes)

    def is_valid(self):
        cells = set(self.boxes)
        for box in cells:
            if any(c < 0 for c in box):
                return False
            for k in range(len(box)):
                if box[k] > 0:
                    below = list(box)
                    below[k] -= 1
                    if tuple(below) not in cells:
                        return False
        return True


class PlanePartition(OrderIdeal):
    """An order ideal in Z^3_{>=0}, stored as a sorted tuple of box triples."""

    def __iter__(self):
        return iter(self.boxes)

    def __len__(self):
        return len(self.boxes)


class SolidPartition(OrderIdeal):
    """An order ideal in Z^4_{>=0}."""


def rank_vector(rvec):
    """``rvec`` as a tuple of four nonnegative ints; raises ``ValueError`` otherwise.

    An entry is an int or a decimal string; a float or a ``Fraction`` is
    rejected, not truncated.
    """
    try:
        rv = tuple(int(r) if isinstance(r, str) else operator.index(r) for r in rvec)
    except TypeError:
        rv = ()
    if len(rv) != 4 or min(rv) < 0:
        raise ValueError(f"rank vector must be 4 nonnegative integers, got {rvec!r}")
    return rv


@dataclass(frozen=True)
class Configuration:
    """A tuple of tuples of plane partitions labeling a torus-fixed point."""

    rvec: tuple
    legs: tuple  # legs[i-1] is an rvec[i-1]-tuple of PlanePartition

    def __post_init__(self):
        rvec = rank_vector(self.rvec)
        if len(self.legs) != 4 or any(len(t) != r for t, r in zip(self.legs, rvec)):
            raise ValueError("leg tuples must match the rank vector")
        object.__setattr__(self, "rvec", rvec)

    @property
    def size(self):
        return sum(p.size for leg in self.legs for p in leg)

    def slots(self):
        """Pairs ``((i, l), partition)`` in lexicographic slot order.

        This order numbers the framing weights: the k-th slot gets ``w_k``.
        """
        for i, leg in enumerate(self.legs, start=1):
            for l, p in enumerate(leg, start=1):
                yield (i, l), p


def _partitions_leq(bound, total):
    """Weakly decreasing positive tuples summing to ``total``, componentwise
    bounded by ``bound`` (``None`` = unbounded row length/heights)."""
    if total == 0:
        yield ()
        return
    first_cap = min(total, total if bound is None else (bound[0] if bound else 0))
    for h in range(first_cap, 0, -1):
        if bound is None:
            rest_bound = (h,) * (total - h)
        else:
            rest_bound = tuple(min(h, b) for b in bound[1:])
        for rest in _partitions_leq(rest_bound, total - h):
            yield (h,) + rest


def _tables(bound, total):
    """Height tables (tuples of rows) with row 1 bounded by ``bound``, each
    row dominated by the previous one, summing to ``total``."""
    if total == 0:
        yield ()
        return
    for m in range(total, 0, -1):
        for row in _partitions_leq(bound, m):
            for rest in _tables(row, total - m):
                yield (row,) + rest


@lru_cache(maxsize=None)
def enumerate_plane_partitions(n):
    """All plane partitions of size exactly ``n``, canonically ordered."""
    if n < 0:
        raise ValueError("size must be nonnegative")
    result = []
    for table in _tables(None, n):
        boxes = [
            (a, b, c)
            for a, row in enumerate(table)
            for b, h in enumerate(row)
            for c in range(h)
        ]
        result.append(PlanePartition(boxes))
    result.sort(key=lambda p: p.boxes)
    return tuple(result)


def _compositions(n, parts):
    if parts == 0:
        if n == 0:
            yield ()
        return
    for k in range(n + 1):
        for rest in _compositions(n - k, parts - 1):
            yield (k,) + rest


def enumerate_configurations(rvec, n):
    """All configurations with the given rank vector and total size ``n``, as
    a tuple built once per ``(rvec, n)`` for the life of the process."""
    return _configurations(rank_vector(rvec), n)


@lru_cache(maxsize=None)
def _configurations(rvec, n):
    configs = []
    for comp in _compositions(n, sum(rvec)):
        for choice in product(*(enumerate_plane_partitions(k) for k in comp)):
            slots = iter(choice)
            configs.append(Configuration(rvec, tuple(tuple(islice(slots, ri)) for ri in rvec)))
    return tuple(configs)


def embed_to_solid(pp, i):
    """See a plane partition as a solid partition with the i-th coordinate 0."""
    if not 1 <= i <= 4:
        raise ValueError("leg index must be 1..4")
    boxes = []
    for box in pp:
        quad = list(box)
        quad.insert(i - 1, 0)
        boxes.append(tuple(quad))
    return SolidPartition(boxes)


def sign_rho(sp):
    """Parity of boxes of shape ``(a,a,a,d)`` with ``a < d``."""
    return sum(1 for (a, b, c, d) in sp.boxes if a == b == c < d) % 2


def sign_rho_tilde(sp, i):
    """Parity of boxes whose three coordinates other than the i-th are equal
    and strictly less than the i-th; zero on every embedded plane partition."""
    if not 1 <= i <= 4:
        raise ValueError("leg index must be 1..4")
    others = [k for k in range(4) if k != i - 1]
    count = 0
    for box in sp.boxes:
        vals = [box[k] for k in others]
        if vals[0] == vals[1] == vals[2] < box[i - 1]:
            count += 1
    return count % 2


def configuration_sign(config):
    """Total sign parity of a configuration: sum of per-slot counts over the
    embedded solid partitions."""
    total = 0
    for (i, _), pp in config.slots():
        total += sign_rho(embed_to_solid(pp, i))
    return total % 2
