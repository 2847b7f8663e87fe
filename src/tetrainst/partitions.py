"""Plane partitions, configurations and the solid-partition sign counts.

Plane partitions are finite order ideals in Z^3_{>=0}.  They are enumerated
by one rule: each configuration of size n + 1 is one of the children
(:meth:`Configuration.children`) of exactly one configuration of size n, so
the configurations of a size grow from those of the size below, starting
from the empty one.  The plane partitions of size n are the configurations
of rank vector ``(0, 0, 0, 1)``.  The configurations per rank vector and size
are memoized for the life of the process.  A size is the order of the series
it feeds, so it is checked as one, by :func:`~tetrainst.series.check_order`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .series import check_order


@dataclass(frozen=True)
class OrderIdeal:
    """A finite order ideal in Z^d_{>=0}, stored as a sorted tuple of boxes."""

    boxes: tuple

    def __init__(self, boxes):
        object.__setattr__(self, "boxes", tuple(sorted(tuple(b) for b in boxes)))

    @classmethod
    def _of_sorted(cls, boxes):
        """An ideal over ``boxes``, a tuple of box tuples already sorted, so
        ``__init__``'s sort would copy it for nothing."""
        ideal = object.__new__(cls)
        object.__setattr__(ideal, "boxes", boxes)
        return ideal

    @property
    def size(self):
        return len(self.boxes)


class PlanePartition(OrderIdeal):
    """An order ideal in Z^3_{>=0}, stored as a sorted tuple of box triples."""

    def __iter__(self):
        return iter(self.boxes)

    def __len__(self):
        return len(self.boxes)


class SolidPartition(OrderIdeal):
    """An order ideal in Z^4_{>=0}."""


def _rank(r):
    """A rank as an int: an int but not a bool, or a string of ASCII digits
    (whitespace around them may stay)."""
    if isinstance(r, str) and r.strip().isascii() and r.strip().isdigit():
        return int(r)
    if isinstance(r, int) and not isinstance(r, bool):
        return int(r)
    raise TypeError(f"not a rank: {r!r}")


def rank_vector(rvec):
    """``rvec`` as a tuple of four nonnegative ints; raises ``ValueError`` otherwise.

    A float, a ``Fraction`` or a bool is rejected, not truncated, and so is a
    string such as ``"1_0"`` or ``"+1"``.
    """
    try:
        rv = tuple(map(_rank, rvec))
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

    @classmethod
    def _of_checked(cls, rvec, legs):
        """A configuration over ``rvec``, a tuple that :func:`rank_vector` has
        already returned, and ``legs`` that match it, so ``__post_init__``'s
        checks would repeat for nothing.  Enumeration and the growth of the
        localization levels build configurations this way."""
        config = object.__new__(cls)
        object.__setattr__(config, "rvec", rvec)
        object.__setattr__(config, "legs", legs)
        return config

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

    def children(self):
        """``(child, slot, box)`` for each configuration that is this one plus
        ``box`` in ``slot``, ``box`` being the lexicographically largest box of
        its last nonempty slot: each configuration of size n + 1 is a child of
        exactly one of size n, the one less that box."""
        rvec, legs = self.rvec, self.legs
        grow = []
        for (i, l), pp in reversed(list(self.slots())):
            boxes = pp.boxes
            if not boxes:
                grow.append((i, l, (0, 0, 0)))
                continue
            # any other box after (a, b, c) has a box below it after (a, b, c);
            # below these three, (a, b, c), (a, b, 0) and (a, 0, 0) are there
            a, b, c = boxes[-1]
            if (not a or (a - 1, b, c + 1) in boxes) and (not b or (a, b - 1, c + 1) in boxes):
                grow.append((i, l, (a, b, c + 1)))
            if not a or (a - 1, b + 1, 0) in boxes:
                grow.append((i, l, (a, b + 1, 0)))
            grow.append((i, l, (a + 1, 0, 0)))
            break
        out = []
        for i, l, box in grow:
            leg = legs[i - 1]
            # box comes after every box of the slot, so the boxes stay sorted
            leg = (*leg[: l - 1], PlanePartition._of_sorted((*leg[l - 1].boxes, box)), *leg[l:])
            out.append((Configuration._of_checked(rvec, (*legs[: i - 1], leg, *legs[i:])), (i, l), box))
        return out


def enumerate_configurations(rvec, n):
    """All configurations with the given rank vector and total size ``n``, as
    a tuple built once per ``(rvec, n)`` for the life of the process: the
    children (:meth:`Configuration.children`) of those of size ``n - 1``."""
    return _configurations(rank_vector(rvec), check_order(n))


@lru_cache(maxsize=None)
def _configurations(rvec, n):
    # rvec and n come checked from a public caller; each size grows from the one below
    if n == 0:
        return (Configuration._of_checked(rvec, tuple((PlanePartition(()),) * r for r in rvec)),)
    return tuple(child for config in _configurations(rvec, n - 1) for child, _, _ in config.children())


def enumerate_plane_partitions(n):
    """All plane partitions of size exactly ``n``, sorted by their boxes: the
    one slot of each configuration of rank vector ``(0, 0, 0, 1)``."""
    pps = [config.legs[3][0] for config in _configurations((0, 0, 0, 1), check_order(n))]
    pps.sort(key=lambda p: p.boxes)
    return tuple(pps)


def embed_to_solid(pp, i):
    """See a plane partition as a solid partition with the i-th coordinate 0."""
    if not 1 <= i <= 4:
        raise ValueError("leg index must be 1..4")
    return SolidPartition(box[: i - 1] + (0,) + box[i - 1 :] for box in pp)


def sign_rho(sp):
    """Nekrasov-Piazzalunga's rho: the parity of boxes ``(a, a, a, d)`` with
    ``a < d``, which is :func:`sign_rho_tilde` at leg 4."""
    return sign_rho_tilde(sp, 4)


def sign_rho_tilde(sp, i):
    """Parity of boxes whose other three coordinates, ``box[:i-1] + box[i:]``
    as :func:`embed_to_solid` inserts the i-th, are equal and strictly less
    than the i-th; zero on every embedded plane partition."""
    if not 1 <= i <= 4:
        raise ValueError("leg index must be 1..4")
    count = 0
    for box in sp.boxes:
        a, b, c = box[: i - 1] + box[i:]
        count += a == b == c < box[i - 1]
    return count % 2


def configuration_sign(config):
    """Total sign parity of a configuration: sum of per-slot counts over the
    embedded solid partitions."""
    total = 0
    for (i, _), pp in config.slots():
        total += sign_rho(embed_to_solid(pp, i))
    return total % 2
