"""Exact arithmetic for torus weights, virtual characters and localization measures.

Every value is an exact rational; no floating point is used anywhere.  Values
come out as ``fractions.Fraction``, but the measures multiply each weight's
value as an unreduced ``(numerator, denominator)`` pair of ints and reduce
once per character; :func:`theta_sums` reduces each character's bracket
once, then once per coefficient of each group's sum, not of each character.
That pair core, ``_product_pair``, is the one place a point is found
degenerate; :func:`bracket_ratio` hands its unreduced pair to a caller that
only asks whether two values are equal, which it decides by
cross-multiplying, with no gcd.
A weight is a Laurent monomial in the square roots of the equivariant
parameters ``t1..t4`` (subject to ``t1*t2*t3*t4 == 1``) and of the framing
parameters ``w_il``, that is a point of the torus' character lattice.
Exponents are stored *doubled*, so the entry ``2*mu`` represents ``t**mu`` and
half-integer powers remain in integer arithmetic.  :func:`monomial` packs the
lattice vector of a weight into one int (t4 eliminated, one signed field per
remaining variable), so the product of two weights is the sum of their ints,
the inverse is the negation, the trivial weight is ``0`` and an absent w-slot
adds nothing.  Only this module knows the format; :func:`exponents` decodes it.
A weight is decoded once per process: the measures read the square root of
each weight from one cached row of its nonzero fields (:func:`_root`), and
weigh it once per point, keeping the value in the point's ``values``.

A :class:`Character` is a finite Z-linear combination of weights (a virtual
torus representation).  The three localization measures act on characters:

* ``bracket_eval``  -- the K-theoretic measure ``[x] = x^(1/2) - x^(-1/2)``,
* ``euler_eval``    -- its cohomological linearization ``mu . s``,
* ``theta_eval``    -- the elliptic refinement built from the Jacobi theta
  function, returned as a truncated series in the elliptic parameter; it is
  the one-character case of ``theta_sums``, which sums the measures of many
  characters per group over one graded denominator for the whole call.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm, prod

from .series import QSeries, check_order, exp_numerators, rational


class TrivialWeightError(ValueError):
    """A character that must be movable has a nonzero fixed part: a measure's
    argument, or a vertex term."""


class PoleAtPointError(ArithmeticError):
    """A factor of a measure vanishes at the point, in the numerator or the
    denominator: the point is degenerate, to be resampled, never scored."""


class FractionalPowerError(ValueError):
    """An operation needs an integer power but got a genuine half-integer."""


FIELD_BITS = 32
_HALF = 1 << (FIELD_BITS - 1)
_MASK = (1 << FIELD_BITS) - 1


def monomial(texp, wexp=()):
    """The weight ``prod t_i^(texp_i/2) * prod w_s^(wexp_s/2)``, packed in an int.

    ``texp`` (four entries) and ``wexp`` hold doubled exponents.  The relation
    ``t1*t2*t3*t4 == 1`` is applied by subtracting ``texp[3]``; the fields
    ``t1, t2, t3, w_0, w_1, ...`` are then packed as signed ``FIELD_BITS``-bit
    fields, ``m = sum e_k * 2**(FIELD_BITS*k)``.  The packing is linear, so
    equal weights are equal ints and weights multiply by adding.
    """
    if len(texp) != 4:
        raise ValueError(f"texp needs 4 entries, got {len(texp)}")
    c = texp[3]
    m = 0
    for e in reversed((texp[0] - c, texp[1] - c, texp[2] - c, *wexp)):
        if not -_HALF <= e < _HALF:
            raise OverflowError(f"doubled exponent {e} does not fit a {FIELD_BITS}-bit field")
        m = (m << FIELD_BITS) + e
    return m


def exponents(m):
    """The doubled exponents packed in ``m``: t1, t2, t3 (t4 is eliminated),
    then the w-slots, without trailing zeros."""
    out = []
    while m:
        e = ((m + _HALF) & _MASK) - _HALF
        out.append(e)
        m = (m - e) >> FIELD_BITS
    return tuple(out)


def _weight_str(fields):
    """The weight with doubled exponents ``fields`` (as :func:`exponents`
    gives them) as a product of powers, e.g. ``t1^(1/2)*w[0]^(-1)``."""
    parts = [
        f"t{k + 1}^({Fraction(e, 2)})" if k < 3 else f"w[{k - 3}]^({Fraction(e, 2)})"
        for k, e in enumerate(fields)
        if e
    ]
    return "*".join(parts) or "1"


def check_leg(i):
    """``i`` if it numbers a leg, 1..4; any other index raises ``ValueError``."""
    if not 1 <= i <= 4:
        raise ValueError("leg index must be 1..4")
    return i


def t_monomial(i, power=1):
    """The weight ``t_i**power``."""
    check_leg(i)
    texp = [0, 0, 0, 0]
    texp[i - 1] = 2 * power
    return monomial(texp)


def w_monomial(slot):
    """The framing weight ``w_slot``: the doubled exponent 2 in the field after
    t1, t2, t3 and the slots before it, since :func:`monomial` packs linearly."""
    if slot < 0:
        raise ValueError(f"a w-slot is numbered from 0, got {slot}")
    return 2 << (FIELD_BITS * (3 + slot))


class Character:
    """A finite integer-multiplicity multiset of weights.

    Stored as ``{packed weight: nonzero multiplicity}``; sums cancel exactly.
    A character is a hashable value: nothing changes it in place, so it may
    be shared, and it compares and hashes by its terms, whatever their order.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {m: mult for m, mult in terms.items() if mult} if terms else {}

    @classmethod
    def sum(cls, chars):
        """The sum of the characters in ``chars``, collected into one dict."""
        terms = {}
        for V in chars:
            for m, mult in V.terms.items():
                terms[m] = terms.get(m, 0) + mult
        return cls(terms)

    @classmethod
    def _of_nonzero(cls, terms):
        """A character over ``terms``, whose multiplicities are all nonzero,
        so ``__init__``'s filter would copy the dict for nothing."""
        V = cls.__new__(cls)
        V.terms = terms
        return V

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def of(cls, m, mult=1):
        return cls({m: mult})

    def rank(self):
        return sum(self.terms.values())

    def __add__(self, other):
        return Character.sum((self, other))

    def __sub__(self, other):
        return Character.sum((self, -other))

    def __neg__(self):
        return Character._of_nonzero({m: -mult for m, mult in self.terms.items()})

    def __mul__(self, other):
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1 + m2
                terms[m] = terms.get(m, 0) + c1 * c2
        return Character(terms)

    def dual(self):
        return Character._of_nonzero({-m: mult for m, mult in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, Character) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "Character(0)"
        # in the order of the exponent vectors, padded to one length
        fields = [exponents(m) for m in self.terms]
        width = max(map(len, fields))
        items = sorted(zip((f + (0,) * (width - len(f)) for f in fields), self.terms.items()))
        return "Character(" + " + ".join(f"{c}*{_weight_str(f)}" for f, (_, c) in items) + ")"


class EvalPoint:
    """Exact rational values for the square roots of all base variables.

    ``sqrt_t = (a1, a2, a3, a4)`` with ``a1*a2*a3*a4 == 1`` (the square-root
    form of the Calabi-Yau relation) and one positive rational per w-slot.
    ``bases`` keeps the integer ``(numerator, denominator)`` pair of each
    square-root base that a weight's fields refer to: t1, t2, t3, then each
    w-slot; all are checked nonzero at once, before ``a4`` divides by them.
    ``values`` holds each weight's bracket at this point as an unreduced int
    pair, filled lazily, so a weight decoded once per process is weighed once
    per point.  A derived point is built afresh, with its own bases and an
    empty ``values``.
    """

    def __init__(self, sqrt_t3, sqrt_w=()):
        a1, a2, a3 = map(rational, sqrt_t3)
        self.sqrt_w = tuple(map(rational, sqrt_w))
        roots = (a1, a2, a3, *self.sqrt_w)
        if 0 in roots:
            raise ValueError("square-root bases must be nonzero")
        self.sqrt_t = (a1, a2, a3, 1 / (a1 * a2 * a3))
        self.bases = tuple((b.numerator, b.denominator) for b in roots)
        self.values = {}

    def with_sqrt_w(self, sqrt_w):
        return EvalPoint(self.sqrt_t[:3], sqrt_w)

    def __repr__(self):
        return f"EvalPoint(sqrt_t={self.sqrt_t}, sqrt_w={self.sqrt_w})"


class CohPoint:
    """Exact rational Chern roots ``s1..s4`` with ``s1+s2+s3+s4 == 0``.

    ``denominator`` is the least common denominator ``D`` of ``s1, s2, s3``
    and the framing roots ``v``, and ``bases`` holds those roots times ``D``
    as ints, in the order of a weight's fields.  ``values`` holds the
    per-weight Euler classes at this point as unreduced int pairs, filled
    lazily, so a weight decoded once per process is weighed once per point;
    a derived point is built afresh, with its own ``D``, bases and an empty
    ``values``.
    """

    def __init__(self, s3, v=()):
        s1, s2, s3_ = map(rational, s3)
        self.s = (s1, s2, s3_, -(s1 + s2 + s3_))
        self.v = tuple(map(rational, v))
        roots = (s1, s2, s3_, *self.v)
        D = lcm(*(s.denominator for s in roots))
        self.denominator = D
        self.bases = tuple(s.numerator * (D // s.denominator) for s in roots)
        self.values = {}

    def __repr__(self):
        return f"CohPoint(s={self.s}, v={self.v})"


def _beyond_the_point(m):
    """The error for a weight with more fields than the point has bases: it
    belongs to another rank vector, and truncating it would give a wrong
    value."""
    return ValueError(f"weight {_weight_str(exponents(m))} has more slots than the point")


@lru_cache(maxsize=None)
def _root(m):
    """The square root of the integer weight ``m``, decoded once per process
    into the flat tuple ``(nfields, k, h, k', h', ...)``: the number of
    fields of ``m``, then (field ``k``, half its doubled exponent) for each
    nonzero field.  A genuine half-integer power has no exact root; as
    ``lru_cache`` keeps no failure, it raises on every call.
    """
    fields = exponents(m)
    row = [len(fields)]
    for k, e in enumerate(fields):
        if e:
            if e & 1:
                raise FractionalPowerError(f"{_weight_str(fields)} is not an integer weight")
            row += (k, e >> 1)
    return tuple(row)


def _root_at(m, p):
    """``m``'s cached root, checked against the bases of ``p``: a root
    decoded at one point may be read at a point with fewer w-slots."""
    row = _root(m)
    if row[0] > len(p.bases):
        raise _beyond_the_point(m)
    return row


def _root_pair(row, bases):
    """The value ``n/d`` of the root ``row`` over the point's bases, as the
    unreduced pair ``(n, d)`` of ints."""
    n = d = 1
    for i in range(1, len(row), 2):
        a, b = bases[row[i]]
        h = row[i + 1]
        if h > 0:
            n *= a ** h
            d *= b ** h
        else:
            n *= b ** -h
            d *= a ** -h
    return n, d


def eval_monomial(m, p):
    """Value of ``m`` at ``p``; half-integer powers evaluate exactly on the
    square-root bases.  Every field of ``2m`` is even, so the root of ``2m``
    is ``m`` over the square-root bases."""
    row = _root(2 * m)
    if row[0] > len(p.bases):
        raise _beyond_the_point(m)
    return Fraction(*_root_pair(row, p.bases))


def _bracket_pair(m, p):
    """``[m] = m^(1/2) - m^(-1/2)`` at ``p``: with ``m^(1/2) = n/d`` it is the
    unreduced pair ``(n*n - d*d, n*d)``."""
    n, d = _root_pair(_root_at(m, p), p.bases)
    return n * n - d * d, n * d


def _product_pair(V, p, weigh, what):
    """``prod weigh(m, p) ** mult`` over the terms of a movable character, as
    an unreduced pair ``(num, den)`` of nonzero ints; the one place a measure
    is evaluated and a point found degenerate.

    ``weigh`` gives a weight's value as an unreduced int pair ``(a, b)`` with
    ``b != 0``.  Each weight is weighed once per point and its pair kept in
    ``p.values``; the pairs are multiplied as ints, swapped for a negative
    multiplicity, and never reduced here.  A nonzero fixed part is reported
    before any weight is weighed, and every factor is weighed before the
    result is decided, so it does not depend on the order of the terms: a
    vanishing factor, up or down, makes the point degenerate
    (:class:`PoleAtPointError`).
    """
    if 0 in V.terms:
        raise TrivialWeightError("character has a nonzero fixed part")
    values = p.values
    num = den = 1
    for m, mult in V.terms.items():
        x = values.get(m)
        if x is None:
            x = values[m] = weigh(m, p)
        a, b = x
        if mult == 1:
            num *= a
            den *= b
        elif mult == -1:
            num *= b
            den *= a
        elif mult > 0:
            num *= a ** mult
            den *= b ** mult
        else:
            num *= b ** -mult
            den *= a ** -mult
    if not (num and den):
        m = next(m for m in V.terms if not values[m][0])
        raise PoleAtPointError(f"{what} factor {_weight_str(exponents(m))} vanishes")
    return num, den


def bracket_ratio(V, p):
    """The bracket of a movable character as the unreduced pair ``(num, den)``
    of nonzero ints, for a caller that only compares values: ``a/b == c/d``
    is ``a*d == c*b``, with no gcd.  ``Fraction(num, den)`` is
    :func:`bracket_eval`, and the errors are the same.
    """
    return _product_pair(V, p, _bracket_pair, "bracket")


def bracket_eval(V, p):
    """Multiplicative extension of the bracket to a movable character.

    Raises :class:`TrivialWeightError` if ``V`` has a nonzero fixed part and
    :class:`PoleAtPointError` if any factor vanishes.
    """
    return Fraction(*_product_pair(V, p, _bracket_pair, "bracket"))


def _euler_pair(m, p):
    """The equivariant first Chern class ``mu . s`` of an integer weight, as
    the unreduced pair ``(sum D*s_k * mu_k, D)``."""
    row = _root_at(m, p)
    bases = p.bases
    c = 0
    for i in range(1, len(row), 2):
        c += bases[row[i]] * row[i + 1]
    return c, p.denominator


def euler_eval(V, p):
    """Multiplicative extension of the Euler class to a movable character."""
    return Fraction(*_product_pair(V, p, _euler_pair, "Euler-class"))


def theta_eval(V, p, order):
    """Elliptic measure of a movable character, truncated at ``order`` in p:
    the one group of :func:`theta_sums`, with the same errors."""
    return theta_sums([[V]], p, order)[0]


def theta_sums(groups, p, order):
    """The elliptic measures of the movable characters of each group, summed
    per group and truncated at ``order`` in p: one ``QSeries`` per group.

    Per weight, ``theta(y) = [y] * Exp(-(y + 1/y) p/(1-p))``, so the measure
    of ``V`` is its bracket times ``exp(-sum_M p^M sum_{k|M} S_k/k)``, where
    ``S_k = sum mult * (y^k + y^-k)`` is ``V + V^dual`` at its k-th Adams
    power.  Everything after the brackets is in ints over one graded
    denominator for the whole call.  Over the point's bases ``a_j/b_j``, with
    ``E_j`` the largest ``|e_j|`` of the fields of every weight of every
    group, ``D = prod_j (a_j b_j)^E_j``: a weight of value ``n/d`` has
    ``s = D / (n d)`` an int and ``y^k + y^-k = ((n^2 s)^k + (d^2 s)^k) / D^k``.
    These Adams numerators are computed once per distinct weight, from the
    root pair of the weight's cached root (:func:`_root`) that also gives its
    bracket's entry in ``p.values``.  A character's ``S_k`` is then
    ``N_k / D^k`` with ints ``N_k``, its log's numerators over ``M D^M`` are
    the ints ``-sum_{k|M} (M/k) N_k D^(M-k)``, and :func:`exp_numerators`
    turns them into the ``G_n`` of its coefficient ``n``,
    ``bracket * G_n / (n! D^n)``.  A group sums ``bracket * G_n`` over its
    characters as ints, times ``L``, the lcm of their reduced brackets'
    denominators, and divides by ``L n! D^n`` once per coefficient.
    Each character's per-weight twelfth powers of p are accumulated exactly;
    they must resolve to an integer power of p (automatic at rank 0).
    Errors come in this order, each over the characters in group order: a
    nonzero fixed part (:class:`TrivialWeightError`), twelfths that are not
    an integer power (:class:`FractionalPowerError`) or a negative one (a
    ``ValueError`` that gives the rank), a weight with no root at the point,
    then a vanishing bracket factor, which makes the point degenerate
    (:class:`PoleAtPointError`).
    """
    order = check_order(order)
    chars = [V for group in groups for V in group]
    for V in chars:
        if 0 in V.terms:
            raise TrivialWeightError("character has a nonzero fixed part")
    for V in chars:
        twelfths = V.rank()
        if twelfths % 12:
            raise FractionalPowerError(
                f"aggregate elliptic prefactor p^({twelfths}/12) is not an integer power"
            )
        if twelfths < 0:
            raise ValueError(f"a character of rank {twelfths} has the prefactor p^({twelfths // 12})")
    bases = p.bases
    roots = {}  # weight -> its root and the root's value n/d as the pair (n, d)
    for V in chars:
        for m in V.terms:
            if m not in roots:
                row = _root_at(m, p)
                roots[m] = row, _root_pair(row, bases)

    def weigh(m, p):  # _bracket_pair, from the root pair already taken
        n, d = roots[m][1]
        return n * n - d * d, n * d

    brackets = {V: Fraction(*_product_pair(V, p, weigh, "theta")) for V in chars}
    E = [0] * len(bases)  # the largest |h_j| of the roots, so E_j / 2
    for row, _ in roots.values():
        for i in range(1, len(row), 2):
            k, h = row[i], abs(row[i + 1])
            if h > E[k]:
                E[k] = h
    D = prod((a * b) ** (2 * top) for (a, b), top in zip(bases, E))
    adams = {}  # weight -> (n^2 s)^k + (d^2 s)^k for k = 1..order
    for m, (_, (n, d)) in roots.items():
        n, d = n * n, d * d
        s = D // (n * d)
        n2s, d2s = n * n * s, d * d * s
        up = down = 1
        column = adams[m] = []
        for _ in range(order):
            up *= n2s
            down *= d2s
            column.append(up + down)
    Dpow = [D**k for k in range(order + 1)]
    sums = []
    for group in groups:
        L = lcm(*(brackets[V].denominator for V in group))
        acc = {}  # power of p -> [L * sum of bracket * G_n over the group's characters]
        for V in group:
            N = [0] * (order + 1)
            for m, mult in V.terms.items():
                for k, a in enumerate(adams[m], 1):
                    N[k] += mult * a
            lam = [0] + [
                -sum((M // k) * N[k] * Dpow[M - k] for k in range(1, M + 1) if M % k == 0)
                for M in range(1, order + 1)
            ]
            bracket = brackets[V]
            b = bracket.numerator * (L // bracket.denominator)
            total = acc.setdefault(V.rank() // 12, [0] * (order + 1))
            for n, g in enumerate(exp_numerators(lam)):
                total[n] += b * g
        val = QSeries.zero(order)
        for shift, total in acc.items():
            coeffs = [Fraction(c, L * factorial(n) * Dpow[n]) for n, c in enumerate(total)]
            val = val + QSeries(coeffs).shift(shift)
        sums.append(val)
    return sums
