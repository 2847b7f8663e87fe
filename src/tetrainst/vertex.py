"""Equivariant characters attached to a torus-fixed point.

Given a configuration of plane partitions, this module builds the quotient
character Q, the framing character K, its leg-twisted form T, the virtual
tangent character and the vertex term (a chosen square root of the virtual
tangent), together with its block decomposition and the rank-agnostic tilde
variant used by the sign rule.  The second route to the virtual tangent,
through the ambient space and the obstruction bundle, and the vertex
reassembled from its blocks are in ``tests/reference.py``, which checks them
against :func:`virtual_tangent` and :func:`vertex`.

The vertex has two routes.  The direct one is its formula written in
character arithmetic, and serves the empty configuration and the tests.  The
grown one adds a single box ``X`` to a configuration whose vertex is known,
which changes the vertex by O(size) terms; the localization sums build every
nonempty configuration that way, from a configuration of size one less that
has it among its ``Configuration.children``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Character, TrivialWeightError, t_monomial, w_monomial


def other_indices(i):
    """The three indices in {1,2,3,4} different from ``i``, increasing."""
    return tuple(k for k in range(1, 5) if k != i)


def char_P(index_set):
    """``P_I = prod_{l in I} (1 - t_l)`` expanded as a character."""
    out = Character.one()
    for l in index_set:
        out = out * Character({0: 1, t_monomial(l): -1})
    return out


# PBAR[k] is Pbar_{k^} = dual(P_I) for I the three indices other than k
PBAR = {k: char_P(other_indices(k)).dual() for k in range(1, 5)}

# T_WEIGHT[i] is the weight t_i, the leg twist of a slot on leg i
T_WEIGHT = {i: t_monomial(i) for i in range(1, 5)}

# AXIS_WEIGHTS[i] is (t_i1, t_i2, t_i3), the weights of the three axes of leg i
AXIS_WEIGHTS = {i: tuple(T_WEIGHT[k] for k in other_indices(i)) for i in range(1, 5)}


@dataclass
class FixedPointData:
    """One fixed point as its slot data.

    ``Z`` and ``w`` are keyed by the framing slots ``(i, l)`` in the order of
    ``Configuration.slots()``: ``Z`` holds each slot's partition character (in
    the t-variables only) and ``w`` its framing weight, ``w_k`` for the k-th
    slot.  Q, K and T are sums of these, derived on read; ``vertex`` reads
    the slots themselves.  A fixed point built from its parent's shares the
    ``w`` dict and the unchanged slots' characters with it; none of them is
    changed in place.
    """

    Z: dict  # (i, l) -> Character
    w: dict  # (i, l) -> packed weight

    @property
    def Q(self):
        """``Q = sum_il w_il * Z_il``."""
        # the slots' weights differ, so no two slots share a term
        return Character({w + m: c for s, w in self.w.items() for m, c in self.Z[s].terms.items()})

    @property
    def K(self):
        """``K = sum_il w_il``."""
        return Character(dict.fromkeys(self.w.values(), 1))

    @property
    def T(self):
        """``T = sum_il w_il * t_i``, the framing twisted by its leg's t."""
        return Character({w + T_WEIGHT[i]: 1 for (i, _), w in self.w.items()})


def box_weight(box, i):
    """The weight ``t_{i1}^a t_{i2}^b t_{i3}^c`` of the box ``(a, b, c)`` on leg ``i``."""
    a, b, c = box
    u, v, w = AXIS_WEIGHTS[i]
    return a * u + b * v + c * w


def partition_character(pp, i):
    """``Z = sum_{(a,b,c) in pi} t_{i1}^a t_{i2}^b t_{i3}^c`` for leg ``i``."""
    # distinct boxes are distinct weights
    return Character(dict.fromkeys((box_weight(box, i) for box in pp), 1))


def build_fixed_point(config, parent=None):
    """The slot data of ``config``.

    Given ``parent = (parent_fp, slot, box)``, with ``parent_fp`` the data of
    a configuration that has ``config`` among its ``Configuration.children``,
    and ``slot`` and ``box`` as that method returns them with it, only that
    slot's character is new: it is the parent's plus the box's
    :func:`box_weight`, and every other slot's character and the framing
    weights are shared.
    """
    if parent is None:
        Z = {s: partition_character(pp, s[0]) for s, pp in config.slots()}
        return FixedPointData(Z, {s: w_monomial(k) for k, s in enumerate(Z)})
    pfp, s, box = parent
    Z = dict(pfp.Z)
    Z[s] = Character._of_nonzero({**Z[s].terms, box_weight(box, s[0]): 1})
    return FixedPointData(Z, pfp.w)


def virtual_tangent(fp):
    """Virtual tangent character at the fixed point (rank zero)."""
    Q, K, T = fp.Q, fp.K, fp.T
    Qd = Q.dual()
    return Character.sum([K.dual() * Q, K * Qd, -char_P({1, 2, 3, 4}) * Q * Qd, -T * Qd, -T.dual() * Q])


def vertex(fp, parent=None):
    """The vertex term: a square root of the virtual tangent character.

    ``v = Kbar Q - T Qbar - sum_{i,j} Pbar_{max(i,j)^} Q_j Qbar_i``, with
    ``Q_i`` the part of Q on leg ``i``.  ``v + dual(v) == virtual_tangent(fp)``
    and ``v`` has empty fixed part; a nonzero fixed part signals an internal
    bug and raises.

    Given ``parent = (parent_vertex, slot, box)``, where ``fp`` is the
    parent's data with ``box`` added to ``slot`` (see ``build_fixed_point``),
    ``v`` is a copy of the parent's vertex plus the growth, rid of the terms
    that cancel.  With ``X = w x`` the box's term, ``w`` the slot's framing
    weight, ``x`` the box's :func:`box_weight`, ``a`` the slot's leg and
    ``Q_j``, K, T those of ``fp``,
    ``v - v_parent = Kbar X - T Xbar + Pbar_{a^} - sum_j Pbar_{max(a,j)^} (X Qbar_j + Q_j Xbar)``:
    O(size) ratios, collected in one dict.  The direct route,
    ``parent=None``, is the formula above in character arithmetic; it serves
    the empty configuration and stays as the independent check of the grown
    one.
    """
    v = _direct_vertex(fp) if parent is None else _grown_vertex(fp, *parent)
    if 0 in v.terms:
        raise TrivialWeightError("vertex term has a nonzero fixed part")
    return v


def _direct_vertex(fp):
    Q = {
        i: Character.sum(Character.of(w) * fp.Z[s] for s, w in fp.w.items() if s[0] == i)
        for i in range(1, 5)
    }
    return Character.sum([
        fp.K.dual() * fp.Q,
        -fp.T * fp.Q.dual(),
        *(-PBAR[max(i, j)] * Q[j] * Q[i].dual() for i in Q for j in Q),
    ])


def _grown_vertex(fp, pv, s, box):
    a = s[0]
    X = fp.w[s] + box_weight(box, a)
    terms = dict(pv.terms)
    get = terms.get
    for (i, _), w in fp.w.items():  # Kbar X - T Xbar
        m, n = X - w, w + T_WEIGHT[i] - X
        terms[m] = get(m, 0) + 1
        terms[n] = get(n, 0) - 1
    # k -> the terms of X Qbar_j + Q_j Xbar over the legs with max(a, j) = k;
    # the count at weight 0 starts at -1 for the term +Pbar_{a^}, since Q_a
    # holds X and X Xbar = 1
    ratios = {a: {0: -1}}
    for (j, l), w in fp.w.items():
        r = ratios.setdefault(max(a, j), {})
        for y, c in fp.Z[(j, l)].terms.items():
            d = X - y - w
            r[d] = r.get(d, 0) + c
            r[-d] = r.get(-d, 0) + c
    for k, r in ratios.items():  # minus Pbar_{k^} times each count
        for p, cp in PBAR[k].terms.items():
            for m, c in r.items():
                m += p
                terms[m] = get(m, 0) - cp * c
    return Character(terms)


def _half_block(fp, i, l, j, k, pleg):
    # w_il^(-1) w_jk (Z_jk - kappa_j^(-1) Zbar_il - Pbar_{pleg^} Z_jk Zbar_il)
    wfac = Character.of(fp.w[(j, k)] - fp.w[(i, l)])
    Zjk = fp.Z[(j, k)]
    Zil_d = fp.Z[(i, l)].dual()
    kappa_inv = Character.of(T_WEIGHT[j])  # kappa_j^(-1) = t_j
    return wfac * (Zjk - kappa_inv * Zil_d - PBAR[pleg] * Zjk * Zil_d)


def vertex_block(fp, i, l, j, k, pleg=None):
    """Block of the vertex term for the slot pair ``(i,l) <= (j,k)``.

    The half block of ``(i,l) -> (j,k)`` plus, off the diagonal, that of
    ``(j,k) -> (i,l)``; both halves take the P-factor ``Pbar_{pleg^}``.
    With the default ``pleg = j``, the larger leg of the pair, summing the
    blocks over all ordered slot pairs reproduces ``vertex(fp)`` exactly.
    The sign rule's generic block is ``pleg=4``, whose factor is
    ``Pbar_{123}``.
    """
    if (i, l) > (j, k):
        raise ValueError("slot pair must be lexicographically ordered")
    pleg = j if pleg is None else pleg
    block = _half_block(fp, i, l, j, k, pleg)
    if (i, l) != (j, k):
        block = block + _half_block(fp, j, k, i, l, pleg)
    return block


def tilde_form(K, Q, pbar):
    """``Kbar Q - pbar Q Qbar`` for the characters ``K`` and ``Q`` and the
    P-factor ``pbar``, one of the ``PBAR`` values."""
    return K.dual() * Q - pbar * (Q * Q.dual())


def tilde_vertex(fp):
    """Rank-agnostic square-root variant ``Kbar*Q - Pbar_{123}*Q*Qbar``, the
    :func:`tilde_form` of the fixed point's K and Q; a nonzero fixed part
    signals an internal bug and raises."""
    v = tilde_form(fp.K, fp.Q, PBAR[4])
    if 0 in v.terms:
        raise TrivialWeightError("tilde vertex has a nonzero fixed part")
    return v
