"""Equivariant characters attached to a torus-fixed point.

Given a configuration of plane partitions, this module builds the quotient
character Q, the framing characters K_i, the virtual tangent character and
the vertex term (a chosen square root of the virtual tangent), together with
its block decomposition and the rank-agnostic tilde variant used by the sign
rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .algebra import Character, NotMovableError, VariableRegistry, monomial, t_monomial, w_monomial


def other_indices(i):
    """The three indices in {1,2,3,4} different from ``i``, increasing."""
    return tuple(k for k in range(1, 5) if k != i)


def char_P(index_set):
    """``P_I = prod_{l in I} (1 - t_l)`` expanded as a character.

    Built once per process for each index set; callers share the result and
    must not mutate it.
    """
    return _char_P(tuple(sorted(index_set)))


@lru_cache(maxsize=None)
def _char_P(indices):
    out = Character.one()
    for l in indices:
        factor = Character.one() - Character.of(t_monomial(l))
        out = out * factor
    return out


@dataclass
class FixedPointData:
    """All characters attached to one fixed point."""

    config: object
    registry: VariableRegistry
    Z: dict  # (i, l) -> Character in the t-variables only
    Q_leg: tuple  # Q_i per leg, length 4
    Q: Character
    K_leg: tuple  # K_i per leg
    K: Character


def partition_character(pp, i):
    """``Z = sum_{(a,b,c) in pi} t_{i1}^a t_{i2}^b t_{i3}^c`` for leg ``i``."""
    i1, i2, i3 = other_indices(i)
    out = Character.zero()
    for (a, b, c) in pp:
        texp = [0, 0, 0, 0]
        texp[i1 - 1] = 2 * a
        texp[i2 - 1] = 2 * b
        texp[i3 - 1] = 2 * c
        out = out + Character.of(monomial(texp))
    return out


def build_fixed_point(config):
    reg = VariableRegistry(config.rvec)
    Z = {}
    Q_leg = []
    K_leg = []
    for i in range(1, 5):
        Qi = Character.zero()
        Ki = Character.zero()
        for l in range(1, config.rvec[i - 1] + 1):
            pp = config.legs[i - 1][l - 1]
            Zil = partition_character(pp, i)
            Z[(i, l)] = Zil
            w = Character.of(w_monomial(reg.slot(i, l)))
            Qi = Qi + w * Zil
            Ki = Ki + w
        Q_leg.append(Qi)
        K_leg.append(Ki)
    Q = Q_leg[0] + Q_leg[1] + Q_leg[2] + Q_leg[3]
    K = K_leg[0] + K_leg[1] + K_leg[2] + K_leg[3]
    return FixedPointData(config, reg, Z, tuple(Q_leg), Q, tuple(K_leg), K)


def virtual_tangent(fp):
    """Virtual tangent character at the fixed point (rank zero)."""
    Q, Qd = fp.Q, fp.Q.dual()
    T = fp.K.dual() * Q + fp.K * Qd - char_P({1, 2, 3, 4}) * Q * Qd
    for i in range(1, 5):
        ti = Character.of(t_monomial(i))
        ti_inv = Character.of(t_monomial(i, -1))
        T = T - fp.K_leg[i - 1] * ti * Qd
        T = T - fp.K_leg[i - 1].dual() * ti_inv * Q
    return T


def ambient_tangent(fp):
    """Tangent character of the smooth ambient moduli space."""
    Q, Qd = fp.Q, fp.Q.dual()
    c4 = Character.zero()
    for i in range(1, 5):
        c4 = c4 + Character.of(t_monomial(i, -1))
    c4 = c4 - Character.one()
    return c4 * Q * Qd + fp.K.dual() * Q


def obstruction_fiber(fp):
    """Fiber character of the orthogonal bundle cutting out the moduli space."""
    Q, Qd = fp.Q, fp.Q.dual()
    lam2 = Character.zero()
    for i in range(1, 5):
        for j in range(i + 1, 5):
            m = t_monomial(i, -1) + t_monomial(j, -1)
            lam2 = lam2 + Character.of(m)
    L = lam2 * Q * Qd
    for i in range(1, 5):
        ti = Character.of(t_monomial(i))
        ti_inv = Character.of(t_monomial(i, -1))
        L = L + fp.K_leg[i - 1] * ti * Qd
        L = L + fp.K_leg[i - 1].dual() * ti_inv * Q
    return L


def virtual_tangent_via_ambient(fp):
    """Independent route: ambient tangent minus obstruction plus cotangent."""
    TA = ambient_tangent(fp)
    return TA - obstruction_fiber(fp) + TA.dual()


def vertex(fp):
    """The vertex term: a square root of the virtual tangent character.

    ``v + dual(v) == virtual_tangent(fp)`` and ``v`` has empty fixed part;
    a nonzero fixed part signals an internal bug and raises.
    """
    Q, Qd = fp.Q, fp.Q.dual()
    v = fp.K.dual() * Q
    for j in range(1, 5):
        tj = Character.of(t_monomial(j))
        v = v - fp.K_leg[j - 1] * tj * Qd
    for j in range(1, 5):
        Pbar = char_P(other_indices(j)).dual()
        v = v - Pbar * fp.Q_leg[j - 1] * fp.Q_leg[j - 1].dual()
    for i in range(1, 5):
        for j in range(i + 1, 5):
            Pbar = char_P(other_indices(j)).dual()
            cross = fp.Q_leg[j - 1] * fp.Q_leg[i - 1].dual() + fp.Q_leg[i - 1] * fp.Q_leg[j - 1].dual()
            v = v - Pbar * cross
    if not v.fixed_part().is_zero():
        raise NotMovableError("vertex term has a nonzero fixed part")
    return v


def _half_block(fp, i, l, j, k, pleg=None):
    # w_il^(-1) w_jk (Z_jk - kappa_j^(-1) Zbar_il - Pbar_{p1p2p3} Z_jk Zbar_il)
    # where the P-factor is indexed by pleg (default j); for a mixed-leg pair
    # both orientations share the P-factor of the larger leg.
    reg = fp.registry
    if pleg is None:
        pleg = j
    wfac = Character.of(w_monomial(reg.slot(j, k)) - w_monomial(reg.slot(i, l)))
    Zjk = fp.Z[(j, k)]
    Zil_d = fp.Z[(i, l)].dual()
    kappa_inv = Character.of(t_monomial(j))  # kappa_j^(-1) = t_j
    Pbar = char_P(other_indices(pleg)).dual()
    return wfac * (Zjk - kappa_inv * Zil_d - Pbar * Zjk * Zil_d)


def vertex_block(fp, i, l, j, k):
    """Block of the vertex term for the slot pair ``(i,l) <= (j,k)``.

    Summing the blocks over all ordered slot pairs reproduces ``vertex(fp)``
    exactly.  Blocks on the same leg with ``l < k`` bundle both w-orientations.
    """
    if (i, l) > (j, k):
        raise ValueError("slot pair must be lexicographically ordered")
    if i == j:
        block = _half_block(fp, i, l, j, k)
        if l != k:
            block = block + _half_block(fp, i, k, j, l)
        return block
    return _half_block(fp, i, l, j, k, pleg=j) + _half_block(fp, j, k, i, l, pleg=j)


def vertex_from_blocks(fp):
    """Reassemble the vertex term from its blocks (decomposition identity)."""
    out = Character.zero()
    slots = list(fp.registry.wslots)
    for a, (i, l) in enumerate(slots):
        for (j, k) in slots[a:]:
            out = out + vertex_block(fp, i, l, j, k)
    return out


def tilde_vertex(fp):
    """Rank-agnostic square-root variant ``Kbar*Q - Pbar_{123}*Q*Qbar``."""
    Q, Qd = fp.Q, fp.Q.dual()
    v = fp.K.dual() * Q - char_P({1, 2, 3}).dual() * Q * Qd
    if not v.fixed_part().is_zero():
        raise NotMovableError("tilde vertex has a nonzero fixed part")
    return v
