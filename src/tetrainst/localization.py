"""Localization sums over fixed-point configurations and the cross-checks.

This is the verification core.  The partition function is computed by
summing the chosen localization measure of minus the vertex term over all
configurations of a given size, and compared against the closed formulas
at exactly sampled rational points (probabilistic identity testing with
exact arithmetic: no tolerance anywhere).  The bracket and the Euler class
of minus the vertex are taken as the reciprocals of the vertex's own.  The
characters of each size are grown by one box from those of the size below.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .algebra import (
    Character,
    CohPoint,
    EvalPoint,
    PoleAtPointError,
    bracket_eval,
    bracket_ratio,
    euler_eval,
    theta_sums,
)
from .formulas import check_kappa_identity, closed_Z_K, closed_Z_coh, factorized_Z
from .partitions import (
    Configuration,
    PlanePartition,
    configuration_sign,
    embed_to_solid,
    enumerate_configurations,
    enumerate_plane_partitions,
    rank_vector,
    sign_rho,
    sign_rho_tilde,
)
from .series import QPSeries, QSeries, check_order, macmahon_power
from .vertex import PBAR, build_fixed_point, tilde_form, tilde_vertex, vertex, vertex_block

SAMPLER_BOUND = 97
SAMPLER_MAX_TRIES = 40
KAPPA_RANKS = (2, 3, 4)


class SamplerExhaustedError(RuntimeError):
    """The pole-avoiding sampler hit its retry cap."""


@dataclass
class CheckReport:
    """Outcome of one verification check; deterministic given its inputs.

    Each entry of ``details`` holds exact values (ints, ``Fraction``s,
    ``QSeries``), never their text: the CLI alone writes a report as text.
    """

    name: str
    rvec: tuple = None
    order: int = 0
    seed: int = 0
    points_tried: int = 0
    points_used: int = 0
    passed: bool = True
    details: list = field(default_factory=list)

    def record(self, ok, **info):
        self.details.append({"passed": bool(ok), **info})
        if not ok:
            self.passed = False

    def sample(self, fn, seed, mode):
        """``fn(point)`` at the first non-degenerate point of ``mode`` drawn
        from ``seed`` for this report's rank vector, tallied as one point used."""
        result, _, tries = sample_until(fn, seed, self.rvec, mode)
        self.points_tried += tries
        self.points_used += 1
        return result


# ---------------------------------------------------------------------------
# point sampling


def _draw_positive(rng, used):
    for _ in range(1000):
        x = Fraction(rng.randint(2, SAMPLER_BOUND), rng.randint(2, SAMPLER_BOUND))
        if x != 1 and x not in used:
            used.add(x)
            return x
    raise SamplerExhaustedError("could not draw a fresh positive rational")


def _draw_nonzero(rng, used):
    x = _draw_positive(rng, used)
    return x if rng.random() < 0.5 else -x


def _draw_point(rng, rvec, mode):
    nslots = sum(rvec)
    used = set()
    if mode in ("k", "elliptic"):
        sqrt_t3 = [_draw_positive(rng, used) for _ in range(3)]
        sqrt_w = [_draw_positive(rng, used) for _ in range(nslots)]
        return EvalPoint(sqrt_t3, sqrt_w)
    if mode == "coh":
        while True:
            s3 = [_draw_nonzero(rng, used) for _ in range(3)]
            if sum(s3) != 0:
                break
        v = [_draw_nonzero(rng, used) for _ in range(nslots)]
        return CohPoint(s3, v)
    raise ValueError(f"unknown mode {mode!r}")


def sample_point(seed, rvec, mode="k"):
    """Deterministic pseudo-random specialization point for the given mode."""
    return _draw_point(random.Random(seed), rvec, mode)


def sample_until(fn, seed, rvec, mode="k"):
    """Run ``fn(point)`` on freshly drawn points until one is not degenerate.

    At a degenerate point, where a factor of a measure vanishes, ``fn``
    raises :class:`PoleAtPointError` and the next point is drawn.  Returns
    ``(result, point, tries)``; raises :class:`SamplerExhaustedError` after
    ``SAMPLER_MAX_TRIES`` tries.  Deterministic given the seed.
    """
    rng = random.Random(seed)
    for attempt in range(1, SAMPLER_MAX_TRIES + 1):
        point = _draw_point(rng, rvec, mode)
        try:
            return fn(point), point, attempt
        except PoleAtPointError:
            continue
    raise SamplerExhaustedError(f"no pole-free point in {SAMPLER_MAX_TRIES} tries (seed {seed})")


# ---------------------------------------------------------------------------
# localization sums


def _levels(rvec, order):
    """The nodes ``(configuration, fixed point, vertex)`` of each size up to
    ``order``, one tuple per size; the rank vector and the order are checked
    once here."""
    rv = rank_vector(rvec)
    return [_level(rv, n) for n in range(check_order(order) + 1)]


@lru_cache(maxsize=None)
def _level(rvec, n):
    """The nodes of size ``n``, built once per process, as none depends on the
    point.  The empty configuration's is built directly, every other grown by
    one box from a node of size ``n - 1`` (``Configuration.children``)."""
    if n == 0:
        config = Configuration._of_checked(rvec, tuple((PlanePartition(()),) * r for r in rvec))
        fp = build_fixed_point(config)
        return ((config, fp, vertex(fp)),)
    nodes = []
    for config, pfp, pv in _level(rvec, n - 1):
        for child, slot, box in config.children():
            fp = build_fixed_point(child, (pfp, slot, box))
            nodes.append((child, fp, vertex(fp, (pv, slot, box))))
    return tuple(nodes)


def _localization_sum(rvec, order, measure):
    """Coefficients up to ``order``: ``measure`` of minus the vertex, given
    the vertex, summed over the configurations of each size."""
    coeffs = []
    for level in _levels(rvec, order):
        total = Fraction(0)
        for _, _, v in level:
            total = total + measure(v)
        coeffs.append(total)
    return coeffs


def Z_loc_K(rvec, order, p):
    """K-theoretic localization series: sum of brackets of minus the vertex.

    The bracket is multiplicative, so that of minus the vertex is the
    reciprocal of the vertex's, exactly, and vanishes at the same factors.
    """
    return QSeries(_localization_sum(rvec, order, lambda v: 1 / bracket_eval(v, p)))


def Z_loc_coh(rvec, order, p):
    """Cohomological localization series (Euler-class measure), each term the
    reciprocal of the vertex's Euler class, as in :func:`Z_loc_K`."""
    return QSeries(_localization_sum(rvec, order, lambda v: 1 / euler_eval(v, p)))


def Z_loc_ell(rvec, q_order, p_order, p):
    """Elliptic localization series, bigraded in q and the elliptic parameter:
    the theta measures of minus the vertices, summed per size in one
    :func:`theta_sums` call over every size."""
    levels = _levels(rvec, q_order)
    return QPSeries(theta_sums([[-v for _, _, v in level] for level in levels], p, p_order))


# ---------------------------------------------------------------------------
# the reported series per mode


def _series_k(rvec, order, p_order, point):
    return {
        "localization": Z_loc_K(rvec, order, point),
        "closed": closed_Z_K(rvec, order, point),
        "factorized": factorized_Z(rvec, order, point),
    }


def _series_coh(rvec, order, p_order, point):
    return {
        "localization": Z_loc_coh(rvec, order, point),
        "closed": closed_Z_coh(rvec, order, point),
    }


def _series_elliptic(rvec, order, p_order, point):
    ell = Z_loc_ell(rvec, order, p_order, point)
    return {
        "localization_rows": ell.rows,
        "p0_slice": ell.p_slice(0),
        "closed": closed_Z_K(rvec, order, point),
    }


# mode -> the report's series at a point of that mode, by route name
MODES = {"k": _series_k, "coh": _series_coh, "elliptic": _series_elliptic}


# ---------------------------------------------------------------------------
# sign rule


def check_sign_identity(config, p):
    """Certify the sign rule for one configuration at one point.

    Checks the main identity relating the two square roots and the per-slot
    and per-pair block identities that imply it.  Returns True iff all hold.
    """
    fp = build_fixed_point(config)
    return _identities_hold(_sign_identities(config, fp, vertex(fp)), p)


def _identities_hold(identities, p):
    """Whether ``sign * [lhs] == [rhs]`` at ``p`` for every ``(sign, lhs, rhs)``
    of ``identities``, checked in order up to the first that fails.

    Each side is the unreduced pair of :func:`bracket_ratio`, so the
    identity is the int equality ``sign * nl * dr == nr * dl``.  Both sides
    are evaluated, lhs first, so a factor that vanishes on either side makes
    the point degenerate."""
    for sign, lhs, rhs in identities:
        nl, dl = bracket_ratio(lhs, p)
        nr, dr = bracket_ratio(rhs, p)
        if sign * nl * dr != nr * dl:
            return False
    return True


def _sign_identities(config, fp, v):
    """``(sign, lhs, rhs)`` with ``sign * [lhs] == [rhs]`` for each identity
    of the sign rule at the node ``(config, fp, v)``, in checking order: minus
    the vertex ``v`` against the tilde vertex minus ``T Qbar``; per slot, the
    :func:`tilde_form` of its partition character with ``Pbar_{123}`` against
    that with its own leg's factor; per slot pair, the generic
    :func:`vertex_block` (``pleg=4``) against the vertex's own.  The
    characters do not depend on the point: :func:`run_sign_sweep` builds them
    once per configuration and evaluates them at every point."""
    vt = tilde_vertex(fp)
    extra = fp.T * fp.Q.dual()
    sign = -1 if configuration_sign(config) else 1
    out = [(sign, extra - vt, -v)]

    one = Character.one()
    for (i, l), pp in config.slots():
        Z = fp.Z[(i, l)]
        s = -1 if sign_rho(embed_to_solid(pp, i)) else 1
        out.append((s, tilde_form(one, Z, PBAR[4]), tilde_form(one, Z, PBAR[i])))

    slots = list(fp.Z)
    for a, (i, l) in enumerate(slots):
        for (j, k) in slots[a + 1 :]:
            out.append((1, vertex_block(fp, i, l, j, k, pleg=4), vertex_block(fp, i, l, j, k)))
    return tuple(out)


def check_rho_tilde_vanishes(max_size):
    """The auxiliary sign count vanishes on every embedded plane partition.

    The check cannot fail, so the ``rho-tilde-vanishing`` entry of a signs
    report records a fact of the encoding, not a test of the sign rule:
    ``embed_to_solid(pp, i)`` puts 0 in coordinate ``i``, and
    ``sign_rho_tilde(·, i)`` counts boxes whose other three coordinates are
    equal and strictly less than it, so ``a == b == c < 0`` never holds."""
    for n in range(check_order(max_size) + 1):
        for pp in enumerate_plane_partitions(n):
            for i in range(1, 5):
                if sign_rho_tilde(embed_to_solid(pp, i), i) != 0:
                    return False
    return True


def run_sign_sweep(rvec, max_size, seed, num_points=3):
    """The identities of :func:`check_sign_identity` for every configuration
    up to a size at several points, each distinct one once per point."""
    if num_points < 1:
        raise ValueError("need at least 1 point")
    report = CheckReport("sign-rule", tuple(rvec), max_size, seed)
    nodes = [node for level in _levels(rvec, max_size) for node in level]
    # configurations that share a slot or a slot pair share its block identity
    identities = tuple(dict.fromkeys(idt for node in nodes for idt in _sign_identities(*node)))
    for idx in range(num_points):
        ok = report.sample(lambda point: _identities_hold(identities, point), seed + idx, "k")
        report.record(ok, point_index=idx, configurations=len(nodes))
    report.record(check_rho_tilde_vanishes(max_size), check="rho-tilde-vanishing")
    return report


# ---------------------------------------------------------------------------
# top-level checks


def verify_main(rvec, order, seed, num_points=5, mode="k"):
    """Localization vs closed formulas at sampled points, exact equality."""
    if mode not in ("k", "coh"):
        raise ValueError(f"verify_main supports modes k and coh, not {mode!r}")
    if num_points < 1:
        raise ValueError("need at least 1 point")
    report = CheckReport(f"main-{mode}", tuple(rvec), order, seed)
    series_at = MODES[mode]
    for idx in range(num_points):
        series = report.sample(lambda point: series_at(rvec, order, None, point), seed + idx, mode)
        ok = all(f == series["closed"] for f in series.values())
        report.record(ok, point_index=idx, **series)
    return report


def check_framing_independence(rvec, order, seed, num_framings=3):
    """Z_loc_K must not depend on the framing specialization."""
    if num_framings < 2:
        raise ValueError("need at least 2 framing specializations")
    report = CheckReport("framing-independence", tuple(rvec), order, seed)
    nslots = sum(rvec)
    # a stream of its own: random.Random(seed) would replay the sampler's
    # draws and hand the first variant the point's own sqrt_t values
    rng = random.Random(f"framings-{seed}")

    def run(point):
        variants = [point]
        used = set(point.sqrt_w) | set(point.sqrt_t[:3])
        for _ in range(num_framings - 1):
            variants.append(
                point.with_sqrt_w([_draw_positive(rng, used) for _ in range(nslots)])
            )
        return [Z_loc_K(rvec, order, q) for q in variants]

    series = report.sample(run, seed, "k")
    base = series[0]
    for idx, f in enumerate(series[1:], start=1):
        report.record(f == base, framing_index=idx, series=f)
    return report


def check_euler_characteristics(r, order):
    """Configuration counts against the MacMahon power series, exact integers."""
    report = CheckReport("euler-characteristics", (r, 0, 0, 0), order)
    expected = macmahon_power(r, order)
    for n in range(order + 1):
        count = len(enumerate_configurations((r, 0, 0, 0), n))
        want = expected.coefficient(n)
        report.record(want == count, n=n, configurations=count, macmahon_coefficient=want)
    return report


def run_kappa_check(order, seed, num_samples=3):
    """The standalone weight identity at ``num_samples`` random positive
    square-root weights for each rank of ``KAPPA_RANKS``, recorded as exact
    values."""
    if num_samples < 1:
        raise ValueError("need at least 1 sample")
    report = CheckReport("kappa-identity", None, order, seed)
    rng = random.Random(seed)
    for r in KAPPA_RANKS:
        for s in range(num_samples):
            used = set()
            bs = [_draw_positive(rng, used) for _ in range(r)]
            ok = check_kappa_identity(bs, order)
            report.record(ok, r=r, sample=s, sqrt_weights=bs)
    return report
