"""Acceptance suite: the eleven primary criteria, all exact (tolerance 0).

Each test emits a single pass/fail line for the criterion it certifies.
"""

import time
from fractions import Fraction

from tetrainst.formulas import (
    check_kappa_identity,
    closed_Z_K,
    closed_Z_coh,
    factorized_Z,
)
from tetrainst.localization import (
    Z_loc_K,
    Z_loc_coh,
    Z_loc_ell,
    check_euler_characteristics,
    check_framing_independence,
    check_rho_tilde_vanishes,
    check_sign_identity,
    sample_until,
)
from tetrainst.partitions import enumerate_configurations
from tetrainst.series import QSeries
from tetrainst.vertex import build_fixed_point, vertex, virtual_tangent

from reference import rank1_relation_residual

MIXED_RVECS = [(1, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (2, 0, 0, 0), (1, 1, 1, 0), (0, 2, 1, 0)]


def report(number, ok, text):
    print(f"{'PASS' if ok else 'FAIL'}: criterion {number} - {text}")
    assert ok, f"criterion {number} failed: {text}"


def test_criterion_01_rank1_main_theorem():
    start = time.time()
    ok = True
    for seed in range(5):
        def run(p):
            return Z_loc_K((0, 0, 0, 1), 4, p), closed_Z_K((0, 0, 0, 1), 4, p)

        (loc, closed), _, _ = sample_until(run, 1000 + seed, (0, 0, 0, 1))
        ok = ok and loc == closed
    elapsed = time.time() - start
    report(1, ok and elapsed < 10, f"rank-1 main theorem to q^4 at 5 points ({elapsed:.1f}s)")


def test_criterion_02_mixed_rank_main_theorem():
    start = time.time()
    ok = True
    for rvec in MIXED_RVECS:
        for seed in range(5):
            def run(p):
                return (
                    Z_loc_K(rvec, 3, p),
                    closed_Z_K(rvec, 3, p),
                    factorized_Z(rvec, 3, p),
                )

            (loc, closed, fact), _, _ = sample_until(run, 2000 + seed, rvec)
            ok = ok and loc == closed == fact
    elapsed = time.time() - start
    report(2, ok and elapsed < 300, f"mixed-rank main theorem to q^3, 6 rank vectors x 5 points ({elapsed:.1f}s)")


def test_criterion_03_vanishing():
    ok = True
    for seed in range(5):
        def run(p):
            return Z_loc_K((1, 1, 1, 1), 3, p)

        loc, _, _ = sample_until(run, 3000 + seed, (1, 1, 1, 1))
        ok = ok and loc == QSeries.one(3)
    p0 = sample_until(lambda p: p, 3000, (1, 1, 1, 1))[0]
    ok = ok and closed_Z_K((1, 1, 1, 1), 3, p0) == QSeries.one(3)
    report(3, ok, "vanishing for rank vector (1,1,1,1), q^1..q^3 all zero")


def test_criterion_04_framing_independence():
    ok = True
    for rvec in [(0, 0, 0, 2), (1, 1, 0, 0)]:
        rep = check_framing_independence(rvec, 2, 4000, 3)
        ok = ok and rep.passed
    report(4, ok, "framing independence at order q^2, 3 framings each")


def test_criterion_05_sign_rule():
    ok = True
    for rvec in [(0, 0, 0, 1), (1, 0, 1, 0)]:
        configs = []
        for n in range(4):
            configs.extend(enumerate_configurations(rvec, n))
        for seed in range(3):
            def run(p):
                return all(check_sign_identity(c, p) for c in configs)

            good, _, _ = sample_until(run, 5000 + seed, rvec)
            ok = ok and good
    ok = ok and check_rho_tilde_vanishes(3)
    report(5, ok, "sign rule for all configurations |pi| <= 3 at 3 points, rho-tilde = 0")


def test_criterion_06_cohomological_limit():
    ok = True
    for rvec in [(0, 0, 0, 1), (1, 1, 0, 0), (1, 1, 1, 1)]:
        for seed in range(5):
            def run(p):
                return Z_loc_coh(rvec, 3, p), closed_Z_coh(rvec, 3, p)

            (loc, closed), _, _ = sample_until(run, 6000 + seed, rvec, "coh")
            ok = ok and loc == closed
    report(6, ok, "cohomological limit to q^3 at 5 points per rank vector")


def test_criterion_07_euler_characteristics():
    ok = all(check_euler_characteristics(r, 5).passed for r in (1, 2, 4))
    report(7, ok, "Euler characteristic counts match MacMahon powers, r in {1,2,4}, n <= 5")


def test_criterion_08_square_root_invariants():
    ok = True
    for rvec in MIXED_RVECS:
        for n in range(4):
            for config in enumerate_configurations(rvec, n):
                fp = build_fixed_point(config)
                v = vertex(fp)
                ok = ok and v + v.dual() == virtual_tangent(fp)
                ok = ok and 0 not in v.terms
    report(8, ok, "square-root and movability invariants, exhaustive |pi| <= 3")


def test_criterion_09_weight_identity():
    samples = {
        2: [(Fraction(2), Fraction(5, 3)), (Fraction(7, 2), Fraction(3, 4)), (Fraction(9, 5), Fraction(11, 7))],
        3: [(Fraction(2), Fraction(3), Fraction(5, 4)), (Fraction(5, 2), Fraction(7, 3), Fraction(2, 9)),
            (Fraction(4, 3), Fraction(6, 5), Fraction(8, 7))],
        4: [(Fraction(2), Fraction(3, 2), Fraction(5, 3), Fraction(7, 4)),
            (Fraction(9, 2), Fraction(5, 7), Fraction(3, 8), Fraction(11, 6)),
            (Fraction(13, 5), Fraction(2, 3), Fraction(7, 6), Fraction(10, 9))],
    }
    ok = all(check_kappa_identity(list(bs), 6) for r, group in samples.items() for bs in group)
    report(9, ok, "weight identity for r = 2,3,4 to order 6, 3 samples each")


def test_criterion_10_elliptic_degeneration():
    ok = True
    for seed in range(3):
        def run(p):
            return Z_loc_ell((0, 0, 0, 1), 2, 3, p), Z_loc_K((0, 0, 0, 1), 2, p)

        (ell, zk), _, _ = sample_until(run, 10000 + seed, (0, 0, 0, 1))
        ok = ok and ell.p_slice(0) == zk
    report(10, ok, "elliptic p -> 0 degeneration, order q^2, p-order 3, 3 points")


def test_criterion_11_rank1_relation():
    ok = True
    for seed in range(5):
        val, _, _ = sample_until(rank1_relation_residual, 11000 + seed, (0, 0, 0, 1))
        ok = ok and val == 0
    report(11, ok, "rank-1 linear relation among first coefficients at 5 points")
