"""Command-line driver: compute series and run verification suites.

The checks hand this module exact values, and it alone writes them as text:
every report is deterministic UTF-8 JSON with a top-level "schema" key, in
which every rational number is a "num/den" string, never a float.

Exit codes: 0 success, 1 a verification check failed, 2 invalid configuration,
3 the point sampler was exhausted, 4 an internal invariant was violated or
another unexpected error occurred.
"""

from __future__ import annotations

import json
import sys
import traceback
from contextlib import contextmanager
from dataclasses import asdict
from fractions import Fraction

import click

from . import __version__
from .algebra import CohPoint, EvalPoint
from .localization import (
    MODES,
    SamplerExhaustedError,
    check_euler_characteristics,
    check_framing_independence,
    run_kappa_check,
    run_sign_sweep,
    sample_until,
    verify_main,
)
from .partitions import rank_vector
from .series import QSeries

SCHEMA = "tetrainst-report/1"

EXIT_CHECK_FAILED = 1
EXIT_SAMPLER = 3
EXIT_INTERNAL = 4


def _parse_rvec(text):
    try:
        return rank_vector(text.split(","))
    except ValueError:
        raise click.UsageError(f"rvec must be 4 comma-separated nonnegative integers, got {text!r}") from None


def _plain(value):
    """The JSON form of a value that ``json`` cannot write itself: a
    ``Fraction`` is its "num/den" string, a ``QSeries`` its coefficients and
    a point its coordinates by name.  Anything else raises ``TypeError``,
    which exits 4."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, QSeries):
        return value.coeffs
    if isinstance(value, EvalPoint):
        return {"sqrt_t": value.sqrt_t, "sqrt_w": value.sqrt_w}
    if isinstance(value, CohPoint):
        return {"s": value.s, "v": value.v}
    raise TypeError(f"cannot write a {type(value).__name__} in a report")


@contextmanager
def _exit_codes():
    """Exit 3 on sampler exhaustion and 4 on any other error, so that a crash
    never shares the failed-check code 1."""
    try:
        yield
    except SamplerExhaustedError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_SAMPLER)
    except Exception:
        click.echo(traceback.format_exc(), err=True, nl=False)
        sys.exit(EXIT_INTERNAL)


def _emit(command, meta, out, **body):
    """Write the report of ``command``, with the fields of ``body`` next to
    its ``meta``, to the file ``out`` or else to stdout.

    The one place a report becomes text: ``meta`` and ``body`` hold exact
    values, and :func:`_plain` writes each one ``json`` cannot."""
    doc = {"schema": SCHEMA, "version": __version__, "meta": {"command": command, **meta}, **body}
    text = json.dumps(doc, indent=2, sort_keys=True, default=_plain) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


@click.group()
@click.version_option(__version__)
def main():
    """Exact computation and verification of tetrahedron instanton series."""


@main.command()
@click.option("--rvec", required=True, help="rank vector, e.g. 0,0,0,1")
@click.option("--order", default=2, type=click.IntRange(0), help="q-order N")
@click.option("--mode", default="k", type=click.Choice(["k", "coh", "elliptic"]))
@click.option("--p-order", default=2, type=click.IntRange(0), help="elliptic p-order")
@click.option("--seed", default=0, type=int)
@click.option("--out", default=None, type=click.Path(dir_okay=False))
def compute(rvec, order, mode, p_order, seed, out):
    """Compute the partition function series at a sampled point."""
    rv = _parse_rvec(rvec)
    with _exit_codes():
        series, point, tries = sample_until(lambda p: MODES[mode](rv, order, p_order, p), seed, rv, mode)
        meta = {
            "rvec": list(rv),
            "order": order,
            "mode": mode,
            "p_order": p_order if mode == "elliptic" else None,
            "seed": seed,
            "point": point,
            "points_tried": tries,
        }
        _emit("compute", meta, out, series=series)


@main.command()
@click.option("--suite", default="all", type=click.Choice(["main", "signs", "framing", "euler", "kappa", "all"]))
@click.option("--rvec", default="0,0,0,1", help="rank vector, e.g. 1,1,0,0")
@click.option(
    "--order",
    default=2,
    type=click.IntRange(0),
    help="q-order N; the signs suite runs to min(N, 3) and the kappa suite to max(N, 6), "
    "and each check's own order is reported",
)
@click.option("--mode", default="k", type=click.Choice(["k", "coh"]))
@click.option("--seed", default=0, type=int)
@click.option("--points", default=3, type=click.IntRange(1))
@click.option("--framings", default=3, type=click.IntRange(2))
@click.option("--r", "rank", default=None, type=click.IntRange(0), help="total rank for the euler suite")
@click.option("--out", default=None, type=click.Path(dir_okay=False))
def verify(suite, rvec, order, mode, seed, points, framings, rank, out):
    """Run verification suites; exit 0 iff every check passes."""
    rv = _parse_rvec(rvec)
    with _exit_codes():
        reports = []
        if suite in ("main", "all"):
            reports.append(verify_main(rv, order, seed, points, mode))
        if suite in ("signs", "all"):
            reports.append(run_sign_sweep(rv, min(order, 3), seed, points))
        if suite in ("framing", "all"):
            reports.append(check_framing_independence(rv, order, seed, framings))
        if suite in ("euler", "all"):
            r = rank if rank is not None else sum(rv)
            reports.append(check_euler_characteristics(r, order))
        if suite in ("kappa", "all"):
            reports.append(run_kappa_check(max(order, 6), seed, points))
        passed = all(r.passed for r in reports)
        meta = {
            "suite": suite,
            "rvec": list(rv),
            "order": order,
            "mode": mode,
            "seed": seed,
            "points": points,
            "framings": framings,
        }
        _emit("verify", meta, out, passed=passed, checks=[asdict(r) for r in reports])
    if not passed:
        sys.exit(EXIT_CHECK_FAILED)


if __name__ == "__main__":
    main()
