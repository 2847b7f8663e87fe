"""Command-line driver: compute series and run verification suites.

The checks hand this module exact values, and it alone writes them as text:
every report is deterministic UTF-8 JSON with a top-level "schema" key, in
which every rational number is a "num/den" string, never a float.

The checks of one ``verify`` call draw their own points and return their own
reports, so they run on up to one process per usable core (``_run_checks``).
A forked lane sends back only the reports it finished, and this process runs
every check that no lane reported, so the report, the exit code and stderr
are the same bytes on any number of cores.

Exit codes: 0 success, 1 a verification check failed, 2 invalid configuration,
3 the point sampler was exhausted, 4 an internal invariant was violated or
another unexpected error occurred, 130 interrupted.
"""

from __future__ import annotations

import json
import os
import sys
import traceback
from contextlib import contextmanager, suppress
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
EXIT_INTERRUPTED = 130


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
    """Exit 3 on sampler exhaustion, 130 on an interrupt and 4 on any other
    error, so that a crash never shares the failed-check code 1."""
    try:
        yield
    except KeyboardInterrupt:
        click.echo("Aborted!", err=True)
        sys.exit(EXIT_INTERRUPTED)
    except SamplerExhaustedError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_SAMPLER)
    except Exception:
        click.echo(traceback.format_exc(), err=True, nl=False)
        sys.exit(EXIT_INTERNAL)


def _usable_cores():
    """The number of cores this process may run on; 1 on a platform that
    cannot tell, so that no check lane is forked there."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def _lane(checks, share):
    """The reports of the checks whose indices are ``share``, in order and as
    the dicts a report writes, up to the first that raises an ``Exception``.
    An interrupt is not caught: it ends the lane at once."""
    reports = []
    with suppress(Exception):
        for i in share:
            reports.append(asdict(checks[i]()))
    return reports


def _kill(pid):
    """Kill the forked lane ``pid``, whose result is no longer wanted."""
    import signal  # it takes a millisecond to import, so only on this path

    os.kill(pid, signal.SIGKILL)


def _collect(children, stop):
    """The output of each forked lane ``(pid, read end)`` in ``children``.
    A lane's pipe is read to EOF before the lane is reaped, because a result
    can exceed the pipe's buffer.  With ``stop`` set each lane is killed
    first.  If this process is interrupted while it waits, the lanes not yet
    reaped are killed and reaped, so none outlives it."""
    received = []
    try:
        for pid, r in children:
            if stop:
                _kill(pid)
            with os.fdopen(r, encoding="utf-8") as fh:
                received.append(fh.read())
            os.waitpid(pid, 0)
    except BaseException:
        for pid, r in children[len(received):]:
            # the read end may be closed already, and the lane reaped
            with suppress(OSError):
                os.close(r)
            with suppress(OSError):
                _kill(pid)
                os.waitpid(pid, 0)
        raise
    return received


def _run_checks(checks):
    """The reports of the callables ``checks``, in order and as the dicts a
    report writes, computed on L = min(len(checks), usable cores) lanes.

    Lane 0 is this process; each other lane is a forked child that writes
    the reports it finished into a pipe as JSON, which this module has
    imported anyway, and ends with ``os._exit``; every key of a report is a
    string, so the round trip changes no byte of it.  With one lane nothing is
    forked.  The CLI starts no thread, so it may fork.  Lanes take the
    checks in turn, forwards and then backwards (with 2 lanes: 0, 1, 1, 0,
    0), so a lane's share is fixed and only lane 0's work reaches a tracer
    installed in this process.

    Each lane stops at its first error, and a child that cannot write its
    reports, or ends before it does, reports none.  This process then runs,
    in order, every check that no lane reported.  A check is deterministic
    given its inputs, so the earliest failing check raises its own error
    here, and the call fails as one process running the checks in order
    fails, with the same exit code and stderr on any number of cores.  An
    interrupt in this process interrupts the call; every child is read to
    EOF and reaped, and killed first when this process raises or is
    interrupted.  A child whose parent is killed runs to the end of its
    share."""
    lanes = min(len(checks), _usable_cores())
    shares = [[] for _ in range(lanes)]
    for i in range(len(checks)):
        k = i % lanes
        shares[k if i // lanes % 2 == 0 else lanes - 1 - k].append(i)
    children, finished = [], False
    try:
        for share in shares[1:]:
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:  # a lane child: it never returns, and writes all or nothing
                try:
                    os.close(r)
                    with os.fdopen(w, "w", encoding="utf-8") as fh:
                        fh.write(json.dumps(_lane(checks, share), default=_plain))
                finally:
                    os._exit(0)
            os.close(w)
            children.append((pid, r))
        done = dict(zip(shares[0], _lane(checks, shares[0])))
        finished = True
    finally:
        received = _collect(children, stop=not finished)

    for share, text in zip(shares[1:], received):
        with suppress(ValueError):  # a missing or partial result
            done.update(zip(share, json.loads(text)))
    return [done[i] if i in done else asdict(checks[i]()) for i in range(len(checks))]


def _emit(command, meta, out, **body):
    """Write the report of ``command``, with the fields of ``body`` next to
    its ``meta``, to the file ``out`` or else to stdout.

    The one place a report becomes text: ``meta`` and ``body`` hold exact
    values, and :func:`_plain` writes each one ``json`` cannot (a forked
    lane's reports arrive already written by it, see ``_run_checks``)."""
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
    """Run verification suites; exit 0 iff every check passes.

    The checks run on up to one process per usable core, and the report,
    the exit code and stderr are the same bytes either way; only the checks
    of this process, lane 0, are visible to a tracer (see ``_run_checks``)."""
    rv = _parse_rvec(rvec)
    with _exit_codes():
        checks = []
        if suite in ("main", "all"):
            checks.append(lambda: verify_main(rv, order, seed, points, mode))
        if suite in ("signs", "all"):
            checks.append(lambda: run_sign_sweep(rv, min(order, 3), seed, points))
        if suite in ("framing", "all"):
            checks.append(lambda: check_framing_independence(rv, order, seed, framings))
        if suite in ("euler", "all"):
            r = rank if rank is not None else sum(rv)
            checks.append(lambda: check_euler_characteristics(r, order))
        if suite in ("kappa", "all"):
            checks.append(lambda: run_kappa_check(max(order, 6), seed, points))
        reports = _run_checks(checks)
        passed = all(r["passed"] for r in reports)
        meta = {
            "suite": suite,
            "rvec": list(rv),
            "order": order,
            "mode": mode,
            "seed": seed,
            "points": points,
            "framings": framings,
        }
        _emit("verify", meta, out, passed=passed, checks=reports)
    if not passed:
        sys.exit(EXIT_CHECK_FAILED)


if __name__ == "__main__":
    main()
