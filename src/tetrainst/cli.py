"""Command-line driver: compute series and run verification suites.

The checks hand this module exact values, and it alone writes them as text:
every report is deterministic UTF-8 JSON with a top-level "schema" key, in
which every rational number is a "num/den" string, never a float.

The checks of one ``verify`` call draw their own points and return their own
reports, so they run on up to one process per usable core (``_run_checks``).
A forked lane sends back only the reports it finished, and this process runs
every check that no lane reported, so the report, the exit code and stderr
are the same bytes on any number of cores.  An error, an interrupt or a
SIGTERM in this process kills and reaps every lane before the call ends.

Exit codes: 0 success, 1 a verification check failed, 2 invalid configuration,
3 the point sampler was exhausted, 4 an internal invariant was violated or
another unexpected error occurred, 130 interrupted.  Exit 4 writes the
error's traceback to stderr, and only that path imports ``traceback``.
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import contextmanager, suppress
from fractions import Fraction
from functools import partial

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
        import traceback  # a crash alone needs it, so not on the import path
        click.echo(traceback.format_exc(), err=True, nl=False)
        sys.exit(EXIT_INTERNAL)


def _usable_cores():
    """The number of cores this process may run on; 1 on a platform that
    cannot tell, so that no check lane is forked there."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def _lane(checks, share, parent=None):
    """The reports of the checks whose indices are ``share``, in order and as
    the dicts a report writes, up to the first that raises an ``Exception``
    or, given the pid ``parent``, starts once this process's parent is
    another.  An interrupt is not caught: it ends the lane at once."""
    reports = []
    with suppress(Exception):
        for i in share:
            if parent is not None and os.getppid() != parent:
                break
            reports.append(vars(checks[i]()))
    return reports


class _Terminated(BaseException):
    """SIGTERM while check lanes are forked (see ``_run_checks``)."""


def _terminate(signum, frame):
    raise _Terminated


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
    fails, with the same exit code and stderr on any number of cores.

    A pipe is read to EOF before its lane is reaped, as a result can exceed
    the pipe's buffer.  On any error or interrupt, the one ``except`` closes,
    kills and reaps every lane not yet reaped.  A SIGTERM that would end
    this process takes that path too, and then ends it by SIGTERM, as with
    one lane.  No handler runs on SIGKILL, so a lane whose parent is gone
    starts no further check, but the check it is running runs to its end."""
    lanes = min(len(checks), _usable_cores())
    shares = [[] for _ in range(lanes)]
    for i in range(len(checks)):
        k = i % lanes
        shares[k if i // lanes % 2 == 0 else lanes - 1 - k].append(i)
    if lanes > 1:
        import signal  # it takes a millisecond to import, so only when forking
        on_term = signal.getsignal(signal.SIGTERM)
        if on_term is signal.SIG_DFL:
            signal.signal(signal.SIGTERM, _terminate)
    children, reaped, pipe, parent = [], 0, (), os.getpid()
    try:
        for share in shares[1:]:
            r, w = pipe = os.pipe()
            pid = os.fork()
            if pid == 0:  # a lane child: it never returns, and writes all or nothing
                try:
                    os.close(r)
                    with os.fdopen(w, "w", encoding="utf-8") as fh:
                        fh.write(json.dumps(_lane(checks, share, parent), default=_plain))
                finally:
                    os._exit(0)
            children.append((pid, r))
            os.close(w)
            pipe = ()
        done = dict(zip(shares[0], _lane(checks, shares[0])))
        for share, (pid, r) in zip(shares[1:], children):
            with os.fdopen(r, encoding="utf-8") as fh, suppress(ValueError):  # a missing or partial result
                done.update(zip(share, json.load(fh)))
            os.waitpid(pid, 0)
            reaped += 1
        if lanes > 1:
            signal.signal(signal.SIGTERM, on_term)
    except BaseException as exc:
        for fd in (*pipe, *[r for _, r in children[reaped:]]):
            with suppress(OSError):  # a read end may be closed already
                os.close(fd)
        for pid, _ in children[reaped:]:
            with suppress(OSError):  # the lane may be reaped already
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        if lanes > 1:
            signal.signal(signal.SIGTERM, on_term)
            if isinstance(exc, _Terminated):
                signal.raise_signal(signal.SIGTERM)
        raise
    return [done[i] if i in done else vars(checks[i]()) for i in range(len(checks))]


def _emit(command, meta, out, **body):
    """Write the report of ``command``, with the fields of ``body`` next to
    its ``meta``, to the file ``out`` or else to stdout.

    The one place a report becomes text: ``meta`` and ``body`` hold exact
    values, a check's report as the shallow dict of its fields, and
    :func:`_plain` writes each one ``json`` cannot (a forked lane's reports
    arrive already written by it, see ``_run_checks``)."""
    doc = {"schema": SCHEMA, "version": __version__, "meta": {"command": command, **meta}, **body}
    text = json.dumps(doc, indent=2, sort_keys=True, default=_plain) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


# verify's suites, in --suite's and `all`'s order.  A row looks its check up
# as it runs, so a patched or traced check is the one that runs.
SUITES = {
    "main": lambda rv, o: verify_main(rv, o["order"], o["seed"], o["points"], o["mode"]),
    "signs": lambda rv, o: run_sign_sweep(rv, min(o["order"], 3), o["seed"], o["points"]),
    "framing": lambda rv, o: check_framing_independence(rv, o["order"], o["seed"], o["framings"]),
    "euler": lambda rv, o: check_euler_characteristics(sum(rv) if o["rank"] is None else o["rank"], o["order"]),
    "kappa": lambda rv, o: run_kappa_check(max(o["order"], 6), o["seed"], o["points"]),
}


@click.group()
@click.version_option(__version__)
def main():
    """Exact computation and verification of tetrahedron instanton series."""


@main.command()
@click.option("--rvec", required=True, help="rank vector, e.g. 0,0,0,1")
@click.option("--order", default=2, type=click.IntRange(0), help="q-order N")
@click.option("--mode", default="k", type=click.Choice(list(MODES)))
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
@click.option("--suite", default="all", type=click.Choice([*SUITES, "all"]))
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
def verify(suite, rvec, out, **opts):
    """Run verification suites; exit 0 iff every check passes.

    The checks run on up to one process per usable core, and the report,
    the exit code and stderr are the same bytes either way; only the checks
    of this process, lane 0, are visible to a tracer (see ``_run_checks``)."""
    rv = _parse_rvec(rvec)
    with _exit_codes():
        checks = [partial(row, rv, opts) for name, row in SUITES.items() if suite in (name, "all")]
        reports = _run_checks(checks)
        passed = all(r["passed"] for r in reports)
        meta = {
            "suite": suite,
            "rvec": list(rv),
            "order": opts["order"],
            "mode": opts["mode"],
            "seed": opts["seed"],
            "points": opts["points"],
            "framings": opts["framings"],
        }
        _emit("verify", meta, out, passed=passed, checks=reports)
    if not passed:
        sys.exit(EXIT_CHECK_FAILED)


if __name__ == "__main__":
    main()
