#!/usr/bin/env python3
"""Benchmark of the tetrainst command line, one op per CLI call.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-all --seed 0 --seconds 40 --trace 0

One op is one in-process call of the ``tetrainst.cli`` entry point with the
workload's argument list plus ``--seed base_seed + i``.  Each op runs in a
child forked from this process, so no cache carries from one op to the next,
just as between separate CLI calls.  Ops run in a closed loop: one client,
one op at a time, until ``--seconds`` have passed.

The host's speed drifts by tens of percent over minutes, so with ``--trace 0``
each op is paired with the same op (same argv and seed) run by
``reference/tetrainst_ref``, a frozen copy of the package as it was when the
benchmark was defined; the two run back to back, in alternating order.  The
time metrics are ratios of the pair, in which the drift cancels.  With
``--trace 1`` ops alternate between untraced and traced (same seed) and the
last line holds the per-layer metrics of the traced ops.

Every op must pass the correctness gate (see ``check_report``).  The last
stdout line is the JSON result; one line per op, with its stdout SHA-256
(informational only), goes to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import marshal
import os
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference"
SPEC = json.loads((HERE / "workloads.json").read_text())
OUT = HERE.parent / ".perfbench"  # span dumps of traced runs
SETUP_REPEATS = 11
EXIT_CRASH = 70  # the child raised something other than SystemExit

_IMPORT_TIMER = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import tetrainst.cli\n"
    "print(time.perf_counter() - t)\n"
)


def measure_setup():
    """Median seconds to import tetrainst.cli in a fresh interpreter.

    One import runs first and is discarded, so that compiling the bytecode
    cache is not counted; a user pays that once per checkout, not per call.
    """
    cmd = [sys.executable, "-I", "-c", _IMPORT_TIMER, str(SRC)]
    times = []
    for _ in range(SETUP_REPEATS + 1):
        out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=60)
        times.append(float(out.stdout))
    return statistics.median(times[1:])


def _read_all(fd):
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    os.close(fd)
    return b"".join(chunks)


def run_op(cli, argv, traced):
    """Fork a child that runs ``tetrainst <argv>``; return its outcome.

    Returns ``(wall_s, exit_code, stdout_bytes, maxrss_kb, trace_record)``;
    ``trace_record`` is None for an untraced op.
    """
    out_r, out_w = os.pipe()
    rec_r, rec_w = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    start = perf_counter()
    pid = os.fork()
    if pid == 0:  # child: never returns
        code = EXIT_CRASH
        try:
            os.close(out_r)
            os.close(rec_r)
            os.dup2(out_w, 1)
            os.close(out_w)
            # a fresh stream on fd 1, as a CLI process has (pytest swaps sys.stdout)
            sys.stdout = os.fdopen(1, "w", encoding="utf-8")
            entry = cli.main.main
            tracer = None
            if traced:
                tracer = tracing.Tracer()
                tracer.install()
                entry = tracer.span(tracing.ROOT_SPAN, entry)
            try:
                entry(args=argv, prog_name="tetrainst", standalone_mode=True)
                status = 0
            except SystemExit as exc:
                status = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
            sys.stdout.close()
            if tracer is not None:
                with os.fdopen(rec_w, "wb") as fh:
                    fh.write(marshal.dumps(tracer.record()))
            code = status
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    os.close(out_w)
    os.close(rec_w)
    stdout = _read_all(out_r)
    record = _read_all(rec_r)
    _, status, usage = os.wait4(pid, 0)
    wall = perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    # a child that failed while writing its record exits EXIT_CRASH
    record = marshal.loads(record) if record and code == 0 else None
    return wall, code, stdout, usage.ru_maxrss, record


def check_report(argv, code, stdout):
    """Correctness gate of one op; returns ``(doc, None)`` or ``(None, reason)``.

    The exit code must be 0.  A verify report must have every check passed.
    A compute report must have its localization series equal the closed
    form string for string (and the factorized form in k mode); in elliptic
    mode the p^0 slice of the localization series must equal the closed form.
    """
    if code != 0:
        return None, f"exit code {code}"
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return None, f"stdout is not JSON: {exc}"
    if argv[0] == "verify":
        failed = [c["name"] for c in doc["checks"] if not c["passed"]]
        if failed or not doc["checks"] or not doc["passed"]:
            return None, f"failed checks {failed}"
        return doc, None
    series = doc["series"]
    mode = doc["meta"]["mode"]
    pairs = {"k": ("localization", "factorized"), "coh": ("localization",), "elliptic": ("p0_slice",)}[mode]
    if not series["closed"]:
        return None, "empty closed series"
    for key in pairs:
        if series[key] != series["closed"]:
            return None, f"{key} differs from closed"
    return doc, None


class Run:
    """The ops of one benchmark run, in the order they ran."""

    def __init__(self, cli, argv, base_seed):
        self.cli = cli
        self.argv = argv
        self.base_seed = base_seed
        self.attempted = 0
        self.failed = 0
        self.walls = []  # untraced tetrainst ops that passed
        self.pairs = []  # (tetrainst, reference) wall seconds of pairs that both passed
        self.traced = []  # (op_id, wall_s, record, doc) of traced ops that passed
        self.maxrss_kb = 0  # of tetrainst ops

    def op(self, cli, index, traced=False):
        """Run op ``index`` with ``cli``; return its wall seconds, or None if it failed."""
        seed = self.base_seed + index
        argv = [*self.argv, "--seed", str(seed)]
        self.attempted += 1
        try:
            wall, code, stdout, maxrss, record = run_op(cli, argv, traced)
            doc, reason = check_report(argv, code, stdout)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            wall, stdout, maxrss, doc, reason = 0.0, b"", 0, None, repr(exc)
        if cli is self.cli:
            self.maxrss_kb = max(self.maxrss_kb, maxrss)
        digest = hashlib.sha256(stdout).hexdigest()
        status = "ok" if reason is None else f"FAILED ({reason})"
        print(f"op {index} seed {seed} {cli.__package__} traced {int(traced)} wall {wall:.4f}s "
              f"sha256 {digest} {status}", file=sys.stderr, flush=True)
        if reason is not None:
            self.failed += 1
            return None
        if traced:
            self.traced.append((index, wall, record, doc))
        elif cli is self.cli:
            self.walls.append(wall)
        return wall

    def pair(self, ref_cli, index):
        """Op ``index`` with tetrainst and with the reference, alternating which goes first."""
        order = (self.cli, ref_cli) if index % 2 == 0 else (ref_cli, self.cli)
        walls = {cli: self.op(cli, index) for cli in order}
        if None not in walls.values():
            self.pairs.append((walls[self.cli], walls[ref_cli]))


def end_to_end(run, setup_s):
    out = {
        "ok_ratio": (run.attempted - run.failed) / run.attempted,
        "peak_rss_mb": run.maxrss_kb / 1024,
        "setup_s": setup_s,
    }
    if run.pairs:
        out["op_ratio.p50"] = statistics.median(w / r for w, r in run.pairs)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, required=True, help="base seed; op i uses seed + i")
    parser.add_argument("--seconds", type=float, required=True, help="how long to keep starting ops")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tetrainst" / "cli.py").is_file():
        sys.exit(f"no tetrainst sources under {SRC}")
    sys.path[:0] = [str(SRC), str(REFERENCE)]
    import tetrainst.cli as cli
    import tetrainst_ref.cli as ref_cli

    run = Run(cli, SPEC["workloads"][args.workload]["argv"], args.seed)
    # Start another step only while it is expected to end within --seconds
    # (always at least one), so that runs stay within their time budget.
    start = perf_counter()
    steps = []
    while not steps or perf_counter() - start + statistics.median(steps) <= args.seconds:
        step_start = perf_counter()
        if args.trace:
            run.op(cli, len(steps))
            run.op(cli, len(steps), traced=True)
        else:
            run.pair(ref_cli, len(steps))
        steps.append(perf_counter() - step_start)

    ok = run.failed == 0
    if args.trace:
        units = tracing.metric_units()
        values = {}
        if run.traced and run.walls:
            values = tracing.layer_metrics(run.traced, statistics.median(run.walls))
        tracing.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.json", run.traced)
    else:
        units = {name: spec["unit"] for name, spec in SPEC["end_to_end"].items()}
        values = end_to_end(run, measure_setup())
        if run.pairs:
            print("median op seconds: tetrainst %.4f, reference %.4f" % (
                statistics.median(w for w, _r in run.pairs),
                statistics.median(r for _w, r in run.pairs)), file=sys.stderr)
    result = {
        "correct": ok,
        "attempted": run.attempted,
        "failed": run.failed,
        # a metric with no passed op to measure reads 0, and correct is false
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
