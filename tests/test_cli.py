import errno
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from contextlib import suppress
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import given, strategies as st

from tetrainst import cli, localization
from tetrainst.cli import main
from tetrainst.localization import CheckReport


def run_cli(args, env=None):
    return CliRunner().invoke(main, args, env=env or {})


def test_compute_rank1():
    result = run_cli(["compute", "--rvec", "0,0,0,1", "--order", "2", "--mode", "k", "--seed", "3"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["schema"] == "tetrainst-report/1"
    assert doc["series"]["localization"][0] == "1"
    assert doc["series"]["localization"] == doc["series"]["closed"]


def test_compute_vanishing():
    result = run_cli(["compute", "--rvec", "1,1,1,1", "--order", "3", "--seed", "5"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["series"]["localization"][1:] == ["0", "0", "0"]
    assert doc["series"]["closed"] == ["1", "0", "0", "0"]


def test_compute_deterministic():
    args = ["compute", "--rvec", "0,0,0,1", "--order", "1", "--seed", "11"]
    a = run_cli(args)
    b = run_cli(args)
    assert a.output == b.output


def test_compute_coh_mode():
    result = run_cli(["compute", "--rvec", "1,1,0,0", "--order", "2", "--mode", "coh", "--seed", "7"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["series"]["localization"] == doc["series"]["closed"]


def test_compute_elliptic_mode():
    result = run_cli([
        "compute", "--rvec", "0,0,0,1", "--order", "1", "--mode", "elliptic",
        "--p-order", "2", "--seed", "9",
    ])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    rows = doc["series"]["localization_rows"]
    assert [r[0] for r in rows] == doc["series"]["p0_slice"]
    assert doc["series"]["p0_slice"] == doc["series"]["closed"]


def test_compute_invalid_rvec():
    assert run_cli(["compute", "--rvec", "1,2"]).exit_code == 2
    assert run_cli(["compute", "--rvec", "a,b,c,d"]).exit_code == 2
    assert run_cli(["compute", "--rvec", "1,-1,0,0"]).exit_code == 2
    # int() would read "1_0" as rank 10
    assert run_cli(["compute", "--rvec", "1_0,0,0,0"]).exit_code == 2


# one smoke run per row of `cli.SUITES`: its argv and the name of its one check
SUITE_SMOKE = {
    "main": ("verify --suite main --rvec 1,1,0,0 --order 2 --points 2 --seed 1", "main-k"),
    "signs": ("verify --suite signs --rvec 0,0,0,1 --order 2 --points 2 --seed 1", "sign-rule"),
    "framing": ("verify --suite framing --rvec 0,0,0,2 --order 2 --framings 3 --seed 3", "framing-independence"),
    "euler": ("verify --suite euler --r 1 --order 6", "euler-characteristics"),
    "kappa": ("verify --suite kappa --order 6 --points 2 --seed 2", "kappa-identity"),
}


def test_every_suite_has_a_smoke_run():
    assert list(SUITE_SMOKE) == list(cli.SUITES)


@pytest.mark.parametrize("suite", SUITE_SMOKE)
def test_verify_suite(suite):
    argv, check = SUITE_SMOKE[suite]
    result = run_cli(argv.split())
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["passed"] is True
    assert [c["name"] for c in doc["checks"]] == [check]


# SHA-256 of `--help`, at a fixed width so that the host's COLUMNS cannot
# rewrap it: `--suite`'s and `compute --mode`'s choices are read from tables.
PINNED_HELP = {
    "": "06a9db94ef99bc9a1d145a8743a36e6365ab5179a8d5e1f22d8ac2617c0f1c84",
    "compute": "e3b565dcf27fe8359fd51a6d0a755f9e2ad007ac87aadd015276aadf4f6925d9",
    "verify": "c60ead38c754d422d34791a0656fa91d5e745280b7118942a9c7c0e8edf50a0d",
}


@pytest.mark.parametrize("command", PINNED_HELP, ids=lambda c: c or "tetrainst")
def test_help_text_pinned(command):
    argv = [command, "--help"] if command else ["--help"]
    result = CliRunner().invoke(main, argv, env={}, prog_name="tetrainst", terminal_width=80)
    assert result.exit_code == 0
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == PINNED_HELP[command]


def test_verify_writes_report(tmp_path):
    out = tmp_path / "report.json"
    result = run_cli(["verify", "--suite", "euler", "--r", "1", "--order", "4", "--out", str(out)])
    assert result.exit_code == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "tetrainst-report/1"


# SHA-256 of stdout for small runs: for a fixed seed the report must stay
# byte-identical, so a digest that changes means the report changed.
PINNED_REPORTS = [
    ("compute --rvec 0,0,0,1 --order 2 --mode k --seed 3", "9b428aa7850072f2d4b1d468c4a67586c003aa3cbdb89873f4654812dc8b3942"),
    ("compute --rvec 1,1,0,0 --order 2 --mode coh --seed 7", "fe7611d7ced6605eddbf3d559b22678a86692970fc5e2e24c33fab6c0077d055"),
    ("compute --rvec 0,0,0,1 --order 1 --mode elliptic --p-order 2 --seed 9", "e398b5a3adb220c3b85764cea5d623b1e52b68b14e10f9ac0d9e26bde3c145d8"),
    ("compute --rvec 1,0,0,1 --order 3 --mode elliptic --p-order 4 --seed 0", "c115c9731df1854aed5fb0eaa74df81fd8ab535b867983e11d04a2221d8bf418"),
    ("compute --rvec 2,0,1,0 --order 2 --mode elliptic --p-order 5 --seed 4", "1dd7ac7f751b962780a81bc8fba88b3d6ff9c3546d8682cc8964e7e0b487b9ff"),
    ("compute --rvec 0,0,0,3 --order 4 --mode elliptic --p-order 6 --seed 0", "f6e1ce2de920ede62c22514f9c23f37eab41faff0ac416eb9a8c2820254dc0b4"),
    ("verify --suite main --rvec 1,1,0,0 --order 2 --points 2 --seed 1", "2a36afd42271adc702eb338e8c391420b7355605c8c8b411905477defe026f13"),
    ("verify --suite main --rvec 1,1,0,0 --order 2 --points 2 --mode coh --seed 1", "9a5d770f466c7561b93cf444b86b472df1aaa1fcb9c341e6718f143e6202cc4c"),
    ("verify --suite signs --rvec 0,0,0,1 --order 2 --points 2 --seed 1", "43bd813d2e4dc5218d16630d973769ccea1c2efe7904ea74792dafef4e4fe8d0"),
    ("verify --suite signs --rvec 1,1,0,0 --order 2", "8f3b1356cf64be412faf8d1312596ce6c40862a415580f49168dbf8acb92d5ad"),
    ("verify --suite signs --rvec 2,0,0,1 --order 2", "88ba1573cc11ccfd69a266e5c559fdbede2b5be33a04d49aab978499eb8d5b65"),
    ("verify --suite euler --r 1 --order 2", "0e1a294853761859ed8a30ceb8e647989f14fc2cca811dfa0f704cf5758165d8"),
    ("verify --suite kappa --order 2 --points 2 --seed 2", "cbb8824bfaf610add22863aab144764fc47ca00a79229dc8e90331de5b3c61b8"),
    ("verify --suite framing --rvec 1,0,1,1 --order 3 --framings 4 --seed 2", "865e1b3236e28803c49ef5533175371b7e6ed1b1273987cf0197e51961c48991"),
    ("verify --suite all --rvec 1,1,0,0 --order 4 --points 5 --framings 3 --seed 0", "3a7e5dea1d377f71ffd24135ba9cfb47a77cafdcefc70ca46695175dfca34cdf"),
    ("compute --rvec 0,0,0,1 --order 8 --seed 0", "a09967915fef718eb5961aedff231f2bb3aefd360ac0f834430f7418bec2bbdf"),
    ("verify --suite euler --r 3 --order 6", "05a56b7f362f6eedbc09b41aaec7075bbb89f4299e4290115899e5a7418ff872"),
    ("compute --rvec 1,1,1,1 --order 4 --mode coh --seed 0", "1a63ffcfedbfe2ef16143e43bd60a71b10438054eaeaa391cd25fa46aa4decf8"),
    ("verify --suite signs --rvec 1,1,1,0 --order 3 --points 3 --seed 0", "77d22200ebcbb1180023b4ed0ec4f98c000520fdd2d3aae8d49496bfbc8965b6"),
    # a pole partway through the sum: the second point reuses a half-filled build cache
    ("compute --rvec 1,1,1,1 --order 4 --mode coh --seed 10", "6e2b0d2038b56948512e01e1d07f41820b5e02794992bca7e686e4c88daa04e1"),
    ("compute --rvec 1,0,0,0 --order 6 --seed 0", "407eb14251204834311ab1d5d4919a884cdf7149422a455739e623ecdabec3f1"),
    ("verify --suite all --rvec 0,0,0,2 --order 3 --mode coh --points 2 --seed 4", "09708775b9e8c2a100a3ede03fae16845da379f3fd79271ab4dd808c65aea372"),
]


@pytest.mark.parametrize("argv, digest", PINNED_REPORTS, ids=[a for a, _ in PINNED_REPORTS])
def test_report_bytes_pinned(argv, digest):
    result = run_cli(argv.split())
    assert result.exit_code == 0
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest


def test_the_module_entry_point_writes_the_pinned_report():
    # `python -m tetrainst.cli` runs cli.py's __main__ block, which the
    # CliRunner tests above never reach, to a normal exit
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = "verify --suite euler --r 1 --order 2"
    result = subprocess.run([sys.executable, "-m", "tetrainst.cli", *argv.split()], env=env,
                            capture_output=True, timeout=60)
    assert (result.returncode, result.stderr) == (0, b"")
    assert hashlib.sha256(result.stdout).hexdigest() == dict(PINNED_REPORTS)[argv]


def test_the_cli_imports_without_traceback_or_signal():
    # only a crash imports traceback (_exit_codes) and only forking lanes
    # imports signal (_run_checks), so a fresh interpreter's import of the
    # CLI, which every call pays, adds neither to what click loads itself
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import click; before = set(sys.modules); "
        "import tetrainst.cli; print(sorted({'traceback', 'signal'} & (set(sys.modules) - before)))"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    result = subprocess.run([sys.executable, "-I", "-c", code, src], capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout) == (0, "[]\n")


def test_unexpected_error_exits_internal(monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "check_euler_characteristics", crash)
    result = run_cli(["verify", "--suite", "euler", "--r", "1", "--order", "2"])
    assert result.exit_code == cli.EXIT_INTERNAL
    assert "RuntimeError: boom" in result.output


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "euler", "--r", "1", "--order", "1"],
    ["compute", "--rvec", "0,0,0,1", "--order", "1"],
])
def test_unwritable_out_exits_internal(tmp_path, argv):
    result = run_cli([*argv, "--out", str(tmp_path / "no" / "such" / "x.json")])
    assert result.exit_code == cli.EXIT_INTERNAL
    assert "FileNotFoundError" in result.output


@pytest.mark.parametrize("argv", [
    ["compute", "--rvec", "0,0,0,1", "--order", "1"],
    ["verify", "--suite", "main", "--rvec", "0,0,0,1", "--order", "1"],
])
def test_sampler_exhausted_exits_sampler(monkeypatch, argv):
    monkeypatch.setattr(localization, "SAMPLER_MAX_TRIES", 0)
    result = run_cli(argv)
    assert result.exit_code == cli.EXIT_SAMPLER
    assert result.stdout == ""
    assert result.stderr.startswith("error: no pole-free point in 0 tries")


@given(st.fractions())
def test_plain_writes_a_fraction_that_reads_back(x):
    assert Fraction(cli._plain(x)) == x


def test_plain_rejects_an_unknown_value(monkeypatch):
    with pytest.raises(TypeError):
        cli._plain(object())

    def odd(r, order):
        report = CheckReport("euler-characteristics", (r, 0, 0, 0), order)
        report.record(True, value=object())
        return report

    monkeypatch.setattr(cli, "check_euler_characteristics", odd)
    result = run_cli(["verify", "--suite", "euler", "--r", "1", "--order", "1"])
    assert result.exit_code == cli.EXIT_INTERNAL
    assert "TypeError" in result.output


def _fail_euler_check(monkeypatch):
    def failing(r, order):
        report = CheckReport("euler-characteristics", (r, 0, 0, 0), order)
        report.record(False)
        return report

    monkeypatch.setattr(cli, "check_euler_characteristics", failing)


def test_failed_check_exits_check_failed(monkeypatch):
    _fail_euler_check(monkeypatch)
    result = run_cli(["verify", "--suite", "euler", "--r", "1", "--order", "1"])
    assert result.exit_code == cli.EXIT_CHECK_FAILED
    assert json.loads(result.stdout)["passed"] is False


def test_unwritable_out_wins_over_a_failed_check(monkeypatch, tmp_path):
    # the report is written before the failed check sets the exit code
    _fail_euler_check(monkeypatch)
    out = tmp_path / "no" / "such" / "x.json"
    result = run_cli(["verify", "--suite", "euler", "--r", "1", "--order", "1", "--out", str(out)])
    assert result.exit_code == cli.EXIT_INTERNAL
    assert "FileNotFoundError" in result.output


# `verify --suite all` runs its five checks on min(5, usable cores) lanes:
# with two, lane 1 is a forked child running the signs and framing checks.
PINNED_ALL = [argv for argv, _ in PINNED_REPORTS if argv.startswith("verify --suite all")]


def _lanes(monkeypatch, n):
    monkeypatch.setattr(cli, "_usable_cores", lambda: n)


@pytest.fixture
def default_sigterm():
    # forked lanes replace only the default SIGTERM handler, and restore it
    old = signal.signal(signal.SIGTERM, signal.SIG_DFL)
    yield
    signal.signal(signal.SIGTERM, old)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("argv", [*PINNED_ALL, "verify"])
def test_lanes_write_the_same_bytes(monkeypatch, argv):
    outputs = set()
    for n in (1, 2):
        _lanes(monkeypatch, n)
        result = run_cli(argv.split())
        assert result.exit_code == 0
        outputs.add(result.stdout_bytes)
        _no_child_left()
    assert len(outputs) == 1


def test_suite_all_runs_every_row_once_in_order(monkeypatch):
    for n in (1, 2):
        _lanes(monkeypatch, n)
        result = run_cli(["verify", "--suite", "all"])
        assert result.exit_code == 0
        assert [c["name"] for c in json.loads(result.output)["checks"]] == [check for _, check in SUITE_SMOKE.values()]
        _no_child_left()


@pytest.mark.parametrize("n, shares", [
    (1, [{0, 1, 2, 3, 4}]),
    (2, [{0, 3, 4}, {1, 2}]),
    (3, [{0}, {1, 4}, {2, 3}]),
])
def test_lanes_take_checks_forwards_then_backwards(monkeypatch, default_sigterm, n, shares):
    _lanes(monkeypatch, n)
    reports = cli._run_checks([lambda: CheckReport(str(os.getpid()))] * 5)
    lanes = {}
    for i, report in enumerate(reports):
        lanes.setdefault(int(report["name"]), set()).add(i)
    assert lanes[os.getpid()] == shares[0]
    assert sorted(lanes.values(), key=min) == shares
    assert signal.getsignal(signal.SIGTERM) is signal.SIG_DFL
    _no_child_left()


def test_error_in_a_forked_lane_exits_internal(monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("boom")

    _lanes(monkeypatch, 2)
    monkeypatch.setattr(cli, "run_sign_sweep", crash)
    result = run_cli(["verify", "--suite", "all"])
    assert result.exit_code == cli.EXIT_INTERNAL
    assert result.stdout == ""
    assert "RuntimeError: boom" in result.stderr
    assert "in crash" in result.stderr  # the lane's own traceback
    _no_child_left()


def _unwritable_framing(monkeypatch):
    def odd(rvec, order, seed, num_framings):
        report = CheckReport("framing-independence", tuple(rvec), order, seed)
        report.record(True, value=object())
        return report

    monkeypatch.setattr(cli, "check_framing_independence", odd)


@pytest.mark.parametrize("n", [1, 2])
def test_unwritable_value_in_a_lane_exits_internal(monkeypatch, n):
    _lanes(monkeypatch, n)
    _unwritable_framing(monkeypatch)
    result = run_cli(["verify", "--suite", "all"])
    assert result.exit_code == cli.EXIT_INTERNAL
    assert result.stdout == ""
    assert "TypeError: cannot write a object in a report" in result.stderr
    _no_child_left()


@pytest.mark.parametrize("n", [1, 2])
def test_later_sampler_error_wins_over_an_unwritable_value(monkeypatch, n):
    # one process meets the unwritable framing value (check 2) only when it
    # writes the report, after kappa (check 4) has exhausted the sampler
    def exhausted(*args, **kwargs):
        raise localization.SamplerExhaustedError("no pole-free point")

    _lanes(monkeypatch, n)
    _unwritable_framing(monkeypatch)
    monkeypatch.setattr(cli, "run_kappa_check", exhausted)
    result = run_cli(["verify", "--suite", "all"])
    assert result.exit_code == cli.EXIT_SAMPLER
    assert result.stderr == "error: no pole-free point\n"
    _no_child_left()


def test_lane_with_no_result_is_run_here(monkeypatch):
    # the forked lane dies in the signs check; this process runs its share
    pid, sweep = os.getpid(), cli.run_sign_sweep

    def die_in_a_lane(*args, **kwargs):
        if os.getpid() != pid:
            os._exit(9)
        return sweep(*args, **kwargs)

    _lanes(monkeypatch, 1)
    want = run_cli(["verify", "--suite", "all"]).stdout_bytes
    _lanes(monkeypatch, 2)
    monkeypatch.setattr(cli, "run_sign_sweep", die_in_a_lane)
    result = run_cli(["verify", "--suite", "all"])
    assert result.exit_code == 0
    assert result.stdout_bytes == want
    _no_child_left()


@pytest.mark.parametrize("n", [1, 2])
def test_sampler_exhausted_on_lanes_exits_sampler(monkeypatch, n):
    _lanes(monkeypatch, n)
    monkeypatch.setattr(localization, "SAMPLER_MAX_TRIES", 0)
    result = run_cli(["verify", "--suite", "all"])
    assert result.exit_code == cli.EXIT_SAMPLER
    assert result.stdout == ""
    assert result.stderr.startswith("error: no pole-free point in 0 tries")
    _no_child_left()


def test_sampler_exhausted_in_a_forked_lane_exits_sampler(monkeypatch):
    # lane 0's first check passes, so the signs check of lane 1 is the first
    # to exhaust the sampler
    def passing(rvec, order, seed, num_points, mode):
        return CheckReport(f"main-{mode}", tuple(rvec), order, seed)

    _lanes(monkeypatch, 2)
    monkeypatch.setattr(cli, "verify_main", passing)
    monkeypatch.setattr(localization, "SAMPLER_MAX_TRIES", 0)
    result = run_cli(["verify", "--suite", "all"])
    assert result.exit_code == cli.EXIT_SAMPLER
    assert result.stdout == ""
    assert result.stderr == "error: no pole-free point in 0 tries (seed 0)\n"
    _no_child_left()


def test_earliest_error_wins_across_lanes(monkeypatch):
    # lane 0 fails at euler (check 3), lane 1 at framing (check 2): one
    # process running the checks in order would stop at framing
    def crash(name):
        def run(*args, **kwargs):
            raise RuntimeError(name)
        return run

    _lanes(monkeypatch, 2)
    monkeypatch.setattr(cli, "check_euler_characteristics", crash("euler"))
    monkeypatch.setattr(cli, "check_framing_independence", crash("framing"))
    result = run_cli(["verify", "--suite", "all"])
    assert result.exit_code == cli.EXIT_INTERNAL
    assert "RuntimeError: framing" in result.stderr
    assert "RuntimeError: euler" not in result.stderr
    _no_child_left()


def test_failed_check_in_a_forked_lane_exits_check_failed(monkeypatch):
    def failing(rvec, order, seed, num_framings):
        report = CheckReport("framing-independence", tuple(rvec), order, seed)
        report.record(False)
        return report

    _lanes(monkeypatch, 2)
    monkeypatch.setattr(cli, "check_framing_independence", failing)
    result = run_cli(["verify", "--suite", "all"])
    assert result.exit_code == cli.EXIT_CHECK_FAILED
    doc = json.loads(result.stdout)
    assert doc["passed"] is False
    assert [c["passed"] for c in doc["checks"]] == [True, True, False, True, True]
    _no_child_left()


def _interrupt(*args, **kwargs):
    raise KeyboardInterrupt


def _sleep(*args, **kwargs):
    time.sleep(60)


@pytest.mark.parametrize("n", [1, 2])
def test_interrupt_in_lane_0_aborts_at_once(monkeypatch, n):
    # with two lanes the forked lane would sleep for a minute if not killed
    _lanes(monkeypatch, n)
    monkeypatch.setattr(cli, "verify_main", _interrupt)
    monkeypatch.setattr(cli, "run_sign_sweep", _sleep)
    start = time.monotonic()
    result = run_cli(["verify", "--suite", "all"])
    assert time.monotonic() - start < 30
    assert result.exit_code == cli.EXIT_INTERRUPTED
    assert result.output.strip() == "Aborted!"
    _no_child_left()


@pytest.mark.parametrize("n", [1, 2])
def test_interrupt_in_a_forked_lane_aborts(monkeypatch, n):
    _lanes(monkeypatch, n)
    monkeypatch.setattr(cli, "run_sign_sweep", _interrupt)
    result = run_cli(["verify", "--suite", "all"])
    assert result.exit_code == cli.EXIT_INTERRUPTED
    assert result.output.strip() == "Aborted!"
    _no_child_left()


def test_interrupt_while_waiting_for_a_lane_kills_it(monkeypatch):
    # lane 0 ends by arming a timer that interrupts this process while it
    # waits for lane 1, which sleeps
    def interrupt_soon(*args, **kwargs):
        signal.signal(signal.SIGALRM, _interrupt)
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        return CheckReport("kappa")

    _lanes(monkeypatch, 2)
    monkeypatch.setattr(cli, "run_sign_sweep", _sleep)
    monkeypatch.setattr(cli, "run_kappa_check", interrupt_soon)
    old = signal.getsignal(signal.SIGALRM)
    start = time.monotonic()
    try:
        result = run_cli(["verify", "--suite", "all"])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert time.monotonic() - start < 30
    assert result.exit_code == cli.EXIT_INTERRUPTED
    assert result.output.strip() == "Aborted!"
    _no_child_left()


def test_interrupt_while_reaping_a_lane_reaps_it(monkeypatch, default_sigterm):
    # the lane's pipe is read, and the interrupt lands as it is reaped
    real_waitpid, interrupted = os.waitpid, []

    def waitpid(pid, options):
        if pid > 0 and not interrupted:
            interrupted.append(pid)
            raise KeyboardInterrupt
        return real_waitpid(pid, options)

    _lanes(monkeypatch, 2)
    monkeypatch.setattr(os, "waitpid", waitpid)
    result = run_cli(["verify", "--suite", "all"])
    assert interrupted
    assert result.exit_code == cli.EXIT_INTERRUPTED
    assert result.output.strip() == "Aborted!"
    assert signal.getsignal(signal.SIGTERM) is signal.SIG_DFL
    _no_child_left()


def test_failed_fork_closes_its_pipe(monkeypatch, default_sigterm):
    # the second of three lanes cannot be forked: the first is killed and
    # reaped, and no pipe is left open
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("needs /proc/self/fd")
    real_fork, forks = os.fork, []

    def fork():
        forks.append(None)
        if len(forks) == 2:
            raise BlockingIOError(errno.EAGAIN, "fork failed")
        return real_fork()

    _lanes(monkeypatch, 3)
    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(cli, "run_sign_sweep", _sleep)
    fds = sorted(os.listdir("/proc/self/fd"))
    start = time.monotonic()
    result = run_cli(["verify", "--suite", "all"])
    assert time.monotonic() - start < 30
    assert result.exit_code == cli.EXIT_INTERNAL
    assert "BlockingIOError" in result.stderr
    assert sorted(os.listdir("/proc/self/fd")) == fds
    assert signal.getsignal(signal.SIGTERM) is signal.SIG_DFL
    _no_child_left()


def test_ignored_sigterm_stays_ignored(monkeypatch):
    # lane 0's last check sends this process a SIGTERM that its caller
    # ignores: the call goes on, as it does with one lane
    def terminate_self(*args, **kwargs):
        os.kill(os.getpid(), signal.SIGTERM)
        return CheckReport("kappa")

    monkeypatch.setattr(cli, "run_kappa_check", terminate_self)
    old = signal.signal(signal.SIGTERM, signal.SIG_IGN)
    try:
        for n in (1, 2):
            _lanes(monkeypatch, n)
            assert run_cli(["verify", "--suite", "all"]).exit_code == 0
            assert signal.getsignal(signal.SIGTERM) is signal.SIG_IGN
            _no_child_left()
    finally:
        signal.signal(signal.SIGTERM, old)


def _raise(error, message):
    # a new exception on each call, as a check raises it
    def run(*args, **kwargs):
        raise error(message)
    return run


@pytest.mark.parametrize("case", [
    {"run_sign_sweep": _raise(RuntimeError, "boom")},
    {"run_sign_sweep": _raise(localization.SamplerExhaustedError, "no pole-free point")},
    {"framing": "unwritable"},
    {"check_euler_characteristics": _raise(RuntimeError, "euler"),
     "check_framing_independence": _raise(RuntimeError, "framing")},
    {"run_kappa_check": _raise(localization.SamplerExhaustedError, "no pole-free point"),
     "framing": "unwritable"},
], ids=["error-in-signs", "sampler-in-signs", "unwritable-framing", "euler-and-framing",
        "sampler-in-kappa-and-unwritable-framing"])
def test_lanes_fail_with_the_same_stderr(monkeypatch, case):
    for name, run in case.items():
        if name == "framing":
            _unwritable_framing(monkeypatch)
        else:
            monkeypatch.setattr(cli, name, run)
    results = []
    for n in (1, 2):
        _lanes(monkeypatch, n)
        result = run_cli(["verify", "--suite", "all"])
        results.append((result.exit_code, result.stdout_bytes, result.stderr_bytes))
        _no_child_left()
    assert results[0][0] != 0
    assert results[0] == results[1]


def _signalled_verify(command, send):
    """Exit code, stdout and stderr of a few-second `verify --suite all`, run
    as ``python <command> <argv>`` in a new session and sent a signal by
    ``send(pid)`` 0.8 s in, once it has ended with no process of the session
    left."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    # about 2.6 s on two cores of a 2-vCPU Xeon host (Python 3.11), so that the
    # signal lands while the lanes run; at order 6 the call could end first
    argv = ["verify", "--suite", "all", "--rvec", "1,1,1,0", "--order", "7", "--points", "2"]
    proc = subprocess.Popen([sys.executable, *command, *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True)
    try:
        time.sleep(0.8)
        send(proc.pid)
        out, err = proc.communicate(timeout=60)
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
        return proc.returncode, out, err
    finally:
        with suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()


def test_sigint_aborts_every_lane():
    # SIGINT to the whole process group, as Ctrl-C in a terminal sends it
    result = _signalled_verify(["-m", "tetrainst.cli"], lambda pid: os.killpg(pid, signal.SIGINT))
    assert result == (cli.EXIT_INTERRUPTED, b"", b"Aborted!\n")


def test_sigterm_ends_every_lane():
    # SIGTERM to the parent alone, as `kill` sends it, with two lanes on any
    # host; the parent ends by it, as it does with one lane
    two_lanes = "import sys; from tetrainst import cli; cli._usable_cores = lambda: 2; cli.main(sys.argv[1:])"
    result = _signalled_verify(["-c", two_lanes], lambda pid: os.kill(pid, signal.SIGTERM))
    assert result == (-signal.SIGTERM, b"", b"")


def test_a_lane_whose_parent_is_killed_starts_no_further_check(tmp_path):
    # with two lanes, lane 1 runs the signs check and then the framing check;
    # its first check SIGKILLs the parent and waits to be reparented, so the
    # framing check, which would leave a file behind, must never start
    marker = tmp_path / "framing-ran"
    script = (
        "import os, sys, time\n"
        "from tetrainst import cli\n"
        "cli._usable_cores = lambda: 2\n"
        "sweep = cli.run_sign_sweep\n"
        "def orphaning_sweep(*args):\n"
        "    parent = os.getppid()\n"
        "    os.kill(parent, 9)\n"
        "    while os.getppid() == parent:\n"
        "        time.sleep(0.01)\n"
        "    return sweep(*args)\n"
        "def framing(*args):\n"
        "    open(sys.argv[1], 'w').close()\n"
        "cli.run_sign_sweep = orphaning_sweep\n"
        "cli.check_framing_independence = framing\n"
        "cli.main(['verify', '--suite', 'all'])\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen([sys.executable, "-c", script, str(marker)], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True)
    try:
        # the lane holds the parent's stdout and stderr, so they reach EOF
        # only once the lane has ended too
        out, err = proc.communicate(timeout=60)
    finally:
        with suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    assert (proc.returncode, out, err) == (-signal.SIGKILL, b"", b"")
    assert not marker.exists()
