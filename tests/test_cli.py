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


def test_verify_main_suite():
    result = run_cli(["verify", "--suite", "main", "--rvec", "1,1,0,0", "--order", "2", "--points", "2", "--seed", "1"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["passed"] is True
    assert doc["checks"][0]["name"] == "main-k"


def test_verify_signs_suite():
    result = run_cli(["verify", "--suite", "signs", "--rvec", "0,0,0,1", "--order", "2", "--points", "2", "--seed", "1"])
    assert result.exit_code == 0
    assert json.loads(result.output)["passed"] is True


def test_verify_euler_suite():
    result = run_cli(["verify", "--suite", "euler", "--r", "1", "--order", "6"])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["passed"] is True


def test_verify_kappa_suite():
    result = run_cli(["verify", "--suite", "kappa", "--order", "6", "--points", "2", "--seed", "2"])
    assert result.exit_code == 0


def test_verify_framing_suite():
    result = run_cli(["verify", "--suite", "framing", "--rvec", "0,0,0,2", "--order", "2", "--framings", "3", "--seed", "3"])
    assert result.exit_code == 0


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


@pytest.mark.parametrize("n, shares", [
    (1, [{0, 1, 2, 3, 4}]),
    (2, [{0, 3, 4}, {1, 2}]),
    (3, [{0}, {1, 4}, {2, 3}]),
])
def test_lanes_take_checks_forwards_then_backwards(monkeypatch, n, shares):
    _lanes(monkeypatch, n)
    reports = cli._run_checks([lambda: CheckReport(str(os.getpid()))] * 5)
    lanes = {}
    for i, report in enumerate(reports):
        lanes.setdefault(int(report["name"]), set()).add(i)
    assert lanes[os.getpid()] == shares[0]
    assert sorted(lanes.values(), key=min) == shares
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


def test_sigint_aborts_every_lane():
    # SIGINT to the whole process group, as Ctrl-C in a terminal sends it
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["verify", "--suite", "all", "--rvec", "1,1,1,0", "--order", "6", "--points", "2"]
    proc = subprocess.Popen([sys.executable, "-m", "tetrainst.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True)
    try:
        time.sleep(0.8)
        os.killpg(proc.pid, signal.SIGINT)
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == cli.EXIT_INTERRUPTED
        assert out == b""
        assert err == b"Aborted!\n"
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
    finally:
        with suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
