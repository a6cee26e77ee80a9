"""End-to-end command-line behavior: output text, exit codes, determinism."""

import pytest

from icl.cli import main
from icl.instance import UserSpec, builtin_instance, format_instance
from icl.schemes import LinearScheme, builtin_scheme, format_scheme


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_builtin(capsys):
    code, out, _ = run_cli(capsys, "validate", "--instance", "example1")
    assert code == 0
    assert "instance: builtin example1" in out
    assert "ok: 6 messages, 6 users, 1 channel bits" in out


def test_validate_file_roundtrip(tmp_path, capsys):
    path = tmp_path / "mine.ic"
    path.write_text(format_instance(builtin_instance("example1")))
    code, out, _ = run_cli(capsys, "validate", "--instance", str(path))
    assert code == 0
    assert f"instance: {path}" in out


def test_validate_reports_problems(tmp_path, capsys):
    inst = builtin_instance("xor2")
    overlapping = UserSpec.of({1}, {1, 2})
    bad = type(inst)(inst.num_messages, (overlapping, inst.users[1]), inst.channel_bits)
    path = tmp_path / "bad.ic"
    path.write_text(format_instance(bad))
    code, out, _ = run_cli(capsys, "validate", "--instance", str(path))
    assert code == 1
    assert "problem:" in out


def test_unknown_instance_name(capsys):
    code, _, err = run_cli(capsys, "validate", "--instance", "nonesuch")
    assert code == 1
    assert "no builtin instance" in err


def test_composite_rate_pure(capsys):
    code, out, _ = run_cli(capsys, "composite-rate", "--instance", "xor2", "--pure")
    assert code == 0
    assert "rate 1/1 (1.000000)  [per channel bit]" in out
    assert "choice:" in out


def test_composite_rate_time_shared(capsys):
    code, out, _ = run_cli(capsys, "composite-rate", "--instance", "xor2")
    assert code == 0
    assert "rate 1/1 (1.000000)  [per channel bit, time-shared]" in out
    assert "converged True" in out


def test_composite_rate_weighted(capsys):
    code, out, _ = run_cli(
        capsys, "composite-rate", "--instance", "no-side-info(2)", "--weights", "2,1"
    )
    assert code == 0
    assert "weighted value 2/1 (2.000000)  [bits]" in out
    assert "R_1 = 1/1 (1.000000)" in out
    assert "R_2 = 0/1 (0.000000)" in out


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ("--instance", "no-side-info(3)"),
            "rate 1/3 (0.333333)  [per channel bit, time-shared]\n"
            "upper bound 1/3 (0.333333)  converged True  rounds 0  mixture size 1\n",
        ),
        (
            ("--instance", "example1", "--cap", "1"),
            "rate 2/7 (0.285714)  [per channel bit, time-shared]\n"
            "upper bound 2/7 (0.285714)  converged True  rounds 2  mixture size 3\n",
        ),
        (
            ("--instance", "no-side-info(3)", "--pure"),
            "rate 1/3 (0.333333)  [per channel bit]\n"
            "choice: {1}, {1,2}, {1,2,3}\n",
        ),
        (
            ("--instance", "example1", "--cap", "1", "--pure"),
            "rate 4/15 (0.266667)  [per channel bit]\n"
            "choice: {1}, {2}, {1,3}, {4,5}, {2,5}, {6}\n",
        ),
        (
            ("--instance", "example1", "--pure"),
            "rate 3/11 (0.272727)  [per channel bit]\n"
            "choice: {1}, {2}, {1,3}, {1,4}, {2,3,5}, {6}\n",
        ),
    ],
    ids=["hull", "example1-cap1", "pure", "example1-cap1-pure", "example1-pure"],
)
def test_composite_rate_stdout_is_pinned(capsys, argv, expected):
    code, out, _ = run_cli(capsys, "composite-rate", *argv)
    assert code == 0
    assert out == f"instance: builtin {argv[1]}\n" + expected


@pytest.mark.parametrize("command", ["synthesize", "reduce"])
def test_oversized_delivery_is_one_error_line(capsys, monkeypatch, command):
    import icl.caching

    def refuse(*args):
        raise AssertionError("the layout was allocated before the size check")

    monkeypatch.setattr(icl.caching, "cman_place", refuse)
    demands = ",".join(["1", "2"] * 15)
    code, out, err = run_cli(capsys, "cache", command, "--K", "30", "--N", "2", "--t", "15", "--demands", demands)
    assert code == 1 and out == ""
    assert err == "error: K=30, t=15: N*binom(K,t) = 310235040 subfiles exceed the budget of 65536\n"


def test_oversized_simulation_is_one_error_line(capsys, monkeypatch):
    import icl.cli
    from math import comb

    from icl.caching import FileLibrary

    # Zero files stand in for the 310 Mbit seeded library; cman_place must
    # refuse before it builds a subfile.
    monkeypatch.setattr(icl.cli, "random_library", lambda N, B, seed: FileLibrary((0,) * N, B))
    demands = ",".join(["1", "2"] * 15)
    argv = ("--K", "30", "--N", "2", "--t", "15", "--B", str(comb(30, 15)), "--demands", demands)
    code, out, err = run_cli(capsys, "cache", "sim", *argv)
    assert code == 1 and out == ""
    assert err == "error: K=30, t=15: N*binom(K,t) = 310235040 subfiles exceed the budget of 65536\n"


def test_validate_a_huge_declared_message_count(tmp_path, capsys):
    path = tmp_path / "huge.ic"
    path.write_text("messages 1000000000000\nuser 1 demands 1 knows 2\nuser 2 demands 2 knows\n")
    code, out, _ = run_cli(capsys, "validate", "--instance", str(path))
    assert code == 1
    assert out == (
        f"instance: {path}\n"
        "problem: messages referenced by no user: [3, 4, 5, 6, 7, 8, 9, 10, 11, 12] and 999999999988 more\n"
    )


def test_composite_rate_weight_count_mismatch(capsys):
    code, _, err = run_cli(
        capsys, "composite-rate", "--instance", "xor2", "--weights", "1,2,3"
    )
    assert code == 1
    assert "expected 2 weights" in err


def test_composite_rate_negative_cap(capsys):
    code, _, err = run_cli(capsys, "composite-rate", "--instance", "xor2", "--cap", "-1")
    assert code == 1
    assert err.startswith("error:") and "per_user_cap must be >= 0" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("composite-rate", "--instance", "example1", "--cap", "1", "--threads", "-4"),
        ("composite-rate", "--instance", "xor2", "--pure", "--threads", "0"),
        ("composite-rate", "--instance", "xor2", "--weights", "1,1", "--threads", "0"),
        ("sandwich", "--instance", "xor2", "--threads", "-4"),
    ],
    ids=["hull", "pure", "weighted", "sandwich"],
)
def test_threads_below_one_refused(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"error: --threads must be >= 1, got {argv[-1]}\n"


def test_weighted_rate_takes_threads(capsys, monkeypatch):
    import icl.cli

    seen = []
    real = icl.cli.max_weighted_rate

    def spy(*args):
        seen.append(args[-1])
        return real(*args)

    monkeypatch.setattr(icl.cli, "max_weighted_rate", spy)
    argv = ("composite-rate", "--instance", "example1", "--cap", "1", "--weights", "3,1,1,2,1,1")
    serial = run_cli(capsys, *argv)
    forked = run_cli(capsys, *argv, "--threads", "2")
    assert seen == [1, 2]
    assert forked == serial and serial[0] == 0


def test_linear_check_pass(capsys):
    code, out, _ = run_cli(
        capsys, "linear-check", "--instance", "example1", "--scheme", "example2"
    )
    assert code == 0
    assert "scheme: builtin example2" in out
    assert "symmetric rate 1/3 (0.333333)  [per channel bit]" in out
    assert out.rstrip().endswith("PASS")
    assert out.count("joint-decoding checks: ok") == 6


def test_linear_check_fail_truncated(tmp_path, capsys):
    s = builtin_scheme("example2")
    truncated = LinearScheme(s.msg_bits, s.channel_bits, s.composites[:2])
    path = tmp_path / "trunc.sch"
    path.write_text(format_scheme(truncated))
    code, out, _ = run_cli(
        capsys, "linear-check", "--instance", "example1", "--scheme", str(path)
    )
    assert code == 1
    assert out.rstrip().endswith("FAIL")


def _user_lines(use, checks, statuses):
    return "".join(
        f"user {j}: channel use {use}, {checks} joint-decoding checks: {status}\n"
        for j, status in enumerate(statuses, start=1)
    )


# Byte-exact linear-check stdout: (None, or the cache synthesize
# arguments and stdout that write the files first; --instance, --scheme,
# exit code, stdout).  Each synthesized user demands 3 and 6 one-bit
# messages, so it reports 2^3 - 1 and 2^6 - 1 joint-decoding checks.
LINEAR_CHECK_PINS = {
    "example2": (
        None, "example1", "example2", 0,
        "instance: builtin example1\nscheme: builtin example2\n"
        + _user_lines("3/3", 1, ["ok"] * 6)
        + "symmetric rate 1/3 (0.333333)  [per channel bit]\nPASS\n",
    ),
    "example2-truncated": (
        None, "example1", "trunc.sch", 1,
        "instance: builtin example1\nscheme: trunc.sch\n"
        + _user_lines("2/3", 1, ["ok"] * 2 + ["FAIL"] * 4)
        + "symmetric rate 1/3 (0.333333)  [per channel bit]\nFAIL\n",
    ),
    "synthesized-4-2-1": (
        (
            ("--K", "4", "--N", "2", "--t", "1", "--demands", "1,2,1,2"),
            "messages 8  channel bits 5\nload 5/4 (1.250000)  [channel bits per file]\n"
            "closed form 5/4 (1.250000)\nPASS\n",
        ),
        "syn.ic", "syn.sch", 0,
        "instance: syn.ic\nscheme: syn.sch\n"
        + _user_lines("5/5", 7, ["ok"] * 4)
        + "symmetric rate 1/5 (0.200000)  [per channel bit]\nPASS\n",
    ),
    "synthesized-5-3-2": (
        (
            ("--K", "5", "--N", "3", "--t", "2", "--demands", "1,2,3,1,1"),
            "messages 30  channel bits 10\nload 1/1 (1.000000)  [channel bits per file]\n"
            "closed form 1/1 (1.000000)\nPASS\n",
        ),
        "syn.ic", "syn.sch", 0,
        "instance: syn.ic\nscheme: syn.sch\n"
        + _user_lines("10/10", 63, ["ok"] * 5)
        + "symmetric rate 1/10 (0.100000)  [per channel bit]\nPASS\n",
    ),
}


@pytest.mark.parametrize("case", LINEAR_CHECK_PINS)
def test_linear_check_stdout_is_pinned(tmp_path, monkeypatch, capsys, case):
    synth, instance, scheme, code, stdout = LINEAR_CHECK_PINS[case]
    monkeypatch.chdir(tmp_path)
    s = builtin_scheme("example2")
    (tmp_path / "trunc.sch").write_text(
        format_scheme(LinearScheme(s.msg_bits, s.channel_bits, s.composites[:2]))
    )
    if synth is not None:
        argv, synth_stdout = synth
        header = f"wrote instance to {instance}\nwrote scheme to {scheme}\n"
        argv += ("--out-instance", instance, "--out-scheme", scheme)
        assert run_cli(capsys, "cache", "synthesize", *argv) == (0, header + synth_stdout, "")
    assert run_cli(capsys, "linear-check", "--instance", instance, "--scheme", scheme) == (code, stdout, "")


def test_zero_error_both_modes(capsys):
    for mode in ("algebraic", "enumerate"):
        code, out, _ = run_cli(
            capsys,
            "zero-error",
            "--instance",
            "example1",
            "--scheme",
            "example2",
            "--mode",
            mode,
        )
        assert code == 0
        assert out.count(": decodes") == 6
        assert out.rstrip().endswith("PASS")


def test_zero_error_fail(tmp_path, capsys):
    s = builtin_scheme("example2")
    truncated = LinearScheme(s.msg_bits, s.channel_bits, s.composites[:2])
    path = tmp_path / "trunc.sch"
    path.write_text(format_scheme(truncated))
    code, out, _ = run_cli(
        capsys, "zero-error", "--instance", "example1", "--scheme", str(path)
    )
    assert code == 1
    assert "FAILS to decode" in out


def test_mais(capsys):
    code, out, _ = run_cli(capsys, "mais", "--instance", "example1")
    assert code == 0
    assert "max acyclic induced subgraph size 3" in out
    assert "symmetric rate upper bound 1/3 (0.333333)" in out


def test_sandwich_table(capsys):
    code, out, _ = run_cli(capsys, "sandwich", "--instance", "xor2")
    assert code == 0
    assert "composite inner bound (time-shared)" in out
    assert "acyclic outer bound (size 1)" in out


def test_sandwich_csv(capsys):
    code, out, _ = run_cli(capsys, "--format", "csv", "sandwich", "--instance", "xor2")
    assert code == 0
    lines = [l for l in out.splitlines() if "," in l]
    assert "composite inner bound (time-shared),1/1" in lines
    assert "acyclic outer bound (size 1),1/1" in lines


@pytest.mark.parametrize("fmt", ["table", "csv"])
@pytest.mark.parametrize(
    "composite, tag, code", [("1,2 row 11", "PASS", 0), ("1 row 10", "FAIL", 1)]
)
def test_sandwich_with_scheme(tmp_path, capsys, fmt, composite, tag, code):
    path = tmp_path / "xor.sch"
    path.write_text(f"channel_bits 1\nmsg_bits 1 1\ncomposite {composite}\n")
    got, out, _ = run_cli(
        capsys, "--format", fmt, "sandwich", "--instance", "xor2", "--scheme", str(path)
    )
    assert got == code
    rows = (
        [
            "composite inner bound (time-shared),1/1",
            f"linear scheme ({tag}),1/1",
            "acyclic outer bound (size 1),1/1",
        ]
        if fmt == "csv"
        else [
            "composite inner bound (time-shared)  1/1 (1.000000)",
            f"linear scheme ({tag})                 1/1 (1.000000)",
            "acyclic outer bound (size 1)         1/1 (1.000000)",
        ]
    )
    assert out.splitlines() == ["instance: builtin xor2", f"scheme: {path}", *rows]


def test_cache_sim_centralized(capsys):
    code, out, _ = run_cli(
        capsys,
        "cache",
        "sim",
        "--K",
        "4",
        "--N",
        "2",
        "--t",
        "1",
        "--demands",
        "1,2,1,2",
        "--B",
        "12",
        "--mode",
        "reduced",
    )
    assert code == 0
    assert "load 5/4 (1.250000)  [channel bits per file]" in out
    assert "all 4 users decoded bit-exactly" in out


def test_cache_sim_csv_row(capsys):
    code, out, _ = run_cli(
        capsys,
        "--format",
        "csv",
        "cache",
        "sim",
        "--K",
        "4",
        "--N",
        "2",
        "--t",
        "1",
        "--demands",
        "1,2,1,2",
        "--B",
        "12",
        "--mode",
        "reduced",
    )
    assert code == 0
    assert out == "4,2,1,1-2-1-2,reduced,5,4\n"


def test_cache_sim_transcript(capsys):
    code, out, _ = run_cli(
        capsys,
        "cache",
        "sim",
        "--K",
        "4",
        "--N",
        "2",
        "--t",
        "1",
        "--demands",
        "1,2,1,2",
        "--B",
        "12",
        "--mode",
        "reduced",
        "--transcript",
    )
    assert code == 0
    assert "S={1,2} bits=" in out


def test_cache_sim_indivisible(capsys):
    code, _, err = run_cli(
        capsys,
        "cache",
        "sim",
        "--K",
        "4",
        "--N",
        "2",
        "--t",
        "1",
        "--demands",
        "1,2,1,2",
        "--B",
        "10",
    )
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("B", ["-3", "0"])
def test_cache_sim_refuses_a_file_without_bits(capsys, B):
    argv = ("cache", "sim", "--K", "2", "--N", "2", "--t", "1", "--demands", "1,2", "--B", B)
    assert run_cli(capsys, *argv) == (1, "", "error: need at least one file of at least one bit\n")


def test_cache_sim_decentralized_deterministic(capsys):
    argv = (
        "--format",
        "csv",
        "cache",
        "sim",
        "--K",
        "3",
        "--N",
        "3",
        "--decentralized",
        "--M",
        "3/2",
        "--demands",
        "1,2,3",
        "--B",
        "120",
        "--seed",
        "7",
        "--trials",
        "3",
    )
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert len(out1.splitlines()) == 3


def test_cache_sim_decentralized_table(capsys):
    code, out, _ = run_cli(
        capsys,
        "cache",
        "sim",
        "--K",
        "3",
        "--N",
        "3",
        "--decentralized",
        "--M",
        "3/2",
        "--demands",
        "1,2,3",
        "--B",
        "120",
        "--seed",
        "7",
        "--trials",
        "2",
    )
    assert code == 0
    assert "mean load" in out
    assert "reference  7/8 (0.875000)  [asymptotic formula]" in out
    assert "all 3 users decoded bit-exactly in every trial" in out


def test_cache_formulas(capsys):
    code, out, _ = run_cli(capsys, "cache", "formulas", "--query", "r_cman(4,2)")
    assert code == 0
    assert "r_cman(4,2) = 2/3 (0.666667)" in out


def test_cache_formulas_domain_error(capsys):
    code, _, err = run_cli(capsys, "cache", "formulas", "--query", "r_cman(4,9)")
    assert code == 1
    assert "error:" in err


def test_cache_reduce_stdout(capsys):
    code, out, _ = run_cli(
        capsys,
        "cache",
        "reduce",
        "--K",
        "2",
        "--N",
        "2",
        "--t",
        "1",
        "--demands",
        "1,2",
    )
    assert code == 0
    assert "# message 1 = subfile file=" in out
    assert "# user map: 1->1, 2->2" in out


def test_cache_reduce_to_file(tmp_path, capsys):
    out_path = tmp_path / "delivery.ic"
    code, out, _ = run_cli(
        capsys,
        "cache",
        "reduce",
        "--K",
        "3",
        "--N",
        "3",
        "--t",
        "1",
        "--demands",
        "1,2,3",
        "--out",
        str(out_path),
    )
    assert code == 0
    assert out_path.exists()
    code2, out2, _ = run_cli(capsys, "validate", "--instance", str(out_path))
    assert code2 == 0


def test_cache_synthesize_roundtrip(tmp_path, capsys):
    inst_path = tmp_path / "delivery.ic"
    sch_path = tmp_path / "delivery.sch"
    code, out, _ = run_cli(
        capsys,
        "cache",
        "synthesize",
        "--K",
        "4",
        "--N",
        "2",
        "--t",
        "1",
        "--demands",
        "1,2,1,2",
        "--out-instance",
        str(inst_path),
        "--out-scheme",
        str(sch_path),
    )
    assert code == 0
    assert "load 5/4 (1.250000)  [channel bits per file]" in out
    assert "closed form 5/4 (1.250000)" in out
    assert out.rstrip().endswith("PASS")
    code2, out2, _ = run_cli(
        capsys, "linear-check", "--instance", str(inst_path), "--scheme", str(sch_path)
    )
    assert code2 == 0
    assert out2.rstrip().endswith("PASS")


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["composite-rate"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["composite-rate", "--instance", "xor2", "--pure", "--weights", "1,1"])
    assert exc.value.code == 2
    assert "argument --weights: not allowed with argument --pure" in capsys.readouterr().err


def test_unknown_scheme_name(capsys):
    code, out, err = run_cli(
        capsys, "linear-check", "--instance", "example1", "--scheme", "nonesuch.sch"
    )
    assert code == 1
    assert out == "instance: builtin example1\n"
    assert err == "error: no such file and no builtin scheme named 'nonesuch': nonesuch.sch\n"


@pytest.mark.parametrize("kind", ["instance", "scheme"])
def test_unparsable_file(tmp_path, capsys, kind):
    path = tmp_path / "bad.txt"
    path.write_text("garbage here\n")
    files = {"instance": "example1", "scheme": "example2", kind: str(path)}
    code, _, err = run_cli(
        capsys, "linear-check", "--instance", files["instance"], "--scheme", files["scheme"]
    )
    assert code == 1
    assert err == f"error: cannot parse {kind} file {path}: line 1: unrecognized line: 'garbage here'\n"


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_cache_sim_decentralized_needs_a_trial(capsys, trials):
    code, out, err = run_cli(
        capsys, "cache", "sim", "--K", "2", "--N", "2", "--B", "8", "--demands", "1,2",
        "--decentralized", "--M", "1", "--trials", trials,
    )
    assert code == 1
    assert out == ""
    assert err == f"error: decentralized simulation requires --trials >= 1, got {trials}\n"


def test_cache_reduce_has_no_seed(capsys):
    # The reduced instance depends on the subfile layout only, never on file bits.
    with pytest.raises(SystemExit) as exc:
        main(["cache", "reduce", "--K", "3", "--N", "3", "--t", "1", "--demands", "1,2,3", "--seed", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err


@pytest.mark.parametrize(
    "N, t, err",
    [
        ("2", "4", "t must lie in [0..3], got 4"),
        ("2", "-1", "t must lie in [0..3], got -1"),
        ("0", "1", "N must be a positive integer, got 0"),
    ],
)
def test_cache_reduce_checks_its_arguments(capsys, N, t, err):
    code, out, stderr = run_cli(
        capsys, "cache", "reduce", "--K", "3", "--N", N, "--t", t, "--demands", "1,1,2"
    )
    assert code == 1
    assert out == ""
    assert stderr == f"error: {err}\n"


@pytest.mark.parametrize(
    "extra, err",
    [
        (["--decentralized", "--M", "1", "--t", "1"], "decentralized simulation does not take --t"),
        (["--decentralized", "--M", "1", "--mode", "full"], "decentralized simulation does not take --mode"),
        (
            ["--decentralized", "--M", "1", "--t", "1", "--mode", "reduced"],
            "decentralized simulation does not take --t or --mode",
        ),
        (["--t", "1", "--M", "1"], "centralized simulation does not take --M"),
        (["--t", "1", "--trials", "1"], "centralized simulation does not take --trials"),
        (["--t", "1", "--M", "1", "--trials", "2"], "centralized simulation does not take --M or --trials"),
    ],
)
def test_cache_sim_rejects_the_other_placements_options(capsys, extra, err):
    code, out, stderr = run_cli(capsys, "cache", "sim", "--K", "2", "--N", "2", "--B", "8", "--demands", "1,2", *extra)
    assert code == 1
    assert out == ""
    assert stderr == f"error: {err}\n"


@pytest.mark.parametrize(
    "K, N, t, demands, k_bits, stdout, instance, scheme",
    [
        (
            4, 2, 1, "1,2,1,2", 1,
            "messages 8  channel bits 5\n"
            "load 5/4 (1.250000)  [channel bits per file]\n"
            "closed form 5/4 (1.250000)\n"
            "PASS\n",
            "messages 8\nchannel_bits 5\n"
            "user 1 demands 2 3 4 knows 1 5\n"
            "user 2 demands 5 7 8 knows 2 6\n"
            "user 3 demands 1 2 4 knows 3 7\n"
            "user 4 demands 5 6 7 knows 4 8\n",
            "channel_bits 5\nmsg_bits 1 1 1 1 1 1 1 1\n"
            "composite 2,5 row 01001000\n"
            "composite 1,3 row 10100000\n"
            "composite 4,5 row 00011000\n"
            "composite 2,7 row 01000010\n"
            "composite 6,8 row 00000101\n",
        ),
        (
            3, 3, 0, "1,2,3", 1,
            "messages 3  channel bits 3\n"
            "load 3/1 (3.000000)  [channel bits per file]\n"
            "closed form 3/1 (3.000000)\n"
            "PASS\n",
            "messages 3\nchannel_bits 3\n"
            "user 1 demands 1 knows\n"
            "user 2 demands 2 knows\n"
            "user 3 demands 3 knows\n",
            "channel_bits 3\nmsg_bits 1 1 1\n"
            "composite 1 row 100\n"
            "composite 2 row 010\n"
            "composite 3 row 001\n",
        ),
        (
            3, 2, 2, "1,1,2", 2,
            "messages 6  channel bits 2\n"
            "load 1/3 (0.333333)  [channel bits per file]\n"
            "closed form 1/3 (0.333333)\n"
            "PASS\n",
            "messages 6\nchannel_bits 2\n"
            "user 1 demands 3 knows 1 2 4 5\n"
            "user 2 demands 2 knows 1 3 4 6\n"
            "user 3 demands 4 knows 2 3 5 6\n",
            "channel_bits 2\nmsg_bits 2 2 2 2 2 2\n"
            "composite 2,3,4 row 001010100000\n"
            "composite 2,3,4 row 000101010000\n",
        ),
    ],
)
def test_cache_synthesize_output_is_pinned(tmp_path, capsys, K, N, t, demands, k_bits, stdout, instance, scheme):
    inst_path = tmp_path / "delivery.ic"
    sch_path = tmp_path / "delivery.sch"
    code, out, err = run_cli(
        capsys, "cache", "synthesize", "--K", str(K), "--N", str(N), "--t", str(t),
        "--demands", demands, "--k-bits", str(k_bits),
        "--out-instance", str(inst_path), "--out-scheme", str(sch_path),
    )
    assert (code, err) == (0, "")
    assert out == f"wrote instance to {inst_path}\nwrote scheme to {sch_path}\n" + stdout
    assert inst_path.read_text() == instance
    assert sch_path.read_text() == scheme


def test_cache_reduce_stdout_is_pinned(capsys):
    code, out, err = run_cli(capsys, "cache", "reduce", "--K", "4", "--N", "4", "--t", "3", "--demands", "1,2,3,4")
    assert (code, err) == (0, "")
    labels = "".join(
        f"# message {4 * (i - 1) + w + 1} = subfile file={i} cached_by={{{W}}}\n"
        for i in range(1, 5)
        for w, W in enumerate(("1,2,3", "1,2,4", "1,3,4", "2,3,4"))
    )
    assert out == (
        "messages 16\nchannel_bits 1\n"
        "user 1 demands 4 knows 1 2 3 5 6 7 9 10 11 13 14 15\n"
        "user 2 demands 7 knows 1 2 4 5 6 8 9 10 12 13 14 16\n"
        "user 3 demands 10 knows 1 3 4 5 7 8 9 11 12 13 15 16\n"
        "user 4 demands 13 knows 2 3 4 6 7 8 10 11 12 14 15 16\n"
        + labels
        + "# user map: 1->1, 2->2, 3->3, 4->4\n"
    )


@pytest.mark.parametrize("command", ["composite-rate", "sandwich"])
def test_time_shared_rate_refuses_undemanded_messages(tmp_path, capsys, command):
    # Message 6 (file 2 cached by user 3) is known by user 3 and demanded by nobody.
    path = tmp_path / "r.ic"
    code, _, _ = run_cli(
        capsys, "cache", "reduce", "--K", "3", "--N", "2", "--t", "1", "--demands", "1,1,2", "--out", str(path)
    )
    assert code == 0
    code, out, err = run_cli(capsys, command, "--instance", str(path))
    assert (code, out) == (1, f"instance: {path}\n")
    assert err == (
        "error: messages [6] are known but demanded by no user, which the time-shared rate "
        "does not support; composite-rate --pure gives the single-choice rate\n"
    )
    code, out, _ = run_cli(capsys, "composite-rate", "--instance", str(path), "--pure")
    assert code == 0
    assert "rate 1/3 (0.333333)  [per channel bit]" in out


GROUPCAST_ERRORS = [
    ("4", "2", "1,2,1,2", "mais", "error: user 1 demands 3 messages\n"),
    ("4", "2", "1,2,1,2", "sandwich", "error: user 1 demands 3 messages\n"),
    ("3", "3", "1,2,3", "mais", "error: user 1 demands 2 messages\n"),
    # Groupcast with undemanded messages: the undemanded check runs first.
    (
        "3",
        "3",
        "1,2,3",
        "sandwich",
        "error: messages [1, 5, 9] are known but demanded by no user, which the time-shared rate "
        "does not support; composite-rate --pure gives the single-choice rate\n",
    ),
]


@pytest.mark.parametrize("K, N, demands, command, expected", GROUPCAST_ERRORS)
def test_outer_bound_refuses_groupcast_deliveries_with_an_error_line(
    tmp_path, capsys, K, N, demands, command, expected
):
    # Each user of a reduced delivery demands several subfiles.  sandwich
    # runs the outer bound before the hull, so it fails at once.
    path = tmp_path / "r.ic"
    code, _, _ = run_cli(
        capsys, "cache", "reduce", "--K", K, "--N", N, "--t", "1", "--demands", demands, "--out", str(path)
    )
    assert code == 0
    code, out, err = run_cli(capsys, command, "--instance", str(path))
    assert (code, out, err) == (1, f"instance: {path}\n", expected)


@pytest.mark.parametrize("command", ["mais", "sandwich"])
def test_outer_bound_reports_too_many_vertices(capsys, command):
    code, out, err = run_cli(capsys, command, "--instance", "no-side-info(23)")
    assert (code, out, err) == (1, "instance: builtin no-side-info(23)\n", "error: 23 vertices exceed the limit 22\n")
