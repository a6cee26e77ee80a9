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
            "upper bound 1/3 (0.333333)  converged True  rounds 1  mixture size 3\n",
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
    ],
    ids=["hull", "example1-cap1", "pure", "example1-cap1-pure"],
)
def test_composite_rate_stdout_is_pinned(capsys, argv, expected):
    code, out, _ = run_cli(capsys, "composite-rate", *argv)
    assert code == 0
    assert out == f"instance: builtin {argv[1]}\n" + expected


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
