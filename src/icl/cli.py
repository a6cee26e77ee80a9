"""Command-line front end: every computation with reproducible output.

Exit codes: 0 success, 1 computation-reported failure (a FAIL verdict,
decode failure, infeasible query), 2 usage error.  Every rational is
printed as num/den followed by a 6-place decimal annotation, so output
is both exact and human-readable.  Instances and schemes are read from
files in the plain-text formats of parse_instance/parse_scheme; where a
path does not exist, the name (minus a .ic/.sch suffix) is looked up as
a builtin.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from .caching import (
    DecodeFailure,
    DomainError,
    EmptyDemand,
    Indivisible,
    _certify_delivery,
    deliver,
    decode_all_users,
    dman_deliver,
    dman_place,
    cman_place,
    formula_loads,
    load_csv_row,
    r_d_opt,
    random_library,
    reduced_delivery,
    synthesize_delivery_scheme,
    transcript_log,
)
from .composite import (
    SearchSpaceOverflow,
    max_symmetric_rate,
    max_weighted_rate,
    time_shared_symmetric_rate,
)
from .instance import (
    IndexCodingInstance,
    NotMultipleUnicast,
    UnknownName,
    builtin_instance,
    format_instance,
    parse_instance,
    require_valid_instance,
    validate_instance,
)
from .outer import TooManyVertices, acyclic_symmetric_bound
from .schemes import (
    EnumerationTooLarge,
    LinearScheme,
    builtin_scheme,
    check_scheme,
    format_scheme,
    parse_scheme,
    zero_error_decode_check,
)


class _Failure(Exception):
    """Computation-reported failure: message printed, exit status 1."""


def _frac(q: Fraction) -> str:
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator} ({float(q):.6f})"


def _load(kind: str, suffix: str, parse, builtin, arg: str):
    """Parse the file at arg, or else look up arg minus suffix as a builtin."""
    path = Path(arg)
    if path.exists():
        try:
            value = parse(path.read_text())
        except ValueError as e:
            raise _Failure(f"cannot parse {kind} file {arg}: {e}")
        print(f"{kind}: {arg}")
        return value
    name = arg.removesuffix(suffix)
    try:
        value = builtin(name)
    except UnknownName:
        raise _Failure(f"no such file and no builtin {kind} named {name!r}: {arg}")
    print(f"{kind}: builtin {name}")
    return value


def _load_instance(arg: str) -> IndexCodingInstance:
    return _load("instance", ".ic", parse_instance, builtin_instance, arg)


def _load_scheme(arg: str) -> LinearScheme:
    return _load("scheme", ".sch", parse_scheme, builtin_scheme, arg)


def _parse_demands(text: str, K: int) -> tuple[int, ...]:
    try:
        d = tuple(int(t) for t in text.split(","))
    except ValueError:
        raise _Failure(f"demands must be comma-separated integers, got {text!r}")
    if len(d) != K:
        raise _Failure(f"expected {K} demands, got {len(d)}")
    return d


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise _Failure(f"not a rational number: {text!r}")


def _require_demanded(inst: IndexCodingInstance) -> None:
    """Refuse messages that no user demands, which the hull does not support."""
    require_valid_instance(inst)
    demanded = set().union(*(spec.demands for spec in inst.users))
    undemanded = sorted(set(inst.message_ids()) - demanded)
    if undemanded:
        raise _Failure(
            f"messages {undemanded} are known but demanded by no user, which the "
            "time-shared rate does not support; composite-rate --pure gives the "
            "single-choice rate"
        )


def _require_threads(threads: int) -> None:
    if threads < 1:
        raise _Failure(f"--threads must be >= 1, got {threads}")


def _cmd_validate(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    problems = validate_instance(inst)
    if problems:
        for p in problems:
            print(f"problem: {p}")
        return 1
    print(
        f"ok: {inst.num_messages} messages, {len(inst.users)} users, "
        f"{inst.channel_bits} channel bits"
    )
    return 0


def _cmd_composite_rate(args: argparse.Namespace) -> int:
    _require_threads(args.threads)
    inst = _load_instance(args.instance)
    if args.weights is not None:
        weights = [_parse_fraction(t) for t in args.weights.split(",")]
        if len(weights) != inst.num_messages:
            raise _Failure(f"expected {inst.num_messages} weights, got {len(weights)}")
        res = max_weighted_rate(inst, dict(enumerate(weights, start=1)), args.cap, args.threads)
        print(f"weighted value {_frac(res.value)}  [bits]")
        for i in sorted(res.rates):
            print(f"R_{i} = {_frac(res.rates[i])}")
        sets = ", ".join("{" + ",".join(map(str, sorted(s))) + "}" for s in res.best_choice.sets)
        print(f"choice: {sets}")
        return 0
    if args.pure:
        res = max_symmetric_rate(
            inst, per_user_cap=args.cap, threads=args.threads
        )
        print(f"rate {_frac(res.symmetric_rate)}  [per channel bit]")
        sets = ", ".join("{" + ",".join(map(str, sorted(s))) + "}" for s in res.best_choice.sets)
        print(f"choice: {sets}")
        return 0
    _require_demanded(inst)
    res = time_shared_symmetric_rate(inst, per_user_cap=args.cap, threads=args.threads)
    print(f"rate {_frac(res.symmetric_rate)}  [per channel bit, time-shared]")
    print(
        f"upper bound {_frac(res.upper_bound)}  converged {res.converged}  "
        f"rounds {res.rounds}  mixture size {len(res.mixture)}"
    )
    if not res.converged:
        print("bounds did not meet within the round limit")
        return 1
    return 0


def _cmd_linear_check(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    scheme = _load_scheme(args.scheme)
    verdict = check_scheme(inst, scheme)
    per_user = zip(inst.users, verdict.channel_use, verdict.channel_ok, verdict.decodes)
    for j, (spec, used, fits, decodes) in enumerate(per_user, start=1):
        checks = 2 ** len(spec.demands) - 1  # the J <= K_j = D_j that meet D_j
        status = "ok" if fits and decodes else "FAIL"
        print(f"user {j}: channel use {used}/{scheme.channel_bits}, {checks} joint-decoding checks: {status}")
    print(f"symmetric rate {_frac(verdict.symmetric_rate)}  [per channel bit]")
    print("PASS" if verdict.passed else "FAIL")
    return 0 if verdict.passed else 1


def _cmd_zero_error(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    scheme = _load_scheme(args.scheme)
    per_user = zero_error_decode_check(inst, scheme, mode=args.mode)
    for j, ok in enumerate(per_user, start=1):
        print(f"user {j}: {'decodes' if ok else 'FAILS to decode'}")
    print("PASS" if all(per_user) else "FAIL")
    return 0 if all(per_user) else 1


def _cmd_mais(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    res = acyclic_symmetric_bound(inst)
    witness = ",".join(map(str, sorted(res.witness)))
    print(f"max acyclic induced subgraph size {res.mais_size}  witness {{{witness}}}")
    print(f"symmetric rate upper bound {_frac(res.symmetric_upper)}  [per channel bit]")
    return 0


def _cmd_sandwich(args: argparse.Namespace) -> int:
    _require_threads(args.threads)
    inst = _load_instance(args.instance)
    _require_demanded(inst)
    # The outer bound is cheap and refuses groupcast instances, so it runs
    # before the hull; its row still prints last.
    outer = acyclic_symmetric_bound(inst)
    rows: list[tuple[str, str]] = []
    hull = time_shared_symmetric_rate(inst, threads=args.threads)
    rows.append(("composite inner bound (time-shared)", _frac(hull.symmetric_rate)))
    passed = True
    if args.scheme:
        # K_j = D_j, so verdict.passed already holds the zero-error verdict.
        verdict = check_scheme(inst, _load_scheme(args.scheme))
        passed = verdict.passed
        rows.append((f"linear scheme ({'PASS' if passed else 'FAIL'})", _frac(verdict.symmetric_rate)))
    rows.append((f"acyclic outer bound (size {outer.mais_size})", _frac(outer.symmetric_upper)))
    if args.format == "csv":
        for name, value in rows:
            print(f"{name.replace(',', ';')},{value.split(' ')[0]}")
    else:
        width = max(len(name) for name, _ in rows)
        for name, value in rows:
            print(f"{name:<{width}}  {value}")
    return 0 if passed else 1


def _simulate_centralized(args: argparse.Namespace) -> int:
    K, N, t, B = args.K, args.N, args.t, args.B
    if t is None:
        raise _Failure("centralized simulation requires --t")
    mode = args.mode or "full"
    lib = random_library(N, B, seed=args.seed)
    cache, sub = cman_place(K, t, lib)
    d = _parse_demands(args.demands, K)
    tr = deliver(sub, d, mode=mode)
    decoded = decode_all_users(cache, tr, d)
    wrong = [k for k in range(1, K + 1) if decoded[k - 1] != lib.files[d[k - 1] - 1]]
    if wrong:
        raise _Failure(f"users {wrong} decoded the wrong bits")
    if args.transcript:
        print(transcript_log(tr))
    if args.format == "csv":
        print(load_csv_row(K, N, t, d, mode, tr.load))
    else:
        print(f"payloads {len(tr.payloads)}  total bits {tr.total_bits}")
        print(f"load {_frac(tr.load)}  [channel bits per file]")
        print(f"all {K} users decoded bit-exactly")
    return 0


def _simulate_decentralized(args: argparse.Namespace) -> int:
    K, N, B = args.K, args.N, args.B
    if args.M is None:
        raise _Failure("decentralized simulation requires --M")
    trials = 1 if args.trials is None else args.trials
    if trials < 1:
        raise _Failure(f"decentralized simulation requires --trials >= 1, got {trials}")
    M = _parse_fraction(args.M)
    lib = random_library(N, B, seed=args.seed)
    d = _parse_demands(args.demands, K)
    loads: list[Fraction] = []
    for trial in range(trials):
        cache, sub = dman_place(K, M, lib, seed=args.seed + trial)
        tr = dman_deliver(sub, d)
        decoded = decode_all_users(cache, tr, d)
        wrong = [k for k in range(1, K + 1) if decoded[k - 1] != lib.files[d[k - 1] - 1]]
        if wrong:
            raise _Failure(f"seed {args.seed + trial}: users {wrong} decoded the wrong bits")
        loads.append(tr.load)
        if args.format == "csv":
            print(load_csv_row(K, N, f"seed{args.seed + trial}", d, "decentralized", tr.load))
        else:
            print(f"seed {args.seed + trial}: load {_frac(tr.load)}")
    mean = sum(loads, Fraction(0)) / len(loads)
    reference = r_d_opt(K, N, M)
    if args.format != "csv":
        print(f"mean load {_frac(mean)}  over {trials} seed(s)")
        print(f"reference  {_frac(reference)}  [asymptotic formula]")
        print(f"all {K} users decoded bit-exactly in every trial")
    return 0


def _cmd_cache_sim(args: argparse.Namespace) -> int:
    # Options of the other placement are rejected, not silently dropped.
    dec = args.decentralized
    foreign = {"--t": args.t, "--mode": args.mode} if dec else {"--M": args.M, "--trials": args.trials}
    given = [name for name, value in foreign.items() if value is not None]
    if given:
        placement = "decentralized" if dec else "centralized"
        raise _Failure(f"{placement} simulation does not take {' or '.join(given)}")
    return (_simulate_decentralized if dec else _simulate_centralized)(args)


def _cmd_cache_formulas(args: argparse.Namespace) -> int:
    value = formula_loads(args.query)
    print(f"{args.query.strip()} = {_frac(value)}")
    return 0


def _cmd_cache_reduce(args: argparse.Namespace) -> int:
    K, N, t = args.K, args.N, args.t
    d = _parse_demands(args.demands, K)
    _, inst, labels = reduced_delivery(K, N, t, d)
    text = format_instance(inst)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote instance to {args.out}")
    else:
        sys.stdout.write(text)
    for mid in sorted(labels.by_id):
        file, W = labels.by_id[mid]
        print(f"# message {mid} = subfile file={file} cached_by={{{','.join(map(str, sorted(W)))}}}")
    if labels.dropped_users:
        print(f"# dropped users (demand fully cached): {sorted(labels.dropped_users)}")
    print(f"# user map: {', '.join(f'{j}->{k}' for j, k in enumerate(labels.users, start=1))}")
    return 0


def _cmd_cache_synthesize(args: argparse.Namespace) -> int:
    K, N, t = args.K, args.N, args.t
    d = _parse_demands(args.demands, K)
    synthesized = synthesize_delivery_scheme(K, N, t, d, k_bits=args.k_bits)
    inst, scheme, _ = synthesized
    report = _certify_delivery(K, N, t, d, args.k_bits, synthesized)
    if args.out_instance:
        Path(args.out_instance).write_text(format_instance(inst))
        print(f"wrote instance to {args.out_instance}")
    if args.out_scheme:
        Path(args.out_scheme).write_text(format_scheme(scheme))
        print(f"wrote scheme to {args.out_scheme}")
    print(f"messages {inst.num_messages}  channel bits {inst.channel_bits}")
    print(f"load {_frac(report.load)}  [channel bits per file]")
    if report.expected_load is not None:
        print(f"closed form {_frac(report.expected_load)}")
    print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icl",
        description="Index coding bounds and bit-exact coded caching simulation.",
    )
    parser.add_argument(
        "--format",
        choices=("table", "csv"),
        default="table",
        help="output format for tabular results",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("validate", help="check an instance file for well-formedness")
    p.set_defaults(run=_cmd_validate)
    p.add_argument("--instance", required=True)

    p = sub.add_parser("composite-rate", help="composite-coding inner bound")
    p.set_defaults(run=_cmd_composite_rate)
    p.add_argument("--instance", required=True)
    p.add_argument("--cap", type=int, default=None, help="cap on extra jointly-decoded messages per user")
    goal = p.add_mutually_exclusive_group()
    goal.add_argument("--weights", default=None, help="comma-separated rationals: maximize the weighted rate sum")
    goal.add_argument("--pure", action="store_true", help="single-configuration optimum (no time sharing)")
    p.add_argument("--threads", type=int, default=1)

    p = sub.add_parser("linear-check", help="certify a GF(2) linear scheme")
    p.set_defaults(run=_cmd_linear_check)
    p.add_argument("--instance", required=True)
    p.add_argument("--scheme", required=True)

    p = sub.add_parser("zero-error", help="per-user exact decodability of a scheme")
    p.set_defaults(run=_cmd_zero_error)
    p.add_argument("--instance", required=True)
    p.add_argument("--scheme", required=True)
    p.add_argument("--mode", choices=("algebraic", "enumerate"), default="algebraic")

    p = sub.add_parser("mais", help="acyclic outer bound")
    p.set_defaults(run=_cmd_mais)
    p.add_argument("--instance", required=True)

    p = sub.add_parser("sandwich", help="inner and outer bounds side by side")
    p.set_defaults(run=_cmd_sandwich)
    p.add_argument("--instance", required=True)
    p.add_argument("--scheme", default=None, help="optional scheme for the achievability row")
    p.add_argument("--threads", type=int, default=1)

    cache = sub.add_parser("cache", help="coded caching simulation and analysis")
    csub = cache.add_subparsers(dest="cache_command", required=True)

    p = csub.add_parser("sim", help="place, deliver, and decode bit-exactly")
    p.set_defaults(run=_cmd_cache_sim)
    p.add_argument("--K", type=int, required=True, help="number of users")
    p.add_argument("--N", type=int, required=True, help="number of files")
    p.add_argument("--t", type=int, default=None, help="centralized placement parameter")
    p.add_argument("--demands", required=True, help="comma-separated file ids, one per user")
    p.add_argument("--B", type=int, required=True, help="file size in bits")
    p.add_argument("--mode", choices=("full", "reduced"), default=None)
    p.add_argument("--decentralized", action="store_true")
    p.add_argument("--M", default=None, help="cache size in files (rational), decentralized only")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--transcript", action="store_true", help="print the payload log")

    p = csub.add_parser("formulas", help="closed-form load queries")
    p.set_defaults(run=_cmd_cache_formulas)
    p.add_argument("--query", required=True, help='e.g. "r_cman(4,2)" or "r_d_opt(3,3,1/2)"')

    p = csub.add_parser("reduce", help="emit the delivery phase as an index coding instance")
    p.set_defaults(run=_cmd_cache_reduce)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--demands", required=True)
    p.add_argument("--out", default=None, help="instance file to write (default stdout)")

    p = csub.add_parser("synthesize", help="build and certify the reduced delivery as a linear index code")
    p.set_defaults(run=_cmd_cache_synthesize)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--demands", required=True)
    p.add_argument("--k-bits", type=int, default=1, dest="k_bits")
    p.add_argument("--out-instance", default=None, dest="out_instance")
    p.add_argument("--out-scheme", default=None, dest="out_scheme")

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one invocation through its subcommand's handler; returns the exit status."""
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (
        _Failure,
        DomainError,
        Indivisible,
        DecodeFailure,
        EmptyDemand,
        EnumerationTooLarge,
        NotMultipleUnicast,
        SearchSpaceOverflow,
        TooManyVertices,
        ValueError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
