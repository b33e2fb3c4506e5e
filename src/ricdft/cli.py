"""Command-line surface: compress, dft, idft, plan, bench, verify, synth.

Exit codes: 0 success (or verification pass), 1 verification failure,
2 usage or configuration error, 3 I/O or parse error.
"""

import argparse
import json
import math
import sys

import numpy as np

from .bench import BenchConfig, emit_report, run_benchmark
from .core import Direction, NormalizationMode, OpCounter, RicdftError, _tolerance, make_plan, plan_from_exponents
from .fold import fold
from .io import SignalFileError, read_signal, synthesize_tones, write_signal, write_spectrum
from .planner import InfeasibleError, plan_for_frequencies
from .ric import _oracle, _ric, compare_values


def _add_plan_flags(sub):
    sub.add_argument("--n", type=int, help="total length (with --c)")
    sub.add_argument("--c", type=int, help="compressed length (with --n)")
    sub.add_argument("--q", type=int, help="log2 of total length (with --p)")
    sub.add_argument("--p", type=int, help="log2 of compressed length (with --q)")


def _plan_from_args(args):
    if args.n is not None and args.c is not None and args.q is None and args.p is None:
        return make_plan(args.n, args.c)
    if args.q is not None and args.p is not None and args.n is None and args.c is None:
        return plan_from_exponents(args.q, args.p)
    raise RicdftError("give either --n and --c, or --q and --p")


def _numbers(text: str, kind) -> list:
    """Parse a comma-separated list of finite ints or floats."""
    try:
        values = [kind(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise RicdftError(f"expected comma-separated numbers, got {text!r}") from None
    if kind is float and not all(math.isfinite(v) for v in values):
        raise RicdftError(f"non-finite number in {text!r}")
    return values


def cmd_compress(args) -> int:
    plan = _plan_from_args(args)
    x = read_signal(args.infile, args.in_format)
    counter = OpCounter()
    folded = fold(x, plan, counter)
    write_signal(folded.samples, args.outfile, args.out_format)
    print(f"folded {plan.n} -> {plan.c} samples (complex_adds={counter.complex_adds})")
    return 0


def _cmd_transform(args, direction: Direction) -> int:
    plan = _plan_from_args(args)
    x = read_signal(args.infile, args.in_format)
    counter = OpCounter()
    spectrum = _ric(x, plan, direction, args.mode, counter)
    write_spectrum(spectrum, args.outfile, args.out_format)
    print(
        f"{direction.value} transform at indices 0,{plan.l},..,{(plan.c - 1) * plan.l}"
        f" (complex_adds={counter.complex_adds}, complex_mults={counter.complex_mults})"
    )
    return 0


def cmd_dft(args) -> int:
    return _cmd_transform(args, Direction.FORWARD)


def cmd_idft(args) -> int:
    return _cmd_transform(args, Direction.INVERSE)


def cmd_plan(args) -> int:
    targets = _numbers(args.targets, float)
    proposal = plan_for_frequencies(
        args.sample_rate, targets, args.max_n,
        power_of_two_only=not args.any_n, tol=args.tol,
    )
    plan = proposal.plan
    if args.json:
        doc = {
            "plan": {"n": plan.n, "c": plan.c, "l": plan.l, "q": plan.q, "p": plan.p},
            "sample_rate": proposal.sample_rate,
            "bin_width": proposal.bin_width,
            "assignments": [
                {"target": a.target, "k": a.k, "bin_index": a.bin_index,
                 "achieved": a.achieved, "rel_error": a.rel_error}
                for a in proposal.assignments
            ],
        }
        print(json.dumps(doc, indent=2))
    else:
        print(f"plan: n={plan.n} c={plan.c} l={plan.l}")
        print(f"sample_rate={proposal.sample_rate!r} bin_width={proposal.bin_width!r}")
        print("target_hz,k,bin_index,achieved_hz,rel_error")
        for a in proposal.assignments:
            print(f"{a.target!r},{a.k},{a.bin_index},{a.achieved!r},{a.rel_error!r}")
    return 0


def cmd_bench(args) -> int:
    config = BenchConfig(
        n_list=tuple(_numbers(args.n_list, int)),
        c_policy=args.c_policy,
        c_list=tuple(_numbers(args.c_list, int)),
        trials=args.trials,
        seed=args.seed,
        direct_limit=args.direct_limit,
    )
    report = run_benchmark(config)
    emit_report(report, args.outfile, args.format)
    print(f"wrote {len(report.rows)} rows to {args.outfile}")
    return 0


def cmd_verify(args) -> int:
    plan = _plan_from_args(args)
    tol = _tolerance(args.tol)  # before the oracle's O(n^2) run
    if args.random:
        rng = np.random.default_rng(args.seed)
        x = rng.standard_normal(plan.n) + 1j * rng.standard_normal(plan.n)
    elif args.infile:
        x = read_signal(args.infile, args.in_format)
    else:
        raise RicdftError("give --in FILE or --random")
    got = _ric(x, plan, args.direction, args.mode, None).values
    # --perturb corrupts the folded path only, so a large enough value must fail
    got = got + args.perturb * max(1.0, float(np.max(np.abs(got))))
    report = compare_values(got, _oracle(x, plan, args.direction, args.mode), tol)
    status = "PASS" if report.passed else "FAIL"
    print(f"{status} max_abs_error={report.max_abs_error!r} "
          f"max_rel_error={report.max_rel_error!r} tolerance={report.tolerance!r}")
    return 0 if report.passed else 1


def _parse_tone(text: str):
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise RicdftError(f"tone {text!r} must be BIN:AMP or BIN:AMP:PHASE")
    try:
        bin_idx = int(parts[0])
        amp = float(parts[1])
        phase = float(parts[2]) if len(parts) == 3 else 0.0
    except ValueError:
        raise RicdftError(f"tone {text!r} must be BIN:AMP or BIN:AMP:PHASE") from None
    if not (math.isfinite(amp) and math.isfinite(phase)):
        raise RicdftError(f"tone {text!r} has a non-finite amplitude or phase")
    return bin_idx, amp, phase


def cmd_synth(args) -> int:
    tones = [_parse_tone(t) for t in args.tone]
    x = synthesize_tones(args.n, tones)
    write_signal(x, args.outfile, args.out_format)
    print(f"wrote {args.n} samples ({len(tones)} tones) to {args.outfile}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ricdft",
        description="Compute DFT coefficients at index multiples of l = n/c "
                    "by folding the input to c points first.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="fold an n-point signal to c column sums")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    _add_plan_flags(p)
    p.add_argument("--in-format", choices=["csv", "raw-f64"], default="csv")
    p.add_argument("--out-format", choices=["csv", "raw-f64"], default="csv")
    p.set_defaults(func=cmd_compress)

    for name, helptext in [("dft", "forward transform at the retained indices"),
                           ("idft", "inverse transform at the retained indices")]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--out", dest="outfile", required=True)
        _add_plan_flags(p)
        p.add_argument("--mode", choices=[m.value for m in NormalizationMode],
                       default="none" if name == "dft" else "recip-n")
        p.add_argument("--in-format", choices=["csv", "raw-f64"], default="csv")
        p.add_argument("--out-format", choices=["csv", "json"], default="csv")
        p.set_defaults(func=cmd_dft if name == "dft" else cmd_idft)

    p = sub.add_parser("plan", help="choose (n, c) so targets land on retained bins")
    p.add_argument("--sample-rate", type=float, required=True)
    p.add_argument("--targets", required=True, help="comma-separated frequencies in Hz")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--tol", type=float, default=0.0)
    p.add_argument("--any-n", action="store_true",
                   help="search all composite lengths, not only powers of two")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("bench", help="compare folded vs full-length transform costs")
    p.add_argument("--n-list", required=True, help="comma-separated lengths")
    p.add_argument("--c-policy", choices=["all", "pow2", "explicit"], default="pow2")
    p.add_argument("--c-list", default="", help="compressed lengths for --c-policy explicit")
    p.add_argument("--trials", type=int, default=9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--direct-limit", type=int, default=1024)
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--format", choices=["csv", "json", "markdown"], default="csv")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify", help="check the folded path against the direct transform")
    p.add_argument("--in", dest="infile")
    p.add_argument("--random", action="store_true", help="use a seeded random input")
    _add_plan_flags(p)
    p.add_argument("--mode", choices=[m.value for m in NormalizationMode], default="none")
    p.add_argument("--direction", choices=[d.value for d in Direction], default="forward")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--perturb", type=float, default=0.0,
                   help="inject this much absolute error into the folded path")
    p.add_argument("--in-format", choices=["csv", "raw-f64"], default="csv")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("synth", help="synthesize a sum of complex tones")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tone", action="append", required=True,
                   help="BIN:AMP or BIN:AMP:PHASE, repeatable")
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--out-format", choices=["csv", "raw-f64"], default="csv")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SignalFileError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except RicdftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
