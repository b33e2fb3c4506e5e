"""Command-line surface: compress, dft, idft, plan, bench, verify, synth.

Plans are --n/--c; verify prints the report of verify_against_oracle.
Operation counts, printed by compress, dft and idft and tabulated by
bench, come from the plan's closed form; nothing is timed or tallied.

Exit codes: 0 success (or verification pass), 1 verification failure,
2 usage or configuration error (a size too large to allocate included),
3 I/O or parse error.
"""

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from .core import (Direction, NormalizationMode, OutOfRangeError, RicdftError, _size, _tolerance,
                   make_plan)
from .engine import op_counts
from .fold import fold
from .io import (SignalFileError, SignalFormat, read_signal, synthesize_tones, write_signal,
                 write_spectrum)
from .planner import InfeasibleError, plan_for_frequencies
from .ric import ric_dft, ric_idft, ric_op_counts, verify_against_oracle


def _add_plan_flags(sub):
    sub.add_argument("--n", type=int, required=True, help="total length")
    sub.add_argument("--c", type=int, required=True, help="compressed length, a divisor of n")


def _numbers(text: str, kind) -> list:
    """Parse a comma-separated list of ints or floats; the API checks their range."""
    try:
        return [kind(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise RicdftError(f"expected comma-separated numbers, got {text!r}") from None


def cmd_compress(args) -> int:
    plan = make_plan(args.n, args.c)
    x = read_signal(args.infile, args.in_format)
    write_signal(fold(x, plan).samples, args.outfile, args.out_format)
    print(f"folded {plan.n} -> {plan.c} samples (complex_adds={plan.c * (plan.l - 1)})")
    return 0


def cmd_transform(args) -> int:
    plan = make_plan(args.n, args.c)
    spectrum = args.ric(read_signal(args.infile, args.in_format), plan, args.mode)
    write_spectrum(spectrum, args.outfile, args.out_format)
    adds, mults = ric_op_counts(plan)
    print(f"{spectrum.direction.value} transform at indices 0,{plan.l},..,{(plan.c - 1) * plan.l}"
          f" (complex_adds={adds}, complex_mults={mults})")
    return 0


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
            "assignments": [dataclasses.asdict(a) for a in proposal.assignments],
        }
        print(json.dumps(doc, indent=2))
    else:
        print(f"plan: n={plan.n} c={plan.c} l={plan.l}")
        print(f"sample_rate={proposal.sample_rate!r} bin_width={proposal.bin_width!r}")
        print("target_hz,k,bin_index,achieved_hz,rel_error")
        for a in proposal.assignments:
            print(",".join(map(repr, dataclasses.astuple(a))))
    return 0


def cmd_bench(args) -> int:
    ns = sorted(set(_numbers(args.n_list, int)))
    if not ns:
        raise RicdftError("--n-list names no length")
    given = sorted(set(_numbers(args.c_list or "", int)))
    rows = []  # every plan is checked before a line is printed
    for n in ns:
        cs = given or [1 << p for p in range(1, n.bit_length() - 1) if n % (1 << p) == 0]
        if not cs:
            raise RicdftError(f"n={n} has no power-of-two c in [2, n/2]; give --c-list")
        for plan in (make_plan(n, c) for c in cs):
            rows += [(n, plan.c, plan.l, "full", *op_counts(n)),
                     (n, plan.c, plan.l, "ric", *ric_op_counts(plan))]
    print("n,c,l,method,complex_adds,complex_mults")
    for row in rows:
        print(",".join(map(str, row)))
    return 0


def cmd_verify(args) -> int:
    tol = _tolerance(args.tol)  # before the input is built or read
    plan = make_plan(args.n, args.c)
    if args.random == (args.infile is not None):  # neither or both
        raise RicdftError("give either --in FILE or --random, not both")
    if args.random:
        rng = np.random.default_rng(_size("seed", args.seed))
        try:
            x = rng.standard_normal(plan.n) + 1j * rng.standard_normal(plan.n)
        except ValueError:  # numpy: n * itemsize overflows its size type ("array is too big")
            raise OutOfRangeError(f"n={plan.n} is too large to allocate") from None
    else:
        x = read_signal(args.infile, args.in_format)
    report = verify_against_oracle(x, plan, args.mode, args.direction, tol)
    status = "PASS" if report.passed else "FAIL"
    print(f"{status} max_abs_error={report.max_abs_error!r} "
          f"max_rel_error={report.max_rel_error!r} tolerance={report.tolerance!r}")
    return 0 if report.passed else 1


def _parse_tone(text: str):
    parts = text.split(":")
    try:
        if len(parts) in (2, 3):
            return int(parts[0]), float(parts[1]), float(parts[2]) if len(parts) == 3 else 0.0
    except ValueError:
        pass
    raise RicdftError(f"tone {text!r} must be BIN:AMP or BIN:AMP:PHASE")


def cmd_synth(args) -> int:
    tones = [_parse_tone(t) for t in args.tone]
    x = synthesize_tones(args.n, tones)
    write_signal(x, args.outfile, args.out_format)
    print(f"wrote {args.n} samples ({len(tones)} tones) to {args.outfile}")
    return 0


@functools.cache  # built once per process; parse_args leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ricdft",
        description="Compute DFT coefficients at index multiples of l = n/c "
                    "by folding the input to c points first.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    formats = [f.value for f in SignalFormat]

    p = sub.add_parser("compress", help="fold an n-point signal to c column sums")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    _add_plan_flags(p)
    p.add_argument("--in-format", choices=formats, default="csv")
    p.add_argument("--out-format", choices=formats, default="csv")
    p.set_defaults(func=cmd_compress)

    for name, ric, helptext in [("dft", ric_dft, "forward transform at the retained indices"),
                                ("idft", ric_idft, "inverse transform at the retained indices")]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--out", dest="outfile", required=True)
        _add_plan_flags(p)
        p.add_argument("--mode", choices=[m.value for m in NormalizationMode],
                       default="none" if name == "dft" else "recip-n")
        p.add_argument("--in-format", choices=formats, default="csv")
        p.add_argument("--out-format", choices=["csv", "json"], default="csv")
        p.set_defaults(func=cmd_transform, ric=ric)

    p = sub.add_parser("plan", help="choose (n, c) so targets land on retained bins")
    p.add_argument("--sample-rate", type=float, required=True)
    p.add_argument("--targets", required=True, help="comma-separated frequencies in Hz")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--tol", type=float, default=0.0)
    p.add_argument("--any-n", action="store_true",
                   help="search all composite lengths, not only powers of two")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("bench", help="csv table of folded vs full-length operation counts")
    p.add_argument("--n-list", required=True, help="comma-separated lengths")
    p.add_argument("--c-list", help="comma-separated compressed lengths "
                                    "(default: each power of two dividing n in [2, n/2])")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify", help="check the folded path against the direct transform")
    p.add_argument("--in", dest="infile")
    p.add_argument("--random", action="store_true", help="use a seeded random input")
    _add_plan_flags(p)
    p.add_argument("--mode", choices=[m.value for m in NormalizationMode], default="none")
    p.add_argument("--direction", choices=[d.value for d in Direction], default="forward")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--in-format", choices=formats, default="csv")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("synth", help="synthesize a sum of complex tones")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tone", action="append", required=True,
                   help="BIN:AMP or BIN:AMP:PHASE, repeatable")
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--out-format", choices=formats, default="csv")
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
    except (RicdftError, MemoryError) as exc:  # numpy names the size it could not allocate
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
