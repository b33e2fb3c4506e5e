"""Choose (n, c) so target frequencies land exactly on retained bins.

With sample rate fs and length n, bin m sits at m*fs/n Hz and the folded
pipeline retains the bins k*l, k = 0..c-1, with l = n/c.  Retained bin k
therefore sits at k*fs/c whatever n is, so n never changes which
frequencies a plan hits, and the cheapest plan for a given c is the
shortest, n = 2c.  The planner picks the smallest feasible c (the c-point
transform dominates the multiplication count) and sets n = 2c: it scans c
over the powers of two, or over every integer with ``power_of_two_only``
off, up to max_n/2.

A bin's frequency k*fs/c is computed exactly, as a ratio of integers, and
rounded to float once, so whether a target is hit depends on (c, k) alone
and never on how the product was rounded.  Targets and the sample rate
are binary floats, exact at their float value and not at the decimal they
were written as: 333.3 Hz is the dyadic rational nearest it, which bin
k = 6004199023210345 of c = 2**54 hits exactly at fs = 1000 Hz.
"""

from dataclasses import dataclass

from .core import OutOfRangeError, RicdftError, RicPlan, _real, _size, _tolerance


@dataclass(frozen=True)
class Assignment:
    """One target frequency mapped onto a retained bin."""

    target: float
    k: int
    bin_index: int
    achieved: float
    rel_error: float


@dataclass(frozen=True)
class PlanProposal:
    plan: RicPlan
    sample_rate: float
    bin_width: float
    assignments: tuple[Assignment, ...]


class InfeasibleError(RicdftError):
    """No candidate plan meets the tolerance; carries the best attempt."""

    def __init__(self, message: str, best_rel_error: float, best_plan: RicPlan | None):
        super().__init__(message)
        self.best_rel_error = best_rel_error
        self.best_plan = best_plan


def _nearest(target: float, t_ratio, fs_ratio, c: int) -> tuple[int, float, float]:
    """(k, achieved, rel_error) of the bin k*fs/c nearest target, from the exact ratios of both."""
    (t_num, t_den), (num, den) = t_ratio, fs_ratio
    lo = min((t_num * den * c) // (t_den * num), c - 1)
    hi = min(lo + 1, c - 1)
    at_lo, at_hi = (lo * num) / (den * c), (hi * num) / (den * c)  # k*fs/c; int/int division rounds once
    k, hz = (hi, at_hi) if abs(at_hi - target) < abs(at_lo - target) else (lo, at_lo)
    return k, hz, 0.0 if target == 0 else abs(hz - target) / target


def _assign(target: float, plan: RicPlan, sample_rate: float) -> Assignment:
    """Map target onto the nearest retained bin; ties go to the lower bin."""
    fs_ratio = float(sample_rate).as_integer_ratio()
    k, hz, rel = _nearest(target, target.as_integer_ratio(), fs_ratio, plan.c)
    return Assignment(target=target, k=k, bin_index=k * plan.l, achieved=hz, rel_error=rel)


def _candidate_cs(max_n: int, power_of_two_only: bool):
    """Compressed lengths c with 2c <= max_n, ascending."""
    if power_of_two_only:
        return [1 << p for p in range(1, (max_n // 2).bit_length())]
    return range(2, max_n // 2 + 1)


def plan_for_frequencies(
    sample_rate: float,
    targets,
    max_n: int,
    power_of_two_only: bool = True,
    tol: float = 0.0,
) -> PlanProposal:
    """Return the plan with the smallest feasible c and n = 2c <= max_n.

    Every target must sit within ``tol`` relative error of a retained bin
    (default 0: exact hits only).  :class:`OutOfRangeError` unless ``tol``
    is a finite non-negative number, sample_rate a finite positive one,
    each target inside (0, sample_rate/2) and max_n an integer size.  Raises
    :class:`InfeasibleError` with the best achievable error when nothing
    fits.  The scan is linear in max_n when ``power_of_two_only`` is off;
    it scores each c in integers and builds a plan only for the one it returns.
    """
    targets = [_real("target", t) for t in targets]
    tol = _tolerance(tol)
    sample_rate = _real("sample_rate", sample_rate)
    if sample_rate <= 0:
        raise OutOfRangeError(f"sample_rate must be positive, got {sample_rate}")
    if not targets:
        raise OutOfRangeError("need at least one target frequency")
    for t in targets:
        if not 0.0 < t < sample_rate / 2:
            raise OutOfRangeError(f"target {t} Hz outside (0, {sample_rate / 2}) Hz")
    max_n = _size("max_n", max_n, 4)

    ratios, fs_ratio = [(t, t.as_integer_ratio()) for t in targets], sample_rate.as_integer_ratio()
    best_err = float("inf")  # every rel_error is finite and c = 2 is a candidate: a best plan exists
    for c in _candidate_cs(max_n, power_of_two_only):
        worst = max(_nearest(t, ratio, fs_ratio, c)[2] for t, ratio in ratios)
        if worst <= tol:
            plan = RicPlan(2 * c, c)
            return PlanProposal(plan, sample_rate, sample_rate / plan.n,
                                tuple(_assign(t, plan, sample_rate) for t in targets))
        if worst < best_err:
            best_err, best_c = worst, c
    raise InfeasibleError(
        f"no plan with n <= {max_n} hits all targets within tol={tol}; "
        f"best achievable rel_error={best_err:.6g} at n={2 * best_c}, c={best_c}",
        best_rel_error=best_err,
        best_plan=RicPlan(2 * best_c, best_c),
    )


def coverage_report(proposal: PlanProposal, extra_targets) -> list[Assignment]:
    """Map extra frequencies onto the proposal's retained bins (read-only).

    Nearest retained bin wins; exact midpoints resolve to the lower bin.
    A target that is negative or not a finite number raises OutOfRangeError.
    """
    return [_assign(_real("target", t, 0.0), proposal.plan, proposal.sample_rate) for t in extra_targets]
