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
and never on how the product was rounded.
"""

import math
from dataclasses import dataclass

from .core import OutOfRangeError, RicdftError, RicPlan, _size, _tolerance, make_plan


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


def _assign(target: float, plan: RicPlan, sample_rate: float) -> Assignment:
    """Map target onto the nearest retained bin; ties go to the lower bin."""
    num, den = float(sample_rate).as_integer_ratio()  # fs = num/den
    t_num, t_den = target.as_integer_ratio()

    def achieved(k: int) -> float:
        return (k * num) / (den * plan.c)  # k*fs/c; int/int division rounds once

    lo = min((t_num * den * plan.c) // (t_den * num), plan.c - 1)
    hi = min(lo + 1, plan.c - 1)
    k = hi if abs(achieved(hi) - target) < abs(achieved(lo) - target) else lo
    hz = achieved(k)
    rel = 0.0 if target == 0 else abs(hz - target) / target
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
    (default 0: exact hits only); a negative or non-finite ``tol`` raises
    :class:`OutOfRangeError`.  Targets must lie strictly inside
    (0, sample_rate/2), and max_n is an integer size.  Raises
    :class:`InfeasibleError` with the best achievable error when nothing
    fits.  The scan is linear in max_n when ``power_of_two_only`` is off.
    """
    targets = [float(t) for t in targets]
    tol = _tolerance(tol)
    if not (math.isfinite(sample_rate) and sample_rate > 0):
        raise OutOfRangeError(f"sample_rate must be positive and finite, got {sample_rate}")
    if not targets:
        raise OutOfRangeError("need at least one target frequency")
    for t in targets:
        if not 0.0 < t < sample_rate / 2:
            raise OutOfRangeError(f"target {t} Hz outside (0, {sample_rate / 2}) Hz")
    max_n = _size("max_n", max_n)
    if max_n < 4:
        raise OutOfRangeError(f"max_n={max_n} must be at least 4")

    best_err = float("inf")
    best_plan: RicPlan | None = None
    for c in _candidate_cs(max_n, power_of_two_only):
        plan = make_plan(2 * c, c)
        assignments = tuple(_assign(t, plan, sample_rate) for t in targets)
        worst = max(a.rel_error for a in assignments)
        if worst <= tol:
            return PlanProposal(
                plan=plan,
                sample_rate=float(sample_rate),
                bin_width=sample_rate / plan.n,
                assignments=assignments,
            )
        if worst < best_err:
            best_err = worst
            best_plan = plan
    detail = ""
    if best_plan is not None:
        detail = f"; best achievable rel_error={best_err:.6g} at n={best_plan.n}, c={best_plan.c}"
    raise InfeasibleError(
        f"no plan with n <= {max_n} hits all targets within tol={tol}{detail}",
        best_rel_error=best_err,
        best_plan=best_plan,
    )


def coverage_report(proposal: PlanProposal, extra_targets) -> list[Assignment]:
    """Map extra frequencies onto the proposal's retained bins (read-only).

    Nearest retained bin wins; exact midpoints resolve to the lower bin.
    """
    rows = []
    for t in extra_targets:
        t = float(t)
        if not 0 <= t < math.inf:
            raise OutOfRangeError(f"target {t} Hz is negative or non-finite")
        rows.append(_assign(t, proposal.plan, proposal.sample_rate))
    return rows
