"""In-memory spans for the traced benchmark run, and the per-layer metrics
derived from them.

A span is ``[op, name, parent, start_ns, end_ns, attrs]``: ``op`` is the
operation id shared by every span of one operation, ``parent`` the index of
the span that caused it (None for the operation itself).  Replayed stage
spans run after the call they decompose, so their parent is that call's
span even though they lie outside its interval.  Spans stay in memory until
the run ends and :func:`write` saves them.
"""

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

FOLD = ("fold.fold", "fold.fold_spectrum")
ENGINE = ("engine.transform", "ric.oracle")  # ric.oracle runs the direct engine
RIC_CALLS = ("ric.dft", "ric.idft")
IO = ("io.read_signal", "io.write_signal", "io.write_spectrum")
PLANNER = ("planner.plan", "planner.plan_any_n", "planner.infeasible")


class Tracer:
    def __init__(self):
        self.spans = []
        self.count_errors = []

    def begin(self, op, name, parent=None, **attrs):
        self.spans.append([op, name, parent, time.perf_counter_ns(), 0, attrs])
        return len(self.spans) - 1

    def end(self, idx):
        self.spans[idx][4] = time.perf_counter_ns()

    @contextmanager
    def span(self, op, name, parent=None, **attrs):
        idx = self.begin(op, name, parent, **attrs)
        try:
            yield idx
        finally:
            self.end(idx)

    def parent(self, idx):
        return self.spans[idx][2]

    def count(self, idx, counter, expected, nbytes):
        """Attach an OpCounter's tallies to a span and check its closed form.

        ``expected`` is (complex_adds, complex_mults); ``nbytes`` the bytes
        of the arrays the stage reads and writes, computed from their sizes.
        """
        got = (counter.complex_adds, counter.complex_mults)
        attrs = self.spans[idx][5]
        attrs.update(adds=got[0], mults=got[1], bytes=nbytes)
        if got != tuple(expected):
            self.count_errors.append(
                f"{self.spans[idx][1]} c={attrs.get('c')}: counted {got}, closed form {tuple(expected)}"
            )


def _ms(span):
    return (span[4] - span[3]) / 1e6


def _median(values):
    return statistics.median(values) if values else 0.0


def per_layer(tracer, share, op_ids):
    """Per-layer metrics: per-operation sums, then the median over the
    operations that ran the stage (0 when none did).

    A workload whose frames alternate direction runs fold.fold in half of
    its operations and fold.fold_spectrum in the other half; taking the
    median over all operations would mix the two.

    ``share`` is (numerator span names, denominator span names, minimum c):
    the share of the denominator's time spent in the numerator's spans,
    summed over the whole run, over spans with attribute c >= minimum c.
    """
    by_op = defaultdict(list)
    for span in tracer.spans:
        by_op[span[0]].append(span)
    rows = []
    for op in op_ids:
        spans = by_op[op]

        def total(wanted, field=None):
            """Sum over the op's spans named in ``wanted``; None if there are none."""
            hits = [s for s in spans if s[1] in wanted]
            if not hits:
                return None
            if field is None:
                return sum(_ms(s) for s in hits)
            return sum(s[5].get(field, 0) for s in hits)

        def unattributed(parents):
            calls = total(parents)
            if calls is None:
                return None
            return calls - sum(_ms(s) for s in spans if s[2] is not None and tracer.spans[s[2]][1] in parents)

        def ratio(a, b, scale=1.0):
            return scale * a / b if a is not None and b else None

        fold_bytes = total(FOLD, "bytes")
        eng_adds = total(ENGINE, "adds")
        eng_ops = None if eng_adds is None else eng_adds + total(ENGINE, "mults")
        eng_bytes = total(ENGINE, "bytes")
        rows.append({
            "fold.fold_ms": total(("fold.fold",)),
            "fold.fold_spectrum_ms": total(("fold.fold_spectrum",)),
            "fold.complex_adds": total(FOLD, "adds"),
            "fold.bytes_computed": fold_bytes,
            "fold.ops_per_byte_computed": ratio(total(FOLD, "adds"), fold_bytes),
            "fold.gb_per_s_computed": ratio(fold_bytes, total(FOLD), 1e-6),  # B/ms to GB/s
            "engine.transform_ms": total(("engine.transform",)),
            "engine.complex_adds": eng_adds,
            "engine.complex_mults": total(ENGINE, "mults"),
            "engine.bytes_computed": eng_bytes,
            "engine.ops_per_byte_computed": ratio(eng_ops, eng_bytes),
            "engine.npfft_ms": total(("engine.npfft",)),
            "core.validate_ms": total(("core.validate",)),
            "ric.dft_ms": total(("ric.dft",)),
            "ric.idft_ms": total(("ric.idft",)),
            "ric.scale_ms": total(("ric.scale",)),
            "ric.unattributed_ms": unattributed(RIC_CALLS),
            "ric.oracle_ms": total(("ric.oracle",)),
            "ric.compare_ms": total(("ric.compare",)),
            "planner.plan_ms": total(("planner.plan",)),
            "planner.plan_any_n_ms": total(("planner.plan_any_n",)),
            "planner.infeasible_ms": total(("planner.infeasible",)),
            "io.read_signal_ms": total(("io.read_signal",)),
            "io.write_signal_ms": total(("io.write_signal",)),
            "io.write_spectrum_ms": total(("io.write_spectrum",)),
            "io.bytes_read": total(IO, "bytes_read"),
            "io.bytes_written": total(IO, "bytes_written"),
            "cli.main_ms": total(("cli.main",)),
            "cli.unattributed_ms": unattributed(("cli.main",)),
        })
    metrics = {key: _median([row[key] for row in rows if row[key] is not None]) for key in rows[0]}

    num, den, min_c = share
    kept = [s for s in tracer.spans if (s[5].get("c") or 0) >= min_c]
    den_ms = sum(_ms(s) for s in kept if s[1] in den)
    metrics["trace.target_share_pct"] = 100.0 * sum(_ms(s) for s in kept if s[1] in num) / den_ms if den_ms else 0.0
    return metrics


def write(path, tracer, header):
    doc = dict(header)
    doc["span_fields"] = ["op", "name", "parent", "start_ns", "end_ns", "attrs"]
    doc["spans"] = tracer.spans
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")
