"""The four workloads.

Each workload makes its inputs from a seeded generator and defines one
operation: one seeded input taken through a fixed list of calls into the
public API.  For every call it also gives the np.fft equivalent (the
baseline), a correctness check against references computed with np.fft,
and a traced replay of the call's stages through public functions.

``m`` is a namespace holding the ricdft modules core, fold, engine, ric,
planner, io and cli.
"""

import contextlib
import io as stdio
import json
import math
import os

import numpy as np

from tracing import FOLD, IO, PLANNER, RIC_CALLS

RTOL = 1e-9

# np.fft norm giving each (direction, mode) convention of the package.
NPFFT_NORM = {
    ("forward", "none"): "backward",
    ("forward", "recip-n"): "backward",
    ("forward", "unitary"): "ortho",
    ("inverse", "none"): "forward",
    ("inverse", "recip-n"): "backward",
    ("inverse", "unitary"): "ortho",
}


def npfft(x, direction, mode, l):
    """Retained coefficients from a full-length np.fft call and slicing."""
    norm = NPFFT_NORM[(direction.value, mode.value)]
    full = np.fft.ifft(x, norm=norm) if direction.value == "inverse" else np.fft.fft(x, norm=norm)
    return full[::l]


def rel_error(got, ref):
    """Normwise relative error: max |got - ref| over max |ref|."""
    got = np.asarray(got)
    if got.shape != ref.shape:
        return math.inf
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


def complex_frame(rng, n):
    return rng.standard_normal(2 * n).view(np.complex128)


def radix2_counts(c):
    """(complex_adds, complex_mults) of the radix-2 engine at length c."""
    p = c.bit_length() - 1
    return c * p, (c // 2) * p


def traced_fold(m, tracer, op, parent, plan, x, inverse):
    """fold or fold_spectrum in a span, with its count checked."""
    counter = m.core.OpCounter()
    fold = m.fold.fold_spectrum if inverse else m.fold.fold
    with tracer.span(op, FOLD[inverse], parent, c=plan.c) as idx:
        folded = fold(x, plan, counter)
    tracer.count(idx, counter, (plan.c * (plan.l - 1), 0), 16 * (plan.n + plan.c))
    return folded


def ric_stages(m, tracer, op, parent, direction, mode, plan, x):
    """Replay ric_dft/ric_idft stage by stage, checking each stage's counts.

    The scaled values are not returned: the replay only times the stages.
    """
    c = plan.c
    with tracer.span(op, "core.validate", parent, c=c):
        x = m.core.as_complex_sequence(x)
    folded = traced_fold(m, tracer, op, parent, plan, x, direction.value == "inverse")
    counter = m.core.OpCounter()
    with tracer.span(op, "engine.transform", parent, c=c) as idx:
        values = m.engine.transform(folded.samples, direction, mode, counter)
    tracer.count(idx, counter, radix2_counts(c), 32 * c)
    k = m.core.correction_factor(mode, direction, plan)
    if k != 1.0:
        with tracer.span(op, "ric.scale", parent, c=c):
            values = values * k


def traced_ric(m, tracer, op, parent, direction, mode, plan, x):
    """ric_dft or ric_idft in a span, then its stages replayed under it."""
    inverse = direction.value == "inverse"
    fn = m.ric.ric_idft if inverse else m.ric.ric_dft
    with tracer.span(op, RIC_CALLS[inverse], parent, c=plan.c) as idx:
        spectrum = fn(x, plan, mode)
    ric_stages(m, tracer, op, idx, direction, mode, plan, x)
    return spectrum


class RicCall:
    """One ric_dft or ric_idft call on frame ``frame``."""

    def __init__(self, m, direction, mode, plan, frame):
        self.direction, self.mode, self.plan, self.frame = direction, mode, plan, frame
        self.c = plan.c
        inverse = direction.value == "inverse"
        self.name = RIC_CALLS[inverse]
        self.fn = m.ric.ric_idft if inverse else m.ric.ric_dft


class FrameWorkload:
    """Base of the workloads whose calls run on in-memory frames."""

    share = (FOLD, RIC_CALLS, 0)

    def __init__(self, m, seed, workdir):
        rng = np.random.default_rng(seed)
        self.m = m
        self.frames = [complex_frame(rng, self.N) for _ in range(self.FRAMES)]
        self.plans = [m.core.make_plan(self.N, c) for c in self.CS]
        self.refs = None

    def working_set(self):
        frame = self.N * 16
        return {"frame_bytes": frame, "pool_bytes": frame * self.FRAMES}

    def make_references(self):
        """Unscaled full-length transforms of each frame in the direction it is used."""
        self.refs = {}
        for i in range(2 * self.FRAMES):
            for call in self.calls(i):
                key = (call.frame, call.direction.value)
                if key not in self.refs:
                    x = self.frames[call.frame]
                    inverse = call.direction.value == "inverse"
                    self.refs[key] = np.fft.ifft(x, norm="forward") if inverse else np.fft.fft(x)

    def reference(self, call):
        full = self.refs[(call.frame, call.direction.value)]
        scale = 1.0
        if call.mode.value == "unitary":
            scale = 1.0 / math.sqrt(self.N)
        elif call.mode.value == "recip-n" and call.direction.value == "inverse":
            scale = 1.0 / self.N
        return full[:: call.plan.l] * scale

    def alternating(self, i, call_type):
        """Calls at every c; frames alternate between the forward (mode none)
        and inverse (recip-n) directions."""
        core = self.m.core
        inverse = i % 2 == 1
        direction = core.Direction.INVERSE if inverse else core.Direction.FORWARD
        mode = core.NormalizationMode.RECIPROCAL_N if inverse else core.NormalizationMode.NONE
        frame = i % self.FRAMES
        return [call_type(self.m, direction, mode, plan, frame) for plan in self.plans]

    def run(self, call):
        return call.fn(self.frames[call.frame], call.plan, call.mode)

    def baseline(self, call):
        npfft(self.frames[call.frame], call.direction, call.mode, call.plan.l)

    def check(self, call, out):
        if not np.array_equal(out.indices, np.arange(call.plan.c) * call.plan.l):
            return math.inf
        return rel_error(out.values, self.reference(call))

    def replay(self, tracer, op, call, call_span):
        ric_stages(self.m, tracer, op, call_span, call.direction, call.mode, call.plan,
                   self.frames[call.frame])
        with tracer.span(op, "engine.npfft", tracer.parent(call_span), c=call.plan.c):
            self.baseline(call)


class FoldBound(FrameWorkload):
    """n = 2^16, c in {2, ..., 64}: the fold dominates every call.

    Alternating directions runs both fold entry points.  Each frame fits
    in L2: at n = 2^20 the np.fft pairing is bound by the shared last-level
    cache and memory, and slows less than the fold's Python row loop when
    the host is busy, so speedup_vs_npfft swung with the host's load.  The
    pool of 64 frames (64 MiB) is larger than L2, so each operation reads
    its frame from the last-level cache.
    """

    N = 1 << 16
    CS = tuple(2 ** p for p in range(1, 7))
    FRAMES = 64

    def calls(self, i):
        return self.alternating(i, RicCall)


class TransformBound(FrameWorkload):
    """n = 2^18, c in {2^12, ..., 2^17}: the c-point transform dominates at large c.

    Every c runs both directions; the normalization mode cycles over c, so
    each direction sees all three modes.
    """

    N = 1 << 18
    CS = tuple(2 ** p for p in range(12, 18))
    FRAMES = 8
    share = (("engine.transform",), RIC_CALLS, 1 << 15)

    def calls(self, i):
        core = self.m.core
        modes = list(core.NormalizationMode)
        signal = 2 * (i % (self.FRAMES // 2))
        calls = []
        for j, plan in enumerate(self.plans):
            mode = modes[j % len(modes)]
            calls.append(RicCall(self.m, core.Direction.FORWARD, mode, plan, signal))
            calls.append(RicCall(self.m, core.Direction.INVERSE, mode, plan, signal + 1))
        return calls


class VerifyCall(RicCall):
    def __init__(self, *args):
        super().__init__(*args)
        self.name = "ric.verify"


class VerifyOracle(FrameWorkload):
    """verify_against_oracle at n = 4096, c in {8, 64, 512}: the O(n^2) oracle dominates."""

    N = 4096
    CS = (8, 64, 512)
    FRAMES = 8
    share = (("ric.oracle",), ("ric.verify",), 0)

    def calls(self, i):
        return self.alternating(i, VerifyCall)

    def run(self, call):
        return self.m.ric.verify_against_oracle(self.frames[call.frame], call.plan, call.mode, call.direction)

    def check(self, call, report):
        return report.max_rel_error if report.passed else math.inf

    def replay(self, tracer, op, call, call_span):
        m, x, plan = self.m, self.frames[call.frame], call.plan
        got = traced_ric(m, tracer, op, call_span, call.direction, call.mode, plan, x).values
        counter = m.core.OpCounter()
        with tracer.span(op, "ric.oracle", call_span, c=plan.c) as idx:
            oracle = m.engine.dft_direct(x, call.direction, call.mode, counter)[m.ric.ric_index_set(plan)]
        tracer.count(idx, counter, (self.N * (self.N - 1), self.N * self.N), 32 * self.N)
        with tracer.span(op, "ric.compare", call_span, c=plan.c):
            m.ric.compare_values(got, oracle)
        with tracer.span(op, "engine.npfft", tracer.parent(call_span), c=plan.c):
            self.baseline(call)


class CliCall:
    name = "cli.main"
    c = None

    def __init__(self, kind, argv, code):
        self.kind, self.argv, self.code = kind, argv, code


class CliFiles:
    """In-process ricdft.cli.main on seeded n = 2^16 files in csv and raw-f64.

    Reading the csv input and the planner's searches dominate; the
    transforms themselves are small.
    """

    N = 1 << 16
    C = 256
    MAX_N = 4096
    ANY_N_MAX_N = 2048
    INFEASIBLE_MAX_N = 1024
    C0 = 16
    share = (IO + PLANNER, ("cli.main",), 0)

    def __init__(self, m, seed, workdir):
        rng = np.random.default_rng(seed)
        self.m = m
        self.plan = m.core.make_plan(self.N, self.C)
        self.plans = [self.plan]
        self.x = complex_frame(rng, self.N)
        self.spec = complex_frame(rng, self.N)
        self.path = {name: os.path.join(workdir, name) for name in
                     ("x.csv", "x.f64", "X.f64", "dft.csv", "idft.json", "fold.f64",
                      "replay-dft.csv", "replay-idft.json", "replay-fold.f64")}
        m.io.write_signal(self.x, self.path["x.csv"], "csv")
        m.io.write_signal(self.x, self.path["x.f64"], "raw-f64")
        m.io.write_signal(self.spec, self.path["X.f64"], "raw-f64")
        # Targets on an exact grid: fs = n0 * bin_hz, targets k * (n0 / C0) * bin_hz.
        # A plan hits them all iff C0 divides k * c for every k; with odd k the
        # cheapest plan has c = C0 whatever the seed, so the search cost is fixed.
        n0 = 2 ** int(rng.integers(9, 12))
        bin_hz = int(rng.integers(1, 8))
        ks = rng.choice(np.arange(1, self.C0 // 2, 2), size=3, replace=False)
        self.fs = float(n0 * bin_hz)
        self.targets = sorted(int(k) * (n0 // self.C0) * bin_hz for k in ks)
        self.infeasible_target = self.fs * 0.1234567891
        self.refs = None

    def working_set(self):
        sizes = {name: os.path.getsize(self.path[name]) for name in ("x.csv", "x.f64", "X.f64")}
        return {"frame_bytes": self.N * 16, "input_file_bytes": sizes}

    def make_references(self):
        l = self.plan.l
        self.refs = {
            "dft": np.fft.fft(self.x)[::l],
            "idft": np.fft.ifft(self.spec)[::l],
            "compress": self.x.reshape(l, self.C).sum(axis=0),
        }

    def calls(self, i):
        p, n, c = self.path, str(self.N), str(self.C)
        targets = ",".join(str(t) for t in self.targets)
        plan = ["plan", "--sample-rate", repr(self.fs), "--json"]
        return [
            CliCall("dft", ["dft", "--in", p["x.csv"], "--out", p["dft.csv"],
                            "--n", n, "--c", c, "--mode", "none"], 0),
            CliCall("idft", ["idft", "--in", p["X.f64"], "--in-format", "raw-f64",
                             "--out", p["idft.json"], "--out-format", "json",
                             "--n", n, "--c", c, "--mode", "recip-n"], 0),
            CliCall("compress", ["compress", "--in", p["x.f64"], "--in-format", "raw-f64",
                                 "--out", p["fold.f64"], "--out-format", "raw-f64",
                                 "--n", n, "--c", c], 0),
            CliCall("plan", plan + ["--targets", targets, "--max-n", str(self.MAX_N)], 0),
            CliCall("plan_any_n", plan + ["--targets", targets, "--max-n", str(self.ANY_N_MAX_N),
                                          "--any-n"], 0),
            CliCall("infeasible", plan + ["--targets", repr(self.infeasible_target),
                                          "--max-n", str(self.INFEASIBLE_MAX_N)], 2),
        ]

    def run(self, call):
        out, err = stdio.StringIO(), stdio.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.m.cli.main(call.argv)
        return code, out.getvalue()

    def baseline(self, call):
        l = self.plan.l
        if call.kind == "dft":
            np.fft.fft(self.x)[::l]
        elif call.kind == "idft":
            np.fft.ifft(self.spec)[::l]
        elif call.kind == "compress":
            self.x.reshape(l, self.C).sum(axis=0)

    def check(self, call, out):
        code, stdout = out
        if code != call.code:
            return math.inf
        p, l = self.path, self.plan.l
        if call.kind == "dft":
            rows = np.loadtxt(p["dft.csv"], delimiter=",", skiprows=1, ndmin=2)
            if not np.array_equal(rows[:, 1], np.arange(self.C) * l):
                return math.inf
            return rel_error(rows[:, 2] + 1j * rows[:, 3], self.refs["dft"])
        if call.kind == "idft":
            with open(p["idft.json"]) as fh:
                doc = json.load(fh)
            head = doc["header"]
            if (head["n"], head["c"], head["mode"], head["direction"]) != (self.N, self.C, "recip-n", "inverse"):
                return math.inf
            got = np.array([e["re"] + 1j * e["im"] for e in doc["entries"]])
            return rel_error(got, self.refs["idft"])
        if call.kind == "compress":
            return rel_error(np.fromfile(p["fold.f64"], dtype="<f8").view(np.complex128), self.refs["compress"])
        if call.kind == "infeasible":
            return 0.0
        max_n = self.ANY_N_MAX_N if call.kind == "plan_any_n" else self.MAX_N
        return 0.0 if self._plan_hits(json.loads(stdout), max_n, call.kind == "plan") else math.inf

    def _plan_hits(self, doc, max_n, power_of_two):
        """The proposed plan is valid and puts every target exactly on a retained bin."""
        n, c, l = doc["plan"]["n"], doc["plan"]["c"], doc["plan"]["l"]
        if n != c * l or not 2 <= c <= n // 2 or n > max_n:
            return False
        if power_of_two and (n & (n - 1) or c & (c - 1)):
            return False
        got = [a["target"] for a in doc["assignments"]]
        if got != [float(t) for t in self.targets]:
            return False
        for a in doc["assignments"]:
            k = a["k"]
            if not 0 <= k < c or a["bin_index"] != k * l:
                return False
            if abs(k * l * self.fs / n - a["target"]) > RTOL * a["target"]:
                return False
        return True

    def replay(self, tracer, op, call, call_span):
        m, p, plan = self.m, self.path, self.plan
        core = m.core
        if call.kind in ("dft", "idft"):
            inverse = call.kind == "idft"
            src, fmt = (p["X.f64"], "raw-f64") if inverse else (p["x.csv"], "csv")
            with tracer.span(op, "io.read_signal", call_span, bytes_read=os.path.getsize(src)):
                x = m.io.read_signal(src, fmt)
            direction = core.Direction.INVERSE if inverse else core.Direction.FORWARD
            mode = core.NormalizationMode.RECIPROCAL_N if inverse else core.NormalizationMode.NONE
            spectrum = traced_ric(m, tracer, op, call_span, direction, mode, plan, x)
            dst, fmt = (p["replay-idft.json"], "json") if inverse else (p["replay-dft.csv"], "csv")
            with tracer.span(op, "io.write_spectrum", call_span) as idx:
                m.io.write_spectrum(spectrum, dst, fmt)
            tracer.spans[idx][5]["bytes_written"] = os.path.getsize(dst)
        elif call.kind == "compress":
            with tracer.span(op, "io.read_signal", call_span, bytes_read=os.path.getsize(p["x.f64"])):
                x = m.io.read_signal(p["x.f64"], "raw-f64")
            folded = traced_fold(m, tracer, op, call_span, plan, x, inverse=False)
            with tracer.span(op, "io.write_signal", call_span) as idx:
                m.io.write_signal(folded.samples, p["replay-fold.f64"], "raw-f64")
            tracer.spans[idx][5]["bytes_written"] = os.path.getsize(p["replay-fold.f64"])
        elif call.kind in ("plan", "plan_any_n"):
            any_n = call.kind == "plan_any_n"
            max_n = self.ANY_N_MAX_N if any_n else self.MAX_N
            with tracer.span(op, "planner." + call.kind, call_span):
                m.planner.plan_for_frequencies(self.fs, self.targets, max_n, power_of_two_only=not any_n)
        else:
            with tracer.span(op, "planner.infeasible", call_span):
                try:
                    m.planner.plan_for_frequencies(self.fs, [self.infeasible_target], self.INFEASIBLE_MAX_N)
                except m.planner.InfeasibleError:
                    pass
        if call.kind in ("dft", "idft", "compress"):
            with tracer.span(op, "engine.npfft", tracer.parent(call_span)):
                self.baseline(call)


WORKLOADS = {
    "fold_bound": FoldBound,
    "transform_bound": TransformBound,
    "verify_oracle": VerifyOracle,
    "cli_files": CliFiles,
}
