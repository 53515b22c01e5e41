"""Seeded inputs, the four closed-loop workloads, and their output checks.

Each workload drives one public entry point of ``secrecy221`` with one
caller, one thread and no think time.  Its inputs are drawn from
``numpy.random.default_rng(seed)`` and classified here, with numpy, so that
a change to the library's own generator or classifier cannot change what a
workload runs.

Work is issued in *chunks*: a chunk runs a fixed slice of the input suite
back to back, recording the latency of every op, and its outputs are checked
only after the chunk ends, so checking never sits inside a timed region.
"""

from __future__ import annotations

import io
import json
import math
import sys
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from time import perf_counter

import numpy as np

# Inputs keep this relative margin from the degradedness boundary
# ||H^-T g|| = 1 and this floor on sigma_min / sigma_max of H.
EVE_MARGIN = 0.1
SV_RATIO_MIN = 0.1

# The sweep covers the whole SNR envelope, ten steps per decade.
SWEEP_PMIN = 1e-2
SWEEP_PMAX = 1e10
SWEEP_STEPS = 121
SWEEP_ARGV = (
    "--pmin", repr(SWEEP_PMIN), "--pmax", repr(SWEEP_PMAX),
    "--steps", str(SWEEP_STEPS), "--log-spacing",
)
SWEEP_HEADER = "P,capacity_nats,capacity_bits,lambda1,verdict\n"
VERDICTS = ("Tight", "NotTight", "Inapplicable")

# The CLI's exit codes: 0 success, 1 error, 2 a check failed (NotTight or
# oracle out of tolerance).  RAISED marks an op that raised instead.
EXIT_OK, EXIT_ERROR, EXIT_CHECK_FAILED, RAISED = 0, 1, 2, -1


def capacity_tolerance(power):
    """Relative tolerance between the library's capacity and the numpy one.

    Both sides lose about eps * P of relative accuracy in the top
    generalized eigenvalue, so the gate grows with P: 1e-12 at P = 1 and
    1e-4 at P = 1e10, where the two were measured ~3e-7 apart at most.
    """
    return 1e-12 + 1e-14 * power


def beam_capacity(h, g, power):
    """(1/2) log of the top eigenvalue of (I + P g g^T)^-1 (I + P H^T H).

    Batched over leading axes with numpy.linalg; this is the optimal-beam
    rate, which is the secrecy capacity on General channels.
    """
    h = np.asarray(h, dtype=float)
    g = np.asarray(g, dtype=float)
    p = np.asarray(power, dtype=float)[..., None, None]
    eye = np.eye(2)
    a = eye + p * np.einsum("...ki,...kj->...ij", h, h)
    b = eye + p * (g[..., :, None] * g[..., None, :])
    lam = np.linalg.eigvals(np.linalg.solve(b, a)).real.max(axis=-1)
    return 0.5 * np.log(lam)


def draw_channels(rng, count, degraded):
    """``count`` channels with i.i.d. N(0, 1) gains, of the requested class.

    General means ||H^-T g|| > 1 + EVE_MARGIN and Degraded means
    ||H^-T g|| < 1 - EVE_MARGIN; both require a well-conditioned H.
    Returns arrays H (count, 2, 2) and g (count, 2).
    """
    hs, gs = [], []
    while len(hs) < count:
        h = rng.standard_normal((256, 2, 2))
        g = rng.standard_normal((256, 2))
        sv = np.linalg.svd(h, compute_uv=False)
        eve = np.linalg.norm(
            np.linalg.solve(np.swapaxes(h, 1, 2), g[..., None])[..., 0], axis=1
        )
        if degraded:
            kind_ok = eve < 1.0 - EVE_MARGIN
        else:
            kind_ok = eve > 1.0 + EVE_MARGIN
        keep = kind_ok & (sv[:, 1] > SV_RATIO_MIN * sv[:, 0])
        hs.extend(h[keep])
        gs.extend(g[keep])
    return np.array(hs[:count]), np.array(gs[:count])


def channel_spec(h, g, power):
    """The CLI's JSON channel spec for one channel."""
    return json.dumps({"H": h.tolist(), "g": g.tolist(), "P": power})


@dataclass
class Tally:
    """Checked outcomes: ops attempted, ops failed, and the verdict counts."""

    ops: int = 0
    errors: int = 0
    tight: int = 0  # certificates (or sweep rows) with verdict Tight
    passes: int = 0  # oracle reports with "passes": true

    def add(self, other: "Tally") -> None:
        self.ops += other.ops
        self.errors += other.errors
        self.tight += other.tight
        self.passes += other.passes


class Capture:
    """Stand-in for stdout/stderr that keeps each write and when it happened."""

    def __init__(self):
        self.parts: list[str] = []
        self.stamps: list[float] = []

    def write(self, text):
        self.stamps.append(perf_counter())
        self.parts.append(text)
        return len(text)

    def flush(self):
        pass


@contextmanager
def cli_streams(out, err):
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        yield
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved


def call_cli(main, argv):
    """Run the CLI in-process and return its exit code (RAISED if it raised)."""
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        return exc.code if isinstance(exc.code, int) else EXIT_ERROR
    except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
        traceback.print_exc(file=sys.__stderr__)
        return RAISED


class Workload:
    """One named workload over a seeded input suite.

    ``run(k)`` executes chunk k closed-loop and returns the per-op latencies
    in seconds with the raw outputs; ``check(raw)`` turns those outputs into
    a Tally.  Construction generates the inputs and, with ``warm_up``, is
    part of set-up.
    """

    name = ""
    chunk_inputs = 1  # suite entries per chunk
    warm_up_inputs = 1
    count_chunks = 1  # chunks in the traced run's counting pass
    # Fixed per workload so that runs stay comparable; chosen to leave at
    # least ten samples beyond it even at a quarter of today's throughput.
    tail_percentile = 99.0
    # Weight of the numpy kernel in the machine-speed reference.
    numpy_weight = 0.5

    def __init__(self, modules, seed):
        self.modules = modules  # layer name -> module of the package
        self.failures: list[str] = []

    def run(self, k):
        first = k * self.chunk_inputs
        return self.run_ops([(first + j) % self.suite for j in range(self.chunk_inputs)])

    def warm_up(self):
        self.run_ops(list(range(self.warm_up_inputs)))

    def fail(self, tally, reason):
        tally.errors += 1
        if len(self.failures) < 5:
            self.failures.append(reason)


class Certify(Workload):
    """`capacity` verb on General channels at P = 1, JSON to stdout."""

    name = "certify"
    chunk_inputs = 50
    warm_up_inputs = 5
    count_chunks = 4
    suite = 1000

    def __init__(self, modules, seed):
        super().__init__(modules, seed)
        self.h, self.g = draw_channels(np.random.default_rng(seed), self.suite, False)
        self.specs = [channel_spec(h, g, 1.0) for h, g in zip(self.h, self.g)]

    @cached_property
    def expected(self):
        return beam_capacity(self.h, self.g, np.ones(self.suite))

    def run_ops(self, indices):
        main = self.modules["cli"].main
        out, err = Capture(), Capture()
        lat, raw = [], []
        with cli_streams(out, err):
            for i in indices:
                sys.stdin = io.StringIO(self.specs[i])
                mark = len(out.parts)
                t0 = perf_counter()
                code = call_cli(main, ["capacity", "-"])
                lat.append(perf_counter() - t0)
                raw.append((i, code, "".join(out.parts[mark:])))
        return lat, raw

    def check(self, raw):
        tally = Tally()
        for i, code, text in raw:
            tally.ops += 1
            if code not in (EXIT_OK, EXIT_CHECK_FAILED):
                self.fail(tally, f"channel {i}: exit code {code}")
                continue
            try:
                doc = json.loads(text)
                cap = float(doc["capacity_nats"])
                verdict = doc["verdict"]
            except (ValueError, KeyError, TypeError) as exc:
                self.fail(tally, f"channel {i}: unreadable certificate ({exc})")
                continue
            ref = float(self.expected[i])
            if not abs(cap - ref) <= capacity_tolerance(1.0) * max(1.0, abs(ref)):
                self.fail(tally, f"channel {i}: capacity {cap!r}, numpy says {ref!r}")
            elif (code == EXIT_CHECK_FAILED) != (verdict == "NotTight"):
                self.fail(tally, f"channel {i}: exit code {code} with verdict {verdict}")
            else:
                tally.tight += verdict == "Tight"
        return tally


class Sweep(Workload):
    """`sweep` verb over the SNR envelope; one op is one CSV row."""

    name = "sweep"
    chunk_inputs = 1  # one channel, i.e. SWEEP_STEPS rows
    tail_percentile = 99.9
    suite = 100
    count_chunks = suite  # the envelope table covers the whole suite once

    def __init__(self, modules, seed):
        super().__init__(modules, seed)
        self.h, self.g = draw_channels(np.random.default_rng(seed), self.suite, False)
        self.specs = [channel_spec(h, g, 1.0) for h, g in zip(self.h, self.g)]

    def run_ops(self, indices):
        main = self.modules["cli"].main
        lat, raw = [], []
        for i in indices:
            out, err = Capture(), Capture()
            with cli_streams(out, err):
                sys.stdin = io.StringIO(self.specs[i])
                t0 = perf_counter()
                code = call_cli(main, ["sweep", "-", *SWEEP_ARGV])
            # The header is the first write and each later write one row, so
            # a row's latency runs from the previous write (or the call) to it.
            stamps = [t0, *out.stamps[1:]]
            lat.extend(b - a for a, b in zip(stamps, stamps[1:]))
            raw.append((i, code, out.parts))
        return lat, raw

    def check(self, raw):
        tally = Tally()
        for call in raw:
            tally.add(self._check_call(*call))
        return tally

    def _check_call(self, i, code, parts):
        tally = Tally(ops=SWEEP_STEPS)
        rows = [p.rstrip("\n").split(",") for p in parts[1:]]
        if code != EXIT_OK or not parts or parts[0] != SWEEP_HEADER:
            self.fail(tally, f"channel {i}: exit code {code}, {len(parts)} writes")
            tally.errors = SWEEP_STEPS
            return tally
        if len(rows) != SWEEP_STEPS:
            self.fail(tally, f"channel {i}: {len(rows)} rows")
            tally.errors = max(SWEEP_STEPS - len(rows), 1)
        powers, caps = [], []
        for row in rows[:SWEEP_STEPS]:
            if len(row) != 5 or row[4] not in VERDICTS:
                self.fail(tally, f"channel {i}: malformed row {row!r}")
                continue
            powers.append(float(row[0]))
            caps.append(float(row[1]))
            tally.tight += row[4] == "Tight"
        if powers:
            p = np.array(powers)
            ref = beam_capacity(self.h[i], self.g[i], p)
            tol = capacity_tolerance(p) * np.maximum(1.0, np.abs(ref))
            for power, cap, r, t in zip(powers, caps, ref, tol):
                if not abs(cap - r) <= t:
                    self.fail(tally, f"channel {i} at P={power!r}: {cap!r}, numpy says {float(r)!r}")
        tally.errors = min(tally.errors, tally.ops)
        return tally


class Degraded(Workload):
    """`capacity_certificate` called directly on Degraded channels at P = 1."""

    name = "degraded"
    chunk_inputs = 10
    warm_up_inputs = 2
    numpy_weight = 1.0
    count_chunks = 5
    suite = 200

    def __init__(self, modules, seed):
        super().__init__(modules, seed)
        self.h, self.g = draw_channels(np.random.default_rng(seed), self.suite, True)
        channel = modules["channel"].WiretapChannel
        self.channels = [
            channel(tuple(map(tuple, h.tolist())), tuple(g.tolist()), 1.0)
            for h, g in zip(self.h, self.g)
        ]

    @cached_property
    def bounds(self):
        """Per channel: the numpy beam rate and log(1 + P sigma_max^2).

        A Gaussian secrecy rate lies between the two: the beam is one
        admissible input, and each of the two streams carries at most
        (1/2) log(1 + P sigma_max^2) to the receiver.
        """
        beam = beam_capacity(self.h, self.g, np.ones(self.suite))
        smax = np.linalg.svd(self.h, compute_uv=False)[:, 0]
        return beam, np.log1p(smax * smax)

    def run_ops(self, indices):
        certify = self.modules["converse"].capacity_certificate
        lat, raw = [], []
        for i in indices:
            ch = self.channels[i]
            t0 = perf_counter()
            try:
                cert = certify(ch)
            except Exception as exc:  # noqa: BLE001 - a failed op is counted
                cert = exc
            lat.append(perf_counter() - t0)
            raw.append((i, cert))
        return lat, raw

    def check(self, raw):
        tally = Tally()
        beam, ceiling = self.bounds
        for i, cert in raw:
            tally.ops += 1
            if isinstance(cert, Exception):
                self.fail(tally, f"channel {i}: {type(cert).__name__}: {cert}")
                continue
            value = cert.capacity_nats
            floor = beam[i] - capacity_tolerance(1.0) * max(1.0, abs(beam[i]))
            if not (math.isfinite(value) and floor <= value <= ceiling[i]):
                low, high = float(beam[i]), float(ceiling[i])
                self.fail(tally, f"channel {i}: {value!r} outside [{low!r}, {high!r}]")
            else:
                tally.tight += cert.verdict == "Tight"
        return tally


class Oracle(Workload):
    """`oracle` verb at its defaults (--grid 256 --samples 32), JSON report."""

    name = "oracle"
    chunk_inputs = 4
    tail_percentile = 90.0
    numpy_weight = 0.75
    count_chunks = 2
    suite = 64

    def __init__(self, modules, seed):
        super().__init__(modules, seed)
        self.h, self.g = draw_channels(np.random.default_rng(seed), self.suite, False)
        self.specs = [channel_spec(h, g, 1.0) for h, g in zip(self.h, self.g)]

    @cached_property
    def expected(self):
        return beam_capacity(self.h, self.g, np.ones(self.suite))

    def run_ops(self, indices):
        main = self.modules["cli"].main
        out, err = Capture(), Capture()
        lat, raw = [], []
        with cli_streams(out, err):
            for i in indices:
                sys.stdin = io.StringIO(self.specs[i])
                mark = len(out.parts)
                t0 = perf_counter()
                code = call_cli(main, ["oracle", "-"])
                lat.append(perf_counter() - t0)
                raw.append((i, code, "".join(out.parts[mark:])))
        return lat, raw

    def check(self, raw):
        tally = Tally()
        for i, code, text in raw:
            tally.ops += 1
            try:
                doc = json.loads(text)
                passes = doc["passes"]
                rate = float(doc["closed_form"]["rate_nats"])
            except (ValueError, KeyError, TypeError) as exc:
                self.fail(tally, f"channel {i}: exit code {code}, unreadable report ({exc})")
                continue
            ref = float(self.expected[i])
            if code != (EXIT_OK if passes is True else EXIT_CHECK_FAILED):
                self.fail(tally, f"channel {i}: exit code {code} with passes={passes!r}")
            elif doc.get("class") != "General":
                self.fail(tally, f"channel {i}: classified {doc.get('class')!r}")
            elif not abs(rate - ref) <= capacity_tolerance(1.0) * max(1.0, abs(ref)):
                self.fail(tally, f"channel {i}: beam rate {rate!r}, numpy says {ref!r}")
            else:
                tally.passes += passes is True
        return tally


WORKLOADS = {w.name: w for w in (Certify, Sweep, Degraded, Oracle)}
