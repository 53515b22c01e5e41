"""Benchmark for secrecy221: four closed-loop workloads and their layer metrics.

Usage, from the root of the repository:

    python3 benchmarks/run.py --workload certify --seed 1 --seconds 25 --trace 0

Workloads (benchmarks/README.md says why each was chosen):

    certify   the `capacity` verb in-process on General channels at P = 1
    sweep     the `sweep` verb in-process, P log-spaced over 1e-2 .. 1e10
    degraded  `capacity_certificate` called directly on Degraded channels
    oracle    the `oracle` verb in-process at --grid 256 --samples 32

The library is imported from ``src/`` next to this directory; nothing is
installed.  Inputs come from ``--seed`` alone.  Every output is checked
against an independent numpy computation.  ``--trace 0`` measures the
end-to-end metrics with nothing wrapped; ``--trace 1`` measures the
per-layer metrics declared in BENCHMARK.json instead.  Timings are scaled to
reference machine speed (see reference.py).  The last line of stdout is one
JSON object {correct, attempted, failed, metrics}; the lines before it print
every metric by name and unit.  Exits 1 if an output check failed and 2 if
the library or BENCHMARK.json cannot be found.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, like the single caller; this must precede numpy.
for _var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "secrecy221"
MODULES = ("cli", "converse", "achievable", "channel", "oracle", "matkit")

SETUP_REPEATS = 9
# Set-up (import, input generation) is interpreter-bound on every workload,
# so it is scaled with the interpreter-bound workloads' reference weight.
SETUP_NUMPY_WEIGHT = 0.5
TAIL_MIN_BEYOND = 10

# P values of the envelope table: one row per channel at each power of ten.
DECADES = range(-2, 11)

# Residual gates of the General certificate at this benchmark's definition,
# used only to name the first residual that made a certificate NotTight.
# The library's own verdict decides what counts as NotTight.
RESIDUAL_GATES = {
    "bound_gap_rel": 1e-9,
    "a_star_norm": 1.0 - 1e-9,
    "unit_coupling": 1e-9,
    "eigen_one_abs": 1e-8,
    "eigen_lambda1_rel": 1e-10,
    "sylvester_rel": 1e-10,
    "three_path_u_rel": 1e-10,
    "q_one_coupling": 1e-8,
    "q_one_fixed_point": 1e-8,
    "a_zero_norm": 1.0,
    "a_zero_orth": 1e-10,
}

# Printed with the declared metrics but left out of the JSON result: the
# outcome fractions are 0 or undefined on some workloads by design, and the
# two spans time a whole verb and a whole grid call.
EXTRA_UNITS = {
    "tight_fraction": "fraction",
    "oracle_pass_fraction": "fraction",
    "error_fraction": "fraction",
    "cli.main.us_p50": "us",
    "oracle.grid.us_p50": "us",
}

# glibc mallopt parameters.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3


def keep_freed_memory():
    """Have glibc malloc keep freed memory rather than return it to the OS.

    The grid engine allocates megabyte-sized numpy temporaries on every
    call.  With glibc's defaults each is a fresh mmap whose pages fault in on
    first touch, and on a shared machine the cost of those faults was seen
    to swing by 50% from one second to the next, far beyond the bounds.
    Reusing the memory leaves the computation itself to be measured.
    Returns False where this is not glibc.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return False
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    return bool(
        libc.mallopt(M_MMAP_THRESHOLD, 32 << 20) and libc.mallopt(M_TRIM_THRESHOLD, 256 << 20)
    )


def load_library():
    """Import a fresh copy of the package from SRC; return its modules by layer."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    if Path(pkg.__file__).resolve().parent != SRC / PACKAGE:
        raise ImportError(f"{PACKAGE} was imported from {pkg.__file__}, not {SRC}")
    return {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}


@dataclass
class Measurement:
    raw: list = field(default_factory=list)  # seconds per op, as timed
    scaled: list = field(default_factory=list)  # seconds per op at reference speed
    rates: list = field(default_factory=list)  # ops/s of each chunk at reference speed
    slowdowns: list = field(default_factory=list)  # measured after each chunk


def measure(workload, seconds, tally):
    """Run chunks closed-loop for ``seconds``.

    After each chunk its outputs are checked and the machine's slowdown is
    measured; the chunk's timings are scaled by that slowdown.
    """
    m = Measurement()
    deadline = perf_counter() + seconds
    k = 0
    while k == 0 or perf_counter() < deadline:
        t0 = perf_counter()
        lat, raw = workload.run(k)
        wall = perf_counter() - t0
        tally.add(workload.check(raw))
        slow = reference.slowdown(workload.numpy_weight)
        m.raw.extend(lat)
        m.scaled.extend(x / slow for x in lat)
        m.rates.append(len(lat) / wall * slow)
        m.slowdowns.append(slow)
        k += 1
    return m


def percentile(sorted_values, p):
    """Nearest-rank percentile: a value that was actually measured."""
    rank = math.ceil(p / 100.0 * len(sorted_values))
    return sorted_values[min(max(rank, 1), len(sorted_values)) - 1]


def end_to_end(workload, seconds, setup_s, tally):
    m = measure(workload, seconds, tally)
    lat = sorted(m.scaled)
    tail = workload.tail_percentile
    beyond = int(len(lat) * (100.0 - tail) / 100.0)
    values = {
        "setup_s": setup_s,
        "throughput_ops_per_s": statistics.median(m.rates),
        "latency_p50_us": percentile(lat, 50.0) * 1e6,
        "latency_tail_us": percentile(lat, tail) * 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} set-ups",
        "throughput_ops_per_s": f"median over {len(m.rates)} chunks",
        "latency_p50_us": f"{len(lat)} samples; unscaled "
        f"{statistics.median(m.raw) * 1e6:.6g} us",
        "latency_tail_us": f"p{tail:g}, {len(lat)} samples, {beyond} beyond it"
        + ("" if beyond >= TAIL_MIN_BEYOND else " (TOO FEW for a tail)"),
        "slowdown": f"median {statistics.median(m.slowdowns):.4g} x reference speed",
    }
    return values, notes


def first_failing_residual(cert):
    for name, value in cert.residuals.items():
        gate = RESIDUAL_GATES.get(name)
        if gate is not None and value > gate:
            return name
    return "unattributed"


def envelope(certificates):
    """Envelope table, NotTight breakdown and fallback share of the count pass."""
    values = {f"converse.tight_count.1e{d}": 0 for d in DECADES}
    values.update({f"converse.nottight.{r}": 0 for r in RESIDUAL_GATES})
    values["converse.nottight.unattributed"] = 0
    fallback = 0
    for power, cert in certificates:
        exponent = math.log10(power)
        decade = round(exponent)
        if cert.verdict == "Tight" and abs(exponent - decade) < 1e-6 and decade in DECADES:
            values[f"converse.tight_count.1e{decade}"] += 1
        if cert.verdict == "NotTight":
            values[f"converse.nottight.{first_failing_residual(cert)}"] += 1
        fallback += "tight_path_error" in cert.flags
    values["converse.fallback_fraction"] = fallback / max(len(certificates), 1)
    return values


def per_layer(workload, seconds, modules, tally):
    """Count pass, then an untraced and a traced half of ``seconds``."""
    counter = tracing.Tracer(modules)
    counter.install_counters()
    try:
        count_tally = workloads.Tally()
        for k in range(workload.count_chunks):
            _, raw = workload.run(k)
            count_tally.add(workload.check(raw))
            if k == 0:
                first = Counter(counter.calls)
        counts = Counter(counter.calls)
        certificates = list(counter.certificates)
        _, raw = workload.run(0)
        tally.add(workload.check(raw))
        repeats = Counter(counter.calls) - counts == first
    finally:
        counter.restore()
    tally.add(count_tally)

    plain = measure(workload, seconds / 2.0, tally)
    timer = tracing.Tracer(modules)
    timer.install_spans()
    try:
        traced = measure(workload, seconds / 2.0, tally)
    finally:
        timer.restore()

    # Span timings are scaled by the traced half's median slowdown.
    slow = statistics.median(traced.slowdowns)
    ops = len(traced.raw)
    n = count_tally.ops
    values = {
        f"{layer}.self_us_per_op": timer.self_s[layer] / slow / ops * 1e6
        for layer in tracing.LAYERS
    }
    for span in tracing.SPANS:
        durations = timer.durations[span]
        values[f"{span}.us_p50"] = (
            statistics.median(durations) / slow * 1e6 if durations else 0.0
        )
    for name in (
        "achievable.optimal_beam", "channel.classify", "channel.gram",
        "oracle.brute_force_upper",
        *(f"matkit.{k}" for k in tracing.MATKIT_KERNELS),
    ):
        values[f"{name}.calls_per_op"] = counts[name] / n
    points = counts[tracing.GRID_POINTS] / n
    grid_s = sum(timer.durations["oracle.grid"]) / slow
    values["oracle.grid_points_per_op"] = points
    values["oracle.grid_mpoints_per_s"] = points * ops / grid_s / 1e6 if grid_s else 0.0
    values["converse.tight_fraction"] = count_tally.tight / n
    values["oracle.pass_fraction"] = count_tally.passes / n
    values.update(envelope(certificates))
    values["trace.overhead_fraction"] = 1.0 - (
        statistics.median(traced.rates) / statistics.median(plain.rates)
    )
    values["trace.counts_repeat"] = 1 if repeats else 0
    notes = {
        "counts": f"count pass of {n} ops, repeated chunk 0 "
        + ("matched" if repeats else "DID NOT MATCH"),
        "timing": f"{ops} traced ops; {len(plain.raw)} untraced ops for the overhead",
        "grid": "grid points are nominal, nphi x npower per grid call (computed)",
        "slowdown": f"median {slow:.4g} x reference speed in the traced half",
    }
    missing = sorted(set(counter.missing + timer.missing))
    if missing:
        notes["missing"] = "not traced, no longer looked up: " + ", ".join(missing)
    return values, notes


def read_declared(trace):
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return doc["per_layer" if trace else "end_to_end"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        sys.stderr.write(f"error: {PACKAGE} sources not found under {SRC}\n")
        return 2
    try:
        declared = read_declared(args.trace)
    except (OSError, ValueError, KeyError) as exc:
        sys.stderr.write(f"error: cannot read BENCHMARK.json: {exc}\n")
        return 2
    allocator = "glibc keeps freed memory" if keep_freed_memory() else "default allocator"

    sys.path.insert(0, str(SRC))
    kind = workloads.WORKLOADS[args.workload]
    setup = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        modules = load_library()
        workload = kind(modules, args.seed)
        workload.warm_up()
        setup.append((perf_counter() - t0) / reference.slowdown(SETUP_NUMPY_WEIGHT))
    setup_s = statistics.median(setup)

    tally = workloads.Tally()
    if args.trace:
        values, notes = per_layer(workload, args.seconds, modules, tally)
    else:
        values, notes = end_to_end(workload, args.seconds, setup_s, tally)
        ops = max(tally.ops, 1)
        oracle = kind is workloads.Oracle
        values["tight_fraction"] = None if oracle else tally.tight / ops
        values["oracle_pass_fraction"] = tally.passes / ops if oracle else None
        values["error_fraction"] = tally.errors / ops

    units = {m["name"]: m["unit"] for m in declared}
    print(
        f"{PACKAGE} benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}; closed loop, one caller, "
        f"one thread, no think time, {allocator}; "
        f"{tally.ops} ops checked, {tally.errors} failed"
    )
    for name, value in values.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<38} {shown:>14} {units.get(name, EXTRA_UNITS.get(name, ''))}")
    for key, note in notes.items():
        print(f"  [{key}] {note}")
    for reason in workload.failures:
        print(f"  FAILED: {reason}")

    missing = [name for name in units if name not in values]
    if missing:
        sys.stderr.write(f"error: declared metrics not measured: {missing}\n")
        return 2
    correct = tally.errors == 0 and not workload.failures
    result = {
        "correct": correct,
        "attempted": tally.ops,
        "failed": tally.errors,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
