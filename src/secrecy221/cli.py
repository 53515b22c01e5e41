"""Command-line front end: capacity certificates, power sweeps, oracle runs.

Verbs:
  capacity  print the capacity certificate for a channel spec (JSON)
  sweep     capacity vs power as CSV
  oracle    brute-force cross-check report (JSON)
  random    emit seeded random non-degraded channel specs, one per line

Channel specs are JSON documents {"H": [[..,..],[..,..]], "g": [..,..],
"P": ..} with finite numbers; unknown fields are rejected.  ``-`` reads the
spec from stdin.  All numbers are serialized with 17 significant digits so
reports round-trip exactly and identical seeds give byte-identical output.
Exit codes: 0 success (Tight or resolved), 1 parse/validation error,
2 a check failed (NotTight certificate or oracle out of tolerance).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from json.encoder import encode_basestring_ascii as _quote

from . import matkit as mk
from .channel import ChannelKind, WiretapChannel, classify
from .converse import LOG2, CapacityCertificate, capacity_certificate
from .errors import ChannelSpecError, SecrecyError
from .tolerances import (
    EPS_CERT,
    EPS_GRID,
    EPS_GRID_BEAM,
    EPS_GRID_EXCESS,
    EPS_MONOTONE,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CHECK_FAILED = 2

# The oracle verb's covariance grid, (nphi, npower).
_ORACLE_GRID = (256, 256)


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite number {x!r}")
    return format(float(x), ".17g")


def dumps(obj, indent: int = 0, compact: bool = False) -> str:
    """JSON with 17-significant-digit floats and stable key order.

    ``compact`` renders everything on one line (used for line-oriented
    output such as random channel specs).  Strings are escaped by the C
    encoder behind ``json.dumps`` (ASCII output), so the bytes match it.
    """
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        if compact:
            items = [f"{_quote(str(k))}: {dumps(v, compact=True)}" for k, v in obj.items()]
            return "{" + ", ".join(items) + "}"
        pad = " " * indent
        items = [f"{pad}  {_quote(str(k))}: {dumps(v, indent + 2)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join([dumps(v, indent, compact) for v in obj]) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _error_exit(kind: str, message: str) -> int:
    sys.stderr.write(dumps({"error": {"type": kind, "message": message}}) + "\n")
    return EXIT_ERROR


# --------------------------------------------------------------------------
# channel spec IO
# --------------------------------------------------------------------------

def read_channel(path: str) -> WiretapChannel:
    """Parse a channel spec file (or stdin for ``-``)."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ChannelSpecError(f"cannot read channel spec: {exc}") from exc
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
        raise ChannelSpecError(f"invalid channel spec: {exc}") from exc
    return channel_from_dict(doc)


def channel_from_dict(doc) -> WiretapChannel:
    if not isinstance(doc, dict):
        raise ChannelSpecError("invalid channel spec: document is not an object")
    unknown = set(doc) - {"H", "g", "P"}
    if unknown:
        raise ChannelSpecError(f"invalid channel spec: unknown fields {sorted(unknown)}")
    missing = {"H", "g", "P"} - set(doc)
    if missing:
        raise ChannelSpecError(f"invalid channel spec: missing fields {sorted(missing)}")

    h = doc["H"]
    g = doc["g"]
    p = doc["P"]
    if (
        not isinstance(h, list)
        or len(h) != 2
        or any(not isinstance(row, list) or len(row) != 2 for row in h)
    ):
        raise ChannelSpecError("invalid channel spec: H must be a 2x2 array")
    if not isinstance(g, list) or len(g) != 2:
        raise ChannelSpecError("invalid channel spec: g must be a 2-vector")
    numbers = (*h[0], *h[1], *g, p)
    # JSON numbers only: float() would also take booleans and numeric strings.
    if any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in numbers):
        raise ChannelSpecError("invalid channel spec: H, g and P must be JSON numbers")
    try:
        h00, h01, h10, h11, g0, g1, power = map(float, numbers)  # big ints overflow
        return WiretapChannel(((h00, h01), (h10, h11)), (g0, g1), power)
    except (OverflowError, ValueError) as exc:
        raise ChannelSpecError(f"invalid channel spec: {exc}") from exc


def channel_to_dict(ch: WiretapChannel) -> dict:
    return {
        "H": [[ch.H[0][0], ch.H[0][1]], [ch.H[1][0], ch.H[1][1]]],
        "g": [ch.g[0], ch.g[1]],
        "P": ch.P,
    }


# --------------------------------------------------------------------------
# certificate rendering
# --------------------------------------------------------------------------

def certificate_to_dict(cert: CapacityCertificate) -> dict:
    out: dict = {
        "class": cert.kind.value,
        "verdict": cert.verdict,
        # Secrecy rates are reported clamped at zero; the raw bound values
        # are in lower_nats / upper_nats.
        "capacity_nats": max(0.0, cert.capacity_nats),
        "capacity_bits": max(0.0, cert.capacity_nats) / LOG2,
        "lower_nats": cert.lower,
        "upper_nats": cert.upper,
        "lambda1": cert.lambda1,
        "eigenvalues_of_bound": (
            list(cert.eigenvalues_of_bound) if cert.eigenvalues_of_bound else None
        ),
        "residuals": dict(cert.residuals),
    }
    if cert.beam is not None:
        out["beam"] = {
            "q_a": list(cert.beam.q_a),
            "rate_nats": cert.beam.rate,
            "degenerate": cert.beam.degenerate,
        }
    if cert.correlation is not None:
        out["correlation"] = {
            "alpha_star": cert.correlation.alpha_star,
            "theta_star": cert.correlation.theta_star,
            "a_star": list(cert.correlation.a_star),
            "A_star": [list(r) for r in cert.correlation.A_star],
        }
    out["flags"] = dict(cert.flags)
    return out


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def cmd_capacity(args) -> int:
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise ChannelSpecError(f"--tol must be finite and >= 0, got {args.tol!r}")
    ch = read_channel(args.channel)
    cert = capacity_certificate(ch, eps_cert=args.tol)
    doc = {"channel": channel_to_dict(ch), "tolerance": args.tol}
    doc.update(certificate_to_dict(cert))
    if args.bits:
        doc["capacity"] = doc["capacity_bits"]
        doc["units"] = "bits"
    else:
        doc["capacity"] = doc["capacity_nats"]
        doc["units"] = "nats"
    sys.stdout.write(dumps(doc) + "\n")
    return EXIT_CHECK_FAILED if cert.verdict == "NotTight" else EXIT_OK


def cmd_sweep(args) -> int:
    if not (0.0 < args.pmin <= args.pmax < math.inf):
        raise ChannelSpecError("sweep requires 0 < pmin <= pmax < inf")
    if args.steps < 2:
        raise ChannelSpecError("sweep requires steps >= 2")
    ch = read_channel(args.channel)
    if args.log_spacing:
        lo, hi = math.log(args.pmin), math.log(args.pmax)
        powers = [math.exp(lo + (hi - lo) * i / (args.steps - 1)) for i in range(args.steps)]
    else:
        powers = [
            args.pmin + (args.pmax - args.pmin) * i / (args.steps - 1)
            for i in range(args.steps)
        ]

    try:
        channels = [ch.with_power(power) for power in powers]
    except ValueError as exc:
        raise ChannelSpecError(f"invalid sweep power: {exc}") from exc

    sys.stdout.write("P,capacity_nats,capacity_bits,lambda1,verdict\n")
    previous = -math.inf
    for power, ch_p in zip(powers, channels):
        cert = capacity_certificate(ch_p)
        cap = max(0.0, cert.capacity_nats)
        if cap < previous - EPS_MONOTONE:
            sys.stderr.write(
                f"warning: capacity decreased at P={_fmt_float(power)} "
                f"({_fmt_float(cap)} < {_fmt_float(previous)})\n"
            )
        previous = cap
        lam = cert.lambda1
        sys.stdout.write(
            ",".join(
                (
                    _fmt_float(power),
                    _fmt_float(cap),
                    _fmt_float(cap / LOG2),
                    _fmt_float(lam),
                    cert.verdict,
                )
            )
            + "\n"
        )
    return EXIT_OK


def cmd_oracle(args) -> int:
    from . import oracle
    from .achievable import beam_rate, optimal_beam
    from .channel import beam_covariance

    if args.samples < 1 or args.seed < 0:
        raise ChannelSpecError("oracle requires --samples >= 1 and --seed >= 0")
    ch = read_channel(args.channel)
    nphi, npower = grid = _ORACLE_GRID
    cls = classify(ch)
    doc: dict = {
        "channel": channel_to_dict(ch),
        "class": cls.kind.value,
        "grid": {"nphi": nphi, "npower": npower},
        "samples": args.samples,
        "seed": args.seed,
    }
    checks: list[bool] = []

    if cls.kind is ChannelKind.REDUCED_RANK:
        doc["note"] = "rank-deficient main channel; oracle checks are not applicable"
        doc["passes"] = True
        sys.stdout.write(dumps(doc) + "\n")
        return EXIT_OK

    beam = optimal_beam(ch)
    s_best, grid_rate = oracle.brute_force_gaussian(ch, grid)
    (se1, se2), _ = mk.sym_eig2(s_best.S)
    gap = beam.rate - grid_rate
    doc["closed_form"] = {"lambda1": beam.lambda1, "rate_nats": beam.rate}
    doc["grid_search"] = {
        "rate_nats": grid_rate,
        "gap_nats": gap,
        "S_best": [list(r) for r in s_best.S],
        "unit_rank_margin": se2 / max(se1, 1e-300) if se1 > 0 else 0.0,
    }

    if cls.kind is ChannelKind.GENERAL:
        checks.append(-EPS_GRID_EXCESS <= gap <= EPS_GRID * max(1.0, abs(beam.rate)))
        checks.append(se2 <= EPS_GRID * ch.P)
    else:
        # Degraded: the grid may legitimately beat the best unit-rank beam.
        checks.append(grid_rate >= beam.rate - EPS_GRID_BEAM)

    kkt_opt = oracle.kkt_check(ch._gram, ch.g, ch.P, beam_covariance(beam.q_a, ch.P))
    doc["kkt_optimum"] = {
        "multiplier": kkt_opt.multiplier,
        "residual_stationarity": kkt_opt.residual_stationarity,
        "residual_complementarity": kkt_opt.residual_complementarity,
        "psd_margin": kkt_opt.psd_margin,
        "passes": kkt_opt.passes,
    }
    rot = 0.1
    q_rot = (
        beam.q_a[0] * math.cos(rot) - beam.q_a[1] * math.sin(rot),
        beam.q_a[0] * math.sin(rot) + beam.q_a[1] * math.cos(rot),
    )
    kkt_pert = oracle.kkt_check(ch._gram, ch.g, ch.P, beam_covariance(q_rot, ch.P))
    doc["kkt_perturbed"] = {
        "rotation_rad": rot,
        "rate_nats": beam_rate(ch, q_rot),
        "passes": kkt_pert.passes,
    }
    if cls.kind is ChannelKind.GENERAL:
        checks.append(kkt_opt.passes)
        checks.append(not kkt_pert.passes)

        a_best, min_value, tc, star_value = oracle.min_over_a(
            ch, beam, args.samples, args.seed, grid
        )
        # Every sampled correlation gives a valid upper bound, and a* is the
        # best member of the family.
        checks.append(min_value >= beam.rate - EPS_GRID * max(1.0, abs(beam.rate)))
        checks.append(star_value <= min_value + EPS_GRID * max(1.0, abs(min_value)))
        doc["min_over_a"] = {
            "a_best": list(a_best),
            "value_nats": min_value,
            "a_star": list(tc.a_star),
            "a_star_value_nats": star_value,
            "lower_nats": beam.rate,
            "min_minus_lower_nats": min_value - beam.rate,
            "a_star_minus_min_nats": star_value - min_value,
        }

    doc["passes"] = all(checks)
    sys.stdout.write(dumps(doc) + "\n")
    return EXIT_OK if doc["passes"] else EXIT_CHECK_FAILED


def cmd_random(args) -> int:
    from .oracle import sample_general_channels

    if args.count < 1:
        raise ChannelSpecError("count must be at least 1")
    if args.seed < 0:
        raise ChannelSpecError("random requires --seed >= 0")
    try:
        channels, attempts = sample_general_channels(args.seed, args.count, args.power)
    except ValueError as exc:
        raise ChannelSpecError(f"invalid channel: {exc}") from exc
    for ch in channels:
        sys.stdout.write(dumps(channel_to_dict(ch), compact=True) + "\n")
    sys.stderr.write(
        f"accepted {len(channels)} of {attempts} draws "
        f"(rate {_fmt_float(len(channels) / attempts)})\n"
    )
    return EXIT_OK


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once per process.

    Building it costs several times a certificate; ``parse_args`` leaves it
    unchanged (each call returns a fresh namespace) and argparse looks up
    ``sys.stdout``, ``sys.stderr`` and the terminal width only when it
    prints, so every in-process ``main`` call can share it.
    """
    parser = argparse.ArgumentParser(
        prog="secrecy221",
        description="Secrecy capacity of the 2-2-1 Gaussian MIMO wiretap channel",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cap = sub.add_parser("capacity", help="capacity certificate as JSON")
    p_cap.add_argument("channel", help="channel spec path, or - for stdin")
    units = p_cap.add_mutually_exclusive_group()
    units.add_argument("--bits", action="store_true", help="report capacity in bits")
    units.add_argument("--nats", action="store_true", help="report capacity in nats (default)")
    p_cap.add_argument(
        "--tol", type=float, default=EPS_CERT, help="tightness tolerance, finite and >= 0"
    )
    p_cap.set_defaults(func=cmd_capacity)

    p_sweep = sub.add_parser("sweep", help="capacity vs power as CSV")
    p_sweep.add_argument("channel")
    p_sweep.add_argument("--pmin", type=float, required=True)
    p_sweep.add_argument("--pmax", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--log-spacing", action="store_true")
    p_sweep.set_defaults(func=cmd_sweep)

    p_oracle = sub.add_parser("oracle", help="brute-force cross-check report as JSON")
    p_oracle.add_argument("channel")
    p_oracle.add_argument("--samples", type=int, default=32, help="correlation samples")
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.set_defaults(func=cmd_oracle)

    p_random = sub.add_parser("random", help="emit random non-degraded channel specs")
    p_random.add_argument("--seed", type=int, default=0)
    p_random.add_argument("--count", type=int, default=1)
    p_random.add_argument("--power", type=float, default=1.0)
    p_random.set_defaults(func=cmd_random)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SecrecyError as exc:
        return _error_exit(type(exc).__name__, str(exc))
    except Exception as exc:  # noqa: BLE001 - contract: never print a traceback
        return _error_exit(type(exc).__name__, str(exc))


def entry() -> None:
    sys.exit(main())
