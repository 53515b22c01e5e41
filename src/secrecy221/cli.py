"""Command-line front end: capacity certificates, power sweeps, oracle runs.

Verbs:
  capacity  print the capacity certificate for a channel spec (JSON)
  sweep     capacity vs power as CSV
  oracle    covariance-search and exact-bracket check report (JSON)
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
import itertools
import json
import math
import sys
from json.encoder import encode_basestring_ascii as _quote

from . import achievable, converse, matkit as mk, oracle
from .channel import ChannelKind, WiretapChannel, classify
from .converse import LOG2, CapacityCertificate, capacity_certificate
from .errors import ChannelSpecError
from .tolerances import (
    EPS_CERT,
    EPS_GRID,
    EPS_GRID_EXCESS,
    EPS_MONOTONE,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CHECK_FAILED = 2


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite number {x!r}")
    return format(float(x), ".17g")


def _scalar(obj) -> str:
    """The JSON text of a number, string, None or bool."""
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
    raise TypeError(f"cannot serialize {type(obj)!r}")


# Key types whose equal values print alike; 0.0 and -0.0, or (1,) and (1.0,), do not.
_LAYOUT_KEY_TYPES = frozenset((str, int, bool, type(None)))


def _walk(obj, shape: list, leaves: list) -> None:
    """Append a container's shape tokens to ``shape`` and its slot values to ``leaves``.

    In document order: "{}" or "[]" if empty; else a dict is ``(keys, key
    types)`` (1, 1.0 and True are equal keys that print differently), or
    ``(printed keys,)`` if a key type is not in _LAYOUT_KEY_TYPES, then its
    values, and a list or tuple its length, then its items.  ``float`` is an
    exact finite float's ``%.17g`` slot, ``str`` any other scalar's ``%s`` slot.
    """
    if isinstance(obj, dict):
        keys = tuple(obj)
        key_types = tuple(map(type, keys))
        if _LAYOUT_KEY_TYPES.issuperset(key_types):
            shape.append((keys, key_types) if keys else "{}")
        else:
            shape.append((tuple([_quote(str(k)) for k in keys]),))
        items = obj.values()
    else:
        shape.append(len(obj) or "[]")
        items = obj
    for v in items:
        if type(v) is float and v - v == 0.0:  # finite: inf - inf and nan are nan
            shape.append(float)
            leaves.append(v)
        elif isinstance(v, (dict, list, tuple)):
            _walk(v, shape, leaves)
        else:
            shape.append(str)
            leaves.append(_scalar(v))


@functools.lru_cache(maxsize=256)  # a handful of document shapes per verb
def _layout(shape: tuple, indent: int, compact: bool) -> str:
    """The %-format string of a document of this shape (see _walk)."""
    tokens = iter(shape)

    def build(indent: int) -> str:
        token = next(tokens)
        if type(token) is tuple:
            if len(token) == 2:
                token = ([_quote(str(k)) for k in token[0]],)
            names = [k.replace("%", "%%") for k in token[0]]
            if compact:
                return "{" + ", ".join([f"{k}: {build(0)}" for k in names]) + "}"
            pad = " " * indent
            items = [f"{pad}  {k}: {build(indent + 2)}" for k in names]
            return "{\n" + ",\n".join(items) + "\n" + pad + "}"
        if type(token) is int:
            return "[" + ", ".join([build(indent) for _ in range(token)]) + "]"
        return {float: "%.17g", str: "%s"}.get(token, token)

    return build(indent)


def dumps(obj, indent: int = 0, compact: bool = False) -> str:
    """JSON with 17-significant-digit floats and stable key order.

    ``compact`` renders everything on one line (used for line-oriented
    output such as random channel specs).  Strings are escaped by the C
    encoder behind ``json.dumps`` (ASCII output), so the bytes match it.

    A dict, list or tuple is rendered with one ``%``: one walk (``_walk``)
    collects the document's shape and leaf values, and the shape, indent and
    compact select a cached format string (``_layout``) of the quoted keys,
    separators, indentation and a slot per leaf, so C formats the floats.
    """
    if not isinstance(obj, (dict, list, tuple)):
        return _scalar(obj)
    shape, leaves = [], []
    _walk(obj, shape, leaves)
    return _layout(tuple(shape), indent, compact) % tuple(leaves)


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
        "eigenvalues_of_bound": cert.eigenvalues_of_bound or None,
        "residuals": cert.residuals,
    }
    if cert.beam is not None:
        out["beam"] = {
            "q_a": cert.beam.q_a,
            "rate_nats": cert.beam.rate,
            "degenerate": cert.beam.degenerate,
        }
    if cert.correlation is not None:
        out["correlation"] = {
            "alpha_star": cert.correlation.alpha_star,
            "theta_star": cert.correlation.theta_star,
            "a_star": cert.correlation.a_star,
            "A_star": cert.correlation.A_star,
        }
    out["flags"] = cert.flags
    return out


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------

def cmd_capacity(args) -> int:
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise ChannelSpecError(f"--tol must be finite and >= 0, got {args.tol!r}")
    ch = read_channel(args.channel)
    cert = capacity_certificate(ch, eps_cert=args.tol)
    doc = {"channel": ch._asdict(), "tolerance": args.tol}
    doc.update(certificate_to_dict(cert))
    units = "bits" if args.bits else "nats"
    doc["capacity"], doc["units"] = doc["capacity_" + units], units
    sys.stdout.write(dumps(doc) + "\n")
    return EXIT_CHECK_FAILED if cert.verdict == "NotTight" else EXIT_OK


def cmd_sweep(args) -> int:
    if not (0.0 < args.pmin <= args.pmax < math.inf):
        raise ChannelSpecError("sweep requires 0 < pmin <= pmax < inf")
    if args.steps < 2:
        raise ChannelSpecError("sweep requires steps >= 2")
    ch = read_channel(args.channel)
    pmin, pmax = args.pmin, args.pmax
    # The power check is monotone in P, so --pmax passes exactly when every
    # power of the sweep does: the whole range is refused before the header.
    try:
        ch.with_power(pmax)
    except ValueError as exc:
        raise ChannelSpecError(f"invalid sweep power: {exc}") from exc
    # Rows are evenly spaced in log P or in P, and each power is made as its
    # row is printed, so neither the first row's wait nor memory grows with
    # --steps.  The ends exactly as asked: exp(log(p)) and pmin + (pmax - pmin)
    # need not round back to p and pmax.  Nor may a rounded inner power pass
    # an end (as exp(log(p)) does for pmin == pmax), so each is clamped.
    axis, back = (math.log, math.exp) if args.log_spacing else (float, float)
    lo, hi, n = axis(pmin), axis(pmax), args.steps - 1
    inner = (min(max(back(lo + (hi - lo) * i / n), pmin), pmax) for i in range(1, n))
    sys.stdout.write("P,capacity_nats,capacity_bits,lambda1,verdict\n")
    previous = -math.inf
    for power in itertools.chain([pmin], inner, [pmax]):
        ch = ch.with_power(power)
        cert = capacity_certificate(ch)
        cap = max(0.0, cert.capacity_nats)
        if cap < previous - EPS_MONOTONE:
            sys.stderr.write(
                f"warning: capacity decreased at P={_fmt_float(power)} "
                f"({_fmt_float(cap)} < {_fmt_float(previous)})\n"
            )
        previous = cap
        row = (power, cap, cap / LOG2, cert.lambda1)
        if not all(map(math.isfinite, row)):
            list(map(_fmt_float, row))  # raises at the first non-finite value
        sys.stdout.write("%.17g,%.17g,%.17g,%.17g,%s\n" % (*row, cert.verdict))
    return EXIT_OK


def cmd_oracle(args) -> int:
    ch = read_channel(args.channel)
    cls = classify(ch)
    doc: dict = {"channel": ch._asdict(), "class": cls.kind.value}
    checks: list[bool] = []

    if cls.kind is ChannelKind.REDUCED_RANK:
        doc["note"] = "rank-deficient main channel; oracle checks are not applicable"
        doc["passes"] = True
        sys.stdout.write(dumps(doc) + "\n")
        return EXIT_OK

    # lambda_1 comes from the beam pencil, as in the certificate; only a
    # General channel's bracket needs the beam's direction.
    beam = achievable.optimal_beam(ch) if cls.kind is ChannelKind.GENERAL else None
    lam = ch._beam_eig[0][0]
    rate = 0.5 * math.log(lam)
    s_best, grid_rate = oracle.brute_force_gaussian(ch)
    se1, se2 = mk.sym_eigvals2(s_best.S)
    gap = rate - grid_rate
    doc["closed_form"] = {"lambda1": lam, "rate_nats": rate}
    doc["grid_search"] = {
        "rate_nats": grid_rate,
        "gap_nats": gap,
        "S_best": [list(r) for r in s_best.S],
        "unit_rank_margin": se2 / max(se1, 1e-300) if se1 > 0 else 0.0,
    }

    if cls.kind is ChannelKind.GENERAL:
        checks.append(-EPS_GRID_EXCESS <= gap <= EPS_GRID * max(1.0, abs(rate)))
        checks.append(se2 <= EPS_GRID * ch.P)

        # The beam's exact excess, widened by EPS_GRID, brackets the capacity
        # when the genie bound at a* stays below its top; the beam rotated
        # 0.1 rad must fall provably below its bottom.
        rho = oracle._beam_excess(ch, beam.q_a)
        rho_lo, rho_hi = rho * (1.0 - EPS_GRID), rho * (1.0 + EPS_GRID)
        a_star = converse.optimize_alpha(ch, mk.orth_perp(beam.q_a)).a_star
        certified = oracle._bound_at_most(ch, a_star, rho_hi)
        rot = 0.1
        q_rot = (
            beam.q_a[0] * math.cos(rot) - beam.q_a[1] * math.sin(rot),
            beam.q_a[0] * math.sin(rot) + beam.q_a[1] * math.cos(rot),
        )
        rho_rot = oracle._beam_excess(ch, q_rot)
        rate_rot, below = 0.5 * math.log1p(rho_rot), rho_rot < rho_lo
        doc["bracket"] = {"rho_lo": rho_lo, "rho_hi": rho_hi, "certified": certified}
        doc["perturbed"] = {"rotation_rad": rot, "rate_nats": rate_rot, "below": below}
        checks.extend((certified, below))
    else:
        # Degraded: the grid may legitimately beat the best unit-rank beam.
        checks.append(grid_rate >= rate - EPS_GRID)

    doc["passes"] = all(checks)
    sys.stdout.write(dumps(doc) + "\n")
    return EXIT_OK if doc["passes"] else EXIT_CHECK_FAILED


def cmd_random(args) -> int:
    if args.count < 1:
        raise ChannelSpecError("count must be at least 1")
    if args.seed < 0:
        raise ChannelSpecError("random requires --seed >= 0")
    try:
        channels, attempts = oracle.sample_general_channels(args.seed, args.count, args.power)
    except ValueError as exc:
        raise ChannelSpecError(f"invalid channel: {exc}") from exc
    for ch in channels:
        sys.stdout.write(dumps(ch._asdict(), compact=True) + "\n")
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
    except Exception as exc:  # noqa: BLE001 - contract: never print a traceback
        return _error_exit(type(exc).__name__, str(exc))


def entry() -> None:
    sys.exit(main())
