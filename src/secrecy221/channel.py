"""Wiretap channel instances: validation, classification, and covariances.

A channel is the triple (H, g, P): a 2x2 main-channel gain, a length-2
eavesdropper gain, and an average transmit power budget.  Receiver and
eavesdropper noises are unit-variance Gaussians.  The classifier decides
whether the eavesdropper is degraded (``||H^{-T} g|| <= 1``), the channel is
the interesting non-degraded full-rank case, or the main channel is rank
deficient (ReducedRank), where the certificate reports the best beam of H
itself, read from the cached beam pencil, with no upper bound.  On both
sides of the degradedness boundary the capacity is the Gaussian maximum over
every covariance, so a full-rank channel is classified by the sign of
``||H^{-T} g|| - 1`` alone.  Gaussian rates are evaluated where they are
judged: a beam's rate exactly in ``oracle._beam_excess``, a covariance
search's in ``oracle._disk_max``.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from . import matkit as mk
from .errors import InvalidCovariance, NotPSD, PowerExceeded
from .matkit import Mat2, Vec2
from .tolerances import EPS_PSD, EPS_RANK, EPS_TRACE, MAX_GAIN_SQ, MAX_SNR


def _check_finite(values, what: str) -> None:
    for x in values:
        if not math.isfinite(x):
            raise ValueError(f"{what} must be finite, got {x!r}")


def _check_power(H: Mat2, g: Vec2, P: float) -> None:
    """Refuse a power that is not finite and positive or leaves the range."""
    if not (math.isfinite(P) and P > 0.0):
        raise ValueError(f"power budget must be finite and positive, got {P!r}")
    h0, h1 = H
    gain_sq = max(mk.dot2(h0, h0) + mk.dot2(h1, h1), mk.dot2(g, g))
    if not (max(gain_sq, P) <= MAX_GAIN_SQ and P * gain_sq <= MAX_SNR):
        raise ValueError(
            f"max(||H||_F^2, ||g||^2) = {gain_sq!r} at P = {P!r} exceeds the "
            f"supported range (gain and P {MAX_GAIN_SQ!r}, P * gain {MAX_SNR!r})"
        )


class _member:
    """A member computed on first read and kept in the instance __dict__,
    which answers every later read; one that raised is not kept.  Unlike
    the cached properties of CPython before 3.12, it takes no lock."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


_ChannelFields = NamedTuple("_ChannelFields", [("H", Mat2), ("g", Vec2), ("P", float)])

# The cached members that depend on H and g alone, which with_power carries
# from one power to the next; the beam pencil, its B^{-1/2} factor and its
# eigenpairs depend on P.
_P_FREE_MEMBERS = ("_gram", "_sv_ratio", "_rank_deficient", "_ht_inv", "_w", "_resolvent_inv",
                   "_class")


class WiretapChannel(_ChannelFields):
    """Channel instance: main gain H (2x2), eavesdropper gain g, power P.

    The per-channel quantities every stage reads are cached members, each
    derived once, on first use, in the instance __dict__ (so no __slots__).
    Only _ht_inv, which cannot fail once the rank test passed, is on
    classify's path; _w and _resolvent_inv raise SingularMatrix when H^T H
    or H^T H - g g^T is numerically singular.  Members take no lock: threads
    that first read one at once may each compute it, and all computations
    give the same value, as a member reads only (H, g, P) and other members.
    """

    def __new__(cls, H: Mat2, g: Vec2, P: float):
        _check_finite((*H[0], *H[1]), "H entries")
        _check_finite(g, "g entries")
        _check_power(H, g, P)
        return super().__new__(cls, H, g, P)

    @classmethod
    def _make(cls, iterable) -> "WiretapChannel":
        # _replace builds through _make, whose tuple.__new__ would skip the checks.
        return cls(*iterable)

    def gram(self) -> Mat2:
        """H^T H."""
        return mk.matmul2(mk.transpose2(self.H), self.H)

    @_member
    def _gram(self) -> Mat2:
        return self.gram()

    @_member
    def _sv_ratio(self) -> float:
        """sigma_min / sigma_max of H, 0 for H = 0.

        sigma_min is taken as |det H| / sigma_max: the square root of the
        small Gram eigenvalue bottoms out near 1e-8 sigma_max on an exactly
        rank-one H, just above EPS_RANK.
        """
        l1 = mk.sym_eigvals2(self._gram)[0]
        return abs(mk.det2(self.H)) / l1 if l1 > 0.0 else 0.0

    @_member
    def _rank_deficient(self) -> bool:
        return self._sv_ratio <= EPS_RANK

    @_member
    def _ht_inv(self) -> Mat2:
        """H^{-T}."""
        return mk.inv2(mk.transpose2(self.H))

    @_member
    def _w(self) -> Mat2:
        """W = (H^T H)^{-1}."""
        return mk.inv2(self._gram)

    @_member
    def _resolvent_inv(self) -> Mat2:
        """(H^T H - g g^T)^{-1}."""
        return mk.inv2(mk.matadd2(self._gram, mk.matscale2(-1.0, mk.outer2(self.g, self.g))))

    @_member
    def _beam_pencil(self) -> tuple[Mat2, Mat2]:
        """(I + P H^T H, I + P g g^T)."""
        eye = mk.eye2()
        return (
            mk.matadd2(eye, mk.matscale2(self.P, self._gram)),
            mk.matadd2(eye, mk.matscale2(self.P, mk.outer2(self.g, self.g))),
        )

    @_member
    def _beam_factor(self) -> tuple[Mat2, float]:
        """(B^{-1/2}, det B) for B = I + P g g^T, the second matrix of the beam
        pencil and of the genie bound's pencil."""
        return mk.rank1_inv_sqrt(self.P, self.g)

    @_member
    def _beam_eig(self) -> tuple[tuple[float, float], Vec2]:
        """The beam pencil's eigenvalues and top eigenvector (the optimal
        beam); B = I + P g g^T is rank-one."""
        return mk.gen_eig2_rank1(self._beam_pencil[0], self._beam_factor)

    @_member
    def _class(self) -> "ChannelClass":
        """The classification that classify returns: General exactly when
        ||H^{-T} g|| > 1, so the boundary itself counts as Degraded."""
        if self._rank_deficient:
            return ChannelClass(ChannelKind.REDUCED_RANK, None, self._sv_ratio)
        eve_norm = mk.norm2(mk.matvec2(self._ht_inv, self.g))
        kind = ChannelKind.GENERAL if eve_norm > 1.0 else ChannelKind.DEGRADED
        return ChannelClass(kind, eve_norm, self._sv_ratio)

    def with_power(self, power: float) -> "WiretapChannel":
        """The channel (H, g, power), carrying the P-free members computed so far.

        H and g were checked when this channel was built, so only the power
        is checked, with the constructor's messages.  A member that raised
        was never stored, so the copy raises it again on first use.
        """
        _check_power(self.H, self.g, power)
        child = _ChannelFields.__new__(WiretapChannel, self.H, self.g, power)
        cached, carried = vars(self), vars(child)
        for name in _P_FREE_MEMBERS:
            if name in cached:
                carried[name] = cached[name]
        return child


class ChannelKind(Enum):
    GENERAL = "General"
    DEGRADED = "Degraded"
    REDUCED_RANK = "ReducedRank"


class ChannelClass(NamedTuple):
    """Classification result.

    ``eve_norm`` is ||H^{-T} g||, the eavesdropper gain seen after inverting
    the main channel; it is None when H is rank deficient.  ``sv_ratio`` is
    sigma_min / sigma_max of H.
    """

    kind: ChannelKind
    eve_norm: float | None
    sv_ratio: float


class CovMat(NamedTuple):
    """Validated transmit covariance: symmetric PSD with trace within budget."""

    S: Mat2


def classify(ch: WiretapChannel) -> ChannelClass:
    """Classify the channel as General, Degraded, or ReducedRank.

    A full-rank channel is General when ||H^{-T} g|| > 1 and Degraded
    otherwise; it never raises.  The class is a P-free member, so a power
    sweep computes it once.
    """
    return ch._class


def validate_covariance(s, power: float) -> CovMat:
    """Check PSD-ness and the trace budget; clip roundoff-negative eigenvalues.

    Eigenvalues in [-EPS_PSD * scale, 0) of the raw 2x2 matrix are treated
    as zero and the covariance is reconstructed without them; anything more
    negative raises NotPSD.  The input's two off-diagonal entries are
    averaged: a covariance enters the library here, and every matrix the
    library builds itself is symmetric by construction.
    """
    if not all(math.isfinite(x) for row in s for x in row):
        raise InvalidCovariance("covariance entries must be finite")
    b = 0.5 * (s[0][1] + s[1][0])
    sym = ((s[0][0], b), (b, s[1][1]))
    (l1, l2), v1 = mk.sym_eig2(sym)
    scale = max(1.0, abs(l1))
    if l2 < -EPS_PSD * scale:
        raise NotPSD(f"covariance has negative eigenvalue {l2!r}")
    if l1 + l2 > power + EPS_TRACE * max(1.0, power):
        raise PowerExceeded(f"trace {l1 + l2!r} exceeds power budget {power!r}")
    if l2 < 0.0:
        sym = mk.matscale2(max(l1, 0.0), mk.outer2(v1, v1))
    return CovMat(sym)
