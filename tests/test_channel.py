"""Channel validation, classification, and covariances."""

import math
import random
import sys
import threading

import pytest

from conftest import rotation
from secrecy221 import (
    ChannelKind,
    WiretapChannel,
    capacity_certificate,
    classify,
    coupling_gain_matrix,
    optimal_beam,
    optimize_alpha,
    validate_covariance,
)
from secrecy221 import matkit as mk
from secrecy221.channel import _P_FREE_MEMBERS, _member
from secrecy221.errors import (
    InvalidCovariance,
    NoiseDegenerate,
    NotPSD,
    PowerExceeded,
    SecrecyError,
    SingularMatrix,
)
from secrecy221.oracle import covariance_from_param
from secrecy221.tolerances import MAX_GAIN_SQ, MAX_SNR

I2 = ((1.0, 0.0), (0.0, 1.0))


def rand_channel(rng, power=1.0) -> WiretapChannel:
    return WiretapChannel(
        ((rng.gauss(0, 1), rng.gauss(0, 1)), (rng.gauss(0, 1), rng.gauss(0, 1))),
        (rng.gauss(0, 1), rng.gauss(0, 1)),
        power,
    )


class TestWiretapChannel:
    def test_rejects_bad_power(self):
        with pytest.raises(ValueError):
            WiretapChannel(I2, (1.0, 0.0), 0.0)
        with pytest.raises(ValueError):
            WiretapChannel(I2, (1.0, 0.0), float("nan"))

    def test_rejects_nonfinite_entries(self):
        with pytest.raises(ValueError):
            WiretapChannel(((1.0, float("inf")), (0.0, 1.0)), (1.0, 0.0), 1.0)

    def test_snr_bound(self):
        # ||H||_F^2 = 2 and ||g||^2 = 4: P * 4 = MAX_SNR exactly is served.
        at_bound = MAX_SNR / 4.0
        cert = capacity_certificate(WiretapChannel(I2, (2.0, 0.0), at_bound))
        assert cert.kind is ChannelKind.GENERAL
        with pytest.raises(ValueError, match="exceeds the supported"):
            WiretapChannel(I2, (2.0, 0.0), math.nextafter(at_bound, math.inf))

    def test_gain_and_power_bound(self):
        x = math.sqrt(MAX_GAIN_SQ)
        while x * x > MAX_GAIN_SQ:
            x = math.nextafter(x, 0.0)
        above = math.nextafter(x, math.inf)
        assert above * above > MAX_GAIN_SQ
        h = ((x / 4.0, 0.0), (0.0, x / 4.0))
        capacity_certificate(WiretapChannel(h, (x, 0.0), 1e-121))
        with pytest.raises(ValueError, match="exceeds the supported"):
            WiretapChannel(h, (above, 0.0), 1e-121)
        # P itself is bounded too: the oracle grid squares it.
        tiny_h = ((1e-80, 0.0), (0.0, 1e-80))
        capacity_certificate(WiretapChannel(tiny_h, (0.5e-80, 0.0), MAX_GAIN_SQ))
        with pytest.raises(ValueError, match="exceeds the supported"):
            WiretapChannel(tiny_h, (0.5e-80, 0.0), math.nextafter(MAX_GAIN_SQ, math.inf))

    @pytest.mark.parametrize(
        "h,g,power",
        [
            (I2, (2.0, 0.0), 1e34),  # example A: the rank-one solver cancels
            (I2, (0.5, 0.0), 1e34),
            (((1e100, 5e99), (2e99, 1.2e100)), (1.1e100, 9e99), 1.0),  # overflow
            (((1e-80, 0.0), (0.0, 1e-80)), (0.5e-80, 0.0), 1e160),  # grid overflow
        ],
    )
    def test_out_of_range_magnitudes_refused(self, h, g, power):
        with pytest.raises(ValueError, match="exceeds the supported"):
            WiretapChannel(h, g, power)

    def test_replace_and_make_check_like_the_constructor(self, example_a):
        assert example_a._replace(P=2.0) == WiretapChannel(I2, (2.0, 0.0), 2.0)
        with pytest.raises(ValueError, match="power budget"):
            example_a._replace(P=-1.0)
        with pytest.raises(ValueError, match="g entries"):
            WiretapChannel._make((I2, (math.nan, 0.0), 1.0))
        with pytest.raises(ValueError, match="exceeds the supported"):
            example_a._replace(P=MAX_SNR)

    @pytest.mark.parametrize(
        "h,g,power,fragment",
        [
            (I2, (2.0, 0.0), 0.0, "power budget"),
            (I2, (2.0, 0.0), -1.0, "power budget"),
            (I2, (2.0, 0.0), math.nan, "power budget"),
            (I2, (2.0, 0.0), math.inf, "power budget"),
            (I2, (2.0, 0.0), 2.0 * MAX_SNR / 4.0, "exceeds the supported"),
            (((1e-80, 0.0), (0.0, 1e-80)), (0.5e-80, 0.0), 2.0 * MAX_GAIN_SQ, "exceeds"),
        ],
        ids=["zero", "negative", "nan", "inf", "snr", "power"],
    )
    def test_with_power_refuses_like_the_constructor(self, h, g, power, fragment):
        parent = WiretapChannel(h, g, 1.0)
        with pytest.raises(ValueError, match=fragment) as built:
            WiretapChannel(h, g, power)
        with pytest.raises(ValueError) as derived:
            parent.with_power(power)
        assert str(derived.value) == str(built.value)

    def test_with_power_carries_only_the_p_free_members(self):
        parent = WiretapChannel(((1.0, 0.5), (0.2, 1.2)), (1.1, 0.9), 2.0)
        capacity_certificate(parent)
        assert {"_beam_pencil", "_beam_eig", *_P_FREE_MEMBERS} <= set(vars(parent))
        child = parent.with_power(3.0)
        assert type(child) is WiretapChannel
        assert child == WiretapChannel(parent.H, parent.g, 3.0)
        assert set(vars(child)) == set(_P_FREE_MEMBERS)
        assert capacity_certificate(child) == capacity_certificate(
            WiretapChannel(parent.H, parent.g, 3.0)
        )

    def test_with_power_recomputes_a_member_that_raised(self):
        parent = WiretapChannel(((1.0, 1.0), (1.0, 1.0)), (0.5, 0.2), 1.0)
        with pytest.raises(SingularMatrix):
            parent._w
        child = parent.with_power(2.0)
        assert "_gram" in vars(child) and "_w" not in vars(child)
        with pytest.raises(SingularMatrix):
            child._w

    def test_p_free_members_are_exactly_those_the_power_leaves_alone(self):
        # A cached member added later must be listed if it ignores P, so a
        # sweep shares it, and must stay off the list if it reads P.
        members = {
            name
            for name, attr in vars(WiretapChannel).items()
            if isinstance(attr, _member)
        }
        assert set(_P_FREE_MEMBERS) <= members
        h, g = ((1.0, 0.5), (0.2, 1.2)), (1.1, 0.9)
        lo, hi = WiretapChannel(h, g, 0.5), WiretapChannel(h, g, 2.0)
        for name in sorted(members):
            assert (getattr(lo, name) == getattr(hi, name)) == (name in _P_FREE_MEMBERS), name

    def test_cached_members_keep_equality_and_hash(self):
        ch = WiretapChannel(((1.0, 0.5), (0.2, 1.2)), (1.1, 0.9), 2.0)
        fresh = WiretapChannel(ch.H, ch.g, ch.P)
        capacity_certificate(ch)
        assert "_beam_eig" in vars(ch)
        assert ch == fresh
        assert hash(ch) == hash(fresh)


def _count_computations(monkeypatch):
    """Wrap every cached member of WiretapChannel; returns name -> computations."""
    counts = {}
    for name, attr in vars(WiretapChannel).items():
        if isinstance(attr, _member):
            counts[name] = 0

            def counted(ch, func=attr.func, name=name):
                counts[name] += 1
                return func(ch)

            monkeypatch.setattr(attr, "func", counted)
    return counts


class TestMemberContract:
    H, G = ((1.0, 0.5), (0.2, 1.2)), (1.1, 0.9)

    def test_a_certificate_computes_each_member_at_most_once(self, monkeypatch):
        counts = _count_computations(monkeypatch)
        cert = capacity_certificate(WiretapChannel(self.H, self.G, 2.0))
        assert cert.kind is ChannelKind.GENERAL and cert.verdict == "Tight"
        assert max(counts.values()) == 1
        assert {name for name, n in counts.items() if n} == set(counts)

    def test_a_power_chain_computes_each_p_free_member_once(self, monkeypatch):
        counts = _count_computations(monkeypatch)
        ch = WiretapChannel(self.H, self.G, 1e-2)
        steps = 121
        for i in range(steps):
            ch = ch.with_power(10.0 ** (-2 + 12 * i / (steps - 1)))
            capacity_certificate(ch)
            classify(ch)
        for name, n in counts.items():
            assert n == (1 if name in _P_FREE_MEMBERS else steps), name

    def test_a_member_that_raised_raises_on_every_read(self):
        # Full rank by EPS_RANK, but H^T H and H^T H - g g^T are singular
        # by EPS_SING: the tight path falls back, and neither inverse is kept.
        ch = WiretapChannel(((1.0, 0.0), (0.0, 1e-7)), (2.0, 0.0), 1.0)
        for channel in (ch, ch.with_power(2.0)):
            for name in ("_w", "_resolvent_inv"):
                for _ in range(2):
                    with pytest.raises(SingularMatrix):
                        getattr(channel, name)
                    assert name not in vars(channel)
        cert = capacity_certificate(ch)
        assert (cert.kind, cert.verdict) == (ChannelKind.GENERAL, "Inapplicable")
        assert cert.flags["tight_path_error"] == "SingularMatrix"

    def test_threads_first_reading_one_channel_see_the_same_values(self):
        names = sorted(n for n, a in vars(WiretapChannel).items() if isinstance(a, _member))
        reference = WiretapChannel(self.H, self.G, 2.0)
        expected = [getattr(reference, name) for name in names]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for trial in range(20):
                ch = WiretapChannel(self.H, self.G, 2.0)
                barrier = threading.Barrier(8)
                seen = [None] * 8

                def read(k):
                    order = names[k % len(names):] + names[:k % len(names)]
                    barrier.wait()
                    values = {name: getattr(ch, name) for name in order}
                    seen[k] = [values[name] for name in names]

                threads = [threading.Thread(target=read, args=(k,)) for k in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                assert seen == [expected] * 8, trial
                assert [vars(ch)[name] for name in names] == expected
        finally:
            sys.setswitchinterval(interval)


def _records(ch):
    """One instance of each record type the package returns, from channel ch."""
    cert = capacity_certificate(ch)
    q = cert.beam.q_a
    return [
        ch,
        classify(ch),
        validate_covariance(mk.matscale2(ch.P, mk.outer2(q, q)), ch.P),
        cert.beam,
        cert.correlation,
        cert,
    ]


@pytest.mark.parametrize("index", range(6))
def test_records_refuse_field_assignment(example_a, index):
    record = _records(example_a)[index]
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert getattr(record, field) == record[0]


class TestClassify:
    def test_general(self, example_a):
        cls = classify(example_a)
        assert cls.kind is ChannelKind.GENERAL
        assert math.isclose(cls.eve_norm, 2.0, rel_tol=1e-14)

    def test_degraded(self):
        cls = classify(WiretapChannel(I2, (0.5, 0.0), 1.0))
        assert cls.kind is ChannelKind.DEGRADED
        assert math.isclose(cls.eve_norm, 0.5, rel_tol=1e-14)

    def test_reduced_rank(self):
        cls = classify(WiretapChannel(((1.0, 1.0), (1.0, 1.0)), (1.0, 0.0), 1.0))
        assert cls.kind is ChannelKind.REDUCED_RANK
        assert cls.eve_norm is None

    def test_random_rank_one_products_are_reduced_rank(self):
        # H = u v^T: the square root of the small Gram eigenvalue can land
        # near 1.5e-8 sigma_max, above EPS_RANK, while |det H| / sigma_max^2
        # stays at roundoff level.
        rng = random.Random(1)
        for _ in range(2000):
            u = (rng.gauss(0, 1), rng.gauss(0, 1))
            v = (rng.gauss(0, 1), rng.gauss(0, 1))
            cls = classify(WiretapChannel(mk.outer2(u, v), (1.0, 0.0), 1.0))
            assert cls.kind is ChannelKind.REDUCED_RANK
            assert cls.sv_ratio < 1e-12

    def test_classified_by_the_sign_of_eve_norm_minus_one(self):
        # The exact boundary counts as Degraded.
        for g1, kind in ((1.0, ChannelKind.DEGRADED), (1.0 + 2e-10, ChannelKind.GENERAL),
                         (1.0 - 2e-10, ChannelKind.DEGRADED)):
            cls = classify(WiretapChannel(I2, (g1, 0.0), 1.0))
            assert (cls.kind, cls.eve_norm) == (kind, g1)

    def test_receiver_rotation_invariance(self):
        rng = random.Random(31)
        for _ in range(300):
            ch = rand_channel(rng)
            cls = classify(ch)
            q = rotation(rng.uniform(0, 2 * math.pi), reflect=rng.random() < 0.5)
            rotated = WiretapChannel(mk.matmul2(q, ch.H), ch.g, ch.P)
            cls_rot = classify(rotated)
            assert cls_rot.kind is cls.kind
            if cls.eve_norm is not None:
                assert math.isclose(cls_rot.eve_norm, cls.eve_norm, rel_tol=1e-9)


class TestValidateCovariance:
    def test_accepts_half_power(self):
        cov = validate_covariance(((0.5, 0.0), (0.0, 0.5)), 1.0)
        assert cov.S == ((0.5, 0.0), (0.0, 0.5))

    def test_power_exceeded(self):
        with pytest.raises(PowerExceeded):
            validate_covariance(((1.0, 0.0), (0.0, 1.0)), 1.0)

    def test_not_psd(self):
        with pytest.raises(NotPSD):
            validate_covariance(((1.0, 2.0), (2.0, 1.0)), 10.0)

    def test_clips_roundoff_negative_eigenvalue(self):
        cov = validate_covariance(((0.5, 0.0), (0.0, -1e-13)), 1.0)
        (l1, l2), _ = mk.sym_eig2(cov.S)
        assert l2 >= 0.0
        assert math.isclose(l1, 0.5, rel_tol=1e-12)

    def test_error_hierarchy(self):
        with pytest.raises(InvalidCovariance):
            validate_covariance(((1.0, 2.0), (2.0, 1.0)), 10.0)

    def test_rejects_nonfinite_entries(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(InvalidCovariance):
                validate_covariance(((bad, 0.0), (0.0, 1.0)), 10.0)


def _assert_symmetric(m, what):
    """m[0][1] and m[1][0] are the same float, sign bit included."""
    assert m[0][1] == m[1][0], (what, m)
    assert math.copysign(1.0, m[0][1]) == math.copysign(1.0, m[1][0]), (what, m)


class TestSymmetricByConstruction:
    """Nothing in the library re-symmetrizes what it builds: float products
    commute, and scaling, adding and the closed-form inverse keep equal
    off-diagonals equal.  Only validate_covariance, where a covariance
    enters from outside, and sym_eig2 average the two off-diagonals."""

    SCALES = (1e-60, 1e-30, 1e-8, 1e-2, 1.0, 1e3, 1e8, 1e30, 1e60)
    POWERS = (1e-18, 1e-12, 1e-6, 1e-2, 1.0, 1e2, 1e6, 1e12, 1e20, 1e28)

    @staticmethod
    def _channels(rng):
        """Four each of General, Degraded and ReducedRank, at P = 1."""
        found = {kind: [] for kind in ChannelKind}
        while min(map(len, found.values())) < 4:
            a, b, c, d = (rng.gauss(0, 1) for _ in range(4))
            rank_one = rng.random() < 0.3
            h = ((a * c, a * d), (b * c, b * d)) if rank_one else ((a, b), (c, d))
            ch = WiretapChannel(h, (rng.gauss(0, 1), rng.gauss(0, 1)), 1.0)
            kind = classify(ch).kind
            if len(found[kind]) < 4:
                found[kind].append(ch)
        return [(kind, ch) for kind, chs in found.items() for ch in chs]

    def test_every_built_matrix_is_bitwise_symmetric(self, monkeypatch):
        # In a General certificate the rank-one pencil's eigenvalue solver is
        # handed the bound matrix I + P H^T H + P theta* q_perp q_perp^T,
        # which the library builds and never returns.
        pencils = []
        real = mk.gen_eigvals2_rank1

        def recorded(a, factor):
            pencils.append(a)
            return real(a, factor)

        monkeypatch.setattr(mk, "gen_eigvals2_rank1", recorded)
        rng = random.Random(22)
        checked = dict.fromkeys(
            ("gram", "w", "resolvent_inv", "pencil", "A_star", "bound", "coupling",
             "beam", "covariance_from_param", "clipped"),
            0,
        )

        def check(m, what):
            _assert_symmetric(m, what)
            checked[what] += 1

        for kind, base in self._channels(rng):
            for scale in self.SCALES:
                h = (mk.scale2(scale, base.H[0]), mk.scale2(scale, base.H[1]))
                g = mk.scale2(scale, base.g)
                for power in self.POWERS:
                    try:
                        ch = WiretapChannel(h, g, power)
                    except ValueError:  # beyond MAX_SNR or MAX_GAIN_SQ
                        continue
                    check(ch._gram, "gram")
                    for name in ("_w", "_resolvent_inv"):
                        try:
                            check(getattr(ch, name), name[1:])
                        except SingularMatrix:
                            pass
                    for m in ch._beam_pencil:
                        check(m, "pencil")
                    if kind is ChannelKind.GENERAL:
                        try:
                            beam = optimal_beam(ch)
                            tc = optimize_alpha(ch, mk.orth_perp(beam.q_a))
                        except SecrecyError:
                            pass
                        else:
                            check(tc.A_star, "A_star")
                            check(mk.matscale2(power, mk.outer2(beam.q_a, beam.q_a)), "beam")
                            del pencils[:]  # only this certificate's bound matrix
                            capacity_certificate(ch)
                            for m in pencils:
                                check(m, "bound")
                    for _ in range(3):
                        r, t = math.sqrt(rng.random()), rng.uniform(0.0, 2.0 * math.pi)
                        a = (r * math.cos(t), r * math.sin(t))
                        try:
                            check(coupling_gain_matrix(ch, a), "coupling")
                        except NoiseDegenerate:
                            pass
                    t = rng.uniform(0.0, 2.0 * math.pi)
                    q = (math.cos(t), math.sin(t))
                    check(mk.matscale2(power, mk.outer2(q, q)), "beam")
                    p1 = power * rng.random()
                    check(covariance_from_param(t, p1, power - p1), "covariance_from_param")
                    # A roundoff-negative eigenvalue: the rebuilt covariance.
                    s = covariance_from_param(t, power, -1e-14 * power)
                    assert mk.sym_eig2(s)[0][1] < 0.0
                    check(validate_covariance(s, power).S, "clipped")
        assert min(checked.values()) > 0, checked
