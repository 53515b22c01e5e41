"""Layer tracing from outside the package.

The traced run replaces library functions by wrappers at the names their
callers look up: module attributes, which Python reads at call time, and
``WiretapChannel.gram`` on the class.  Nothing under ``src/`` changes.
A layer is one module of the package.

Two kinds of wrapper:

* a span times one call and charges its duration, minus that of the traced
  calls it makes, to the layer of the function, so summing a layer's spans
  gives its self time.  Untraced helpers (matkit kernels, small channel
  functions) count towards the traced function that calls them;
* a counter only counts.  The matkit kernels take about 1 us, so they are
  counted and never timed, and the count pass runs with counters alone so
  that counts and the envelope table do not depend on speed.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "converse", "achievable", "channel", "oracle")

# span name -> (function name, modules whose attribute its callers read).
# The span's layer is the module that defines the function.
SPANS = {
    "cli.main": ("main", ("cli",)),
    "converse.capacity_certificate": ("capacity_certificate", ("cli", "converse")),
    "converse.optimize_alpha": ("optimize_alpha", ("converse",)),
    "converse.bound_max": ("_upper_bound_max_detail", ("converse",)),
    "converse.three_path_u": ("_upper_value_detail", ("converse",)),
    "converse.a_zero": ("a_zero_witness", ("converse",)),
    "achievable.optimal_beam": ("optimal_beam", ("achievable", "converse", "oracle")),
    "channel.classify": ("classify", ("channel", "cli", "converse", "oracle")),
    "channel.sylvester": ("_gaussian_rate_detail", ("channel", "converse")),
    "oracle.brute_force_gaussian": ("brute_force_gaussian", ("oracle",)),
    "oracle.brute_force_upper": ("brute_force_upper", ("oracle",)),
    "oracle.min_over_a": ("min_over_a", ("oracle",)),
    "oracle.kkt_check": ("kkt_check", ("oracle",)),
    "oracle.grid": ("_grid_max_ratio", ("oracle",)),
}

MATKIT_KERNELS = (
    "sym_eig2", "inv2", "matmul2", "det2", "gen_eig2_rank1", "det3", "matmul3", "inv_N",
)

# Counter key for the nominal grid points (nphi x npower per grid call).
GRID_POINTS = "oracle.grid_points"


class Tracer:
    """Installs wrappers, keeps their measurements, and restores the originals."""

    def __init__(self, modules):
        self.modules = modules  # layer name -> module
        self.durations = defaultdict(list)  # span name -> seconds per call
        self.self_s = defaultdict(float)  # layer -> self time, seconds
        self.calls = Counter()  # counter name -> calls
        self.certificates = []  # (P, certificate) returned in the count pass
        self.missing = []  # names no caller looks up any more
        self._open = []  # traced child time of each open span
        self._saved = []

    def install_spans(self):
        for name, (attr, callers) in SPANS.items():
            self._install(name, attr, [self.modules[c] for c in callers], self._span)

    def install_counters(self):
        for name, (attr, callers) in SPANS.items():
            make = {
                "converse.capacity_certificate": self._recorder,
                "oracle.grid": self._grid_counter,
            }.get(name, self._counter)
            self._install(name, attr, [self.modules[c] for c in callers], make)
        matkit = [self.modules["matkit"]]
        for kernel in MATKIT_KERNELS:
            self._install(f"matkit.{kernel}", kernel, matkit, self._counter)
        channel_type = [self.modules["channel"].WiretapChannel]
        self._install("channel.gram", "gram", channel_type, self._counter)

    def restore(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def _install(self, name, attr, owners, make):
        made = []  # (original, wrapper): callers sharing a function share a wrapper
        for owner in owners:
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            wrapper = next((w for f, w in made if f is fn), None)
            if wrapper is None:
                wrapper = make(name, fn)
                made.append((fn, wrapper))
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, wrapper)

    def _span(self, name, fn):
        layer = name.split(".")[0]
        durations = self.durations[name]
        self_s = self.self_s
        open_spans = self._open

        def span(*args, **kwargs):
            open_spans.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self_s[layer] += dt - open_spans.pop()
                durations.append(dt)
                if open_spans:
                    open_spans[-1] += dt

        return span

    def _counter(self, name, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _recorder(self, name, fn):
        calls = self.calls
        certificates = self.certificates

        def recorded(ch, *args, **kwargs):
            calls[name] += 1
            cert = fn(ch, *args, **kwargs)
            certificates.append((ch.P, cert))
            return cert

        return recorded

    def _grid_counter(self, name, fn):
        calls = self.calls

        def counted(d_mat, g, power, nphi, npower, *args, **kwargs):
            calls[name] += 1
            calls[GRID_POINTS] += nphi * npower
            return fn(d_mat, g, power, nphi, npower, *args, **kwargs)

        return counted
