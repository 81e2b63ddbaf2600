"""In-memory span tracer for the traced run.

Each public function of the traced modules is wrapped at every module
binding it is reachable through: harness, cli and sumnorm import
sum_norm, moment_array, synthesize, analyze, hmu_norm, laplace_transform
and vertical_carleson by name, so wrapping only the defining module would
leave their calls unattributed.  A span's self time is its duration minus
the time of its child spans.  Counters are taken at the same boundaries.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("measures", "fourier", "norms", "sumnorm", "harness", "halfplane", "cli")
PACKAGE = "carleson_lab"


def public_functions(module) -> dict:
    """name -> function for the functions a module defines and exports."""
    out = {}
    for name, obj in vars(module).items():
        fn = inspect.unwrap(obj) if callable(obj) else None
        if (not name.startswith("_") and inspect.isfunction(fn)
                and fn.__module__ == module.__name__):
            out[name] = obj
    return out


class Tracer:
    def __init__(self):
        self.spans = []  # (qualified name, start, end, depth)
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self._stack = []  # [name, start, child seconds]
        self._patches = []  # (module, attribute, original)
        # counters taken at the layer boundaries
        self.solves = []  # (iterations, converged, relative gap, seconds)
        self.scan_samples = 0
        self.scan_solves = 0
        self.points = 0
        self.moment_seen = set()
        self.moment_repeats = 0

    # -- installation -------------------------------------------------------

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, fn in public_functions(module).items():
                traced = self._wrap(f"{layer}.{name}", fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._patches.append((mod, attr, value))
                            setattr(mod, attr, traced)

    def uninstall(self):
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- spans ----------------------------------------------------------------

    def _wrap(self, name: str, fn):
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            frame = [name, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - frame[1]
                self.self_s[name] += dur - frame[2]
                self.calls[name] += 1
                if stack:
                    stack[-1][2] += dur
                self.spans.append((name, frame[1], end, len(stack)))
            if after is not None:
                after(result, dur)
            return result

        return traced

    def _before_harness_corpus_scan(self, args, kwargs):
        self.scan_samples += kwargs["count"] if "count" in kwargs else args[1]

    def _after_sumnorm_sum_norm(self, cert, dur):
        rel = cert.gap / cert.upper if cert.upper > 0 else 0.0
        self.solves.append((cert.iterations, cert.converged, rel, dur))
        if any(frame[0] == "harness.corpus_scan" for frame in self._stack):
            self.scan_solves += 1

    def _before_fourier_synthesize(self, args, kwargs):
        self.points += kwargs["m"] if "m" in kwargs else args[1]

    def _before_fourier_analyze(self, args, kwargs):
        self.points += (kwargs["g"] if "g" in kwargs else args[0]).m

    def _before_measures_moment_array(self, args, kwargs):
        key = (args[0], args[1] if len(args) > 1 else kwargs["n_max"])
        if key in self.moment_seen:
            self.moment_repeats += 1
        else:
            self.moment_seen.add(key)

    # -- aggregation ------------------------------------------------------------

    def layer_self(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(layer + "."))

    def metrics(self, wall_s: float, warnings_by_layer: Counter) -> dict:
        """Per-layer metrics (name -> (value, unit)) for a traced phase of
        wall_s seconds of timed op calls."""
        c, s = self.calls, self.self_s
        iters = [it for it, _, _, _ in self.solves]
        n_solves = len(self.solves)
        top = sum(end - start for _, start, end, depth in self.spans if depth == 0)
        moment_calls = c["measures.moment_array"]
        return {
            "sumnorm.calls": (n_solves, "count"),
            "sumnorm.self_s": (self.layer_self("sumnorm"), "s"),
            "sumnorm.iters": (sum(iters), "count"),
            "sumnorm.iters_p50": (statistics.median(iters) if iters else 0, "count"),
            "sumnorm.iters_max": (max(iters, default=0), "count"),
            "sumnorm.us_per_iter": (1e6 * sum(d for *_, d in self.solves) / max(sum(iters), 1), "us"),
            "sumnorm.converged_frac": (sum(cv for _, cv, _, _ in self.solves) / max(n_solves, 1), "1"),
            "sumnorm.gap_rel_max": (max((g for _, _, g, _ in self.solves), default=0.0), "1"),
            "harness.samples": (self.scan_samples, "count"),
            "harness.self_s": (self.layer_self("harness"), "s"),
            "harness.solves_per_sample": (self.scan_solves / max(self.scan_samples, 1), "1"),
            "fourier.synthesize.calls": (c["fourier.synthesize"], "count"),
            "fourier.synthesize.self_s": (s["fourier.synthesize"], "s"),
            "fourier.analyze.calls": (c["fourier.analyze"], "count"),
            "fourier.analyze.self_s": (s["fourier.analyze"], "s"),
            "fourier.multiplier.self_s": (s["fourier.multiplier"], "s"),
            "fourier.adapted_pair.self_s": (s["fourier.adapted_pair"], "s"),
            "fourier.points": (self.points, "count"),
            "measures.moment_array.calls": (moment_calls, "count"),
            "measures.moment_array.self_s": (s["measures.moment_array"], "s"),
            "measures.moment_array.repeat_frac": (self.moment_repeats / max(moment_calls, 1), "1"),
            "measures.carleson.self_s": (s["measures.radial_carleson"] + s["measures.vertical_carleson"], "s"),
            "measures.singular_integral.self_s": (s["measures.singular_integral"], "s"),
            "measures.laplace_transform.self_s": (s["measures.laplace_transform"], "s"),
            "measures.integration_warnings": (warnings_by_layer["measures"], "count"),
            "norms.hmu_norm.self_s": (s["norms.hmu_norm"], "s"),
            "norms.w_sigma.self_s": (s["norms.w_sigma"], "s"),
            "norms.poisson_sup.calls": (c["norms.poisson_sup"], "count"),
            "norms.poisson_sup.self_s": (s["norms.poisson_sup"], "s"),
            "norms.integration_warnings": (warnings_by_layer["norms"], "count"),
            "halfplane.w_pi_sup.calls": (c["halfplane.w_pi_sup"], "count"),
            "halfplane.w_pi_sup.self_s": (s["halfplane.w_pi_sup"], "s"),
            "halfplane.w_pi.self_s": (s["halfplane.w_pi"], "s"),
            "halfplane.garnett_check.self_s": (s["halfplane.garnett_check"], "s"),
            "halfplane.fourier_check.self_s": (s["halfplane.w_pi_truncated_fourier_check"], "s"),
            "halfplane.integration_warnings": (warnings_by_layer["halfplane"], "count"),
            "cli.calls": (c["cli.main"], "count"),
            "cli.self_s": (self.layer_self("cli"), "s"),
            "trace.unattributed_frac": (max(0.0, 1.0 - top / wall_s) if wall_s > 0 else 0.0, "1"),
        }
