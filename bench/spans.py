"""In-memory span tracing at the call sites between eisenshift modules.

A `Tracer` replaces a function with a timing wrapper in the namespace where
the calling module looks it up (for example `eisenshift.census.shifted_eisenstein`
for the census -> eisenstein call, and `eisenshift.eisenstein.factorize` for
the eisenstein -> primes call).  Calls inside one module are not wrapped, so
a span always marks a crossing from one layer into another.  Nothing under
`src/` is edited: the wrappers exist only while the tracer is installed.

Each span is `(name, start_ns, end_ns, parent_index, poly_id)`.  Spans stay in
memory until the traced task ends; `summarize` then derives inclusive and
self times (a span's duration minus the part covered by its child spans).
"""

from __future__ import annotations

import importlib
import json
import statistics
from collections import Counter
from time import perf_counter_ns

# (module whose namespace holds the name, name, callee layer).
CALL_SITES = (
    ("eisenshift.census", "shifted_eisenstein", "eisenstein"),
    ("eisenshift.census", "is_eisenstein", "eisenstein"),
    ("eisenshift.census", "taylor_shift", "intpoly"),
    ("eisenshift.census", "IntPoly", "intpoly"),
    ("eisenshift.eisenstein", "discriminant", "algebra"),
    ("eisenshift.eisenstein", "principal_subresultant", "algebra"),
    ("eisenshift.eisenstein", "derivative", "intpoly"),
    ("eisenshift.eisenstein", "taylor_shift", "intpoly"),
    ("eisenshift.eisenstein", "factorize", "primes"),
    ("eisenshift.eisenstein", "is_prime", "primes"),
    ("eisenshift.eisenstein", "roots_mod_p", "primes"),
    ("eisenshift.algebra", "derivative", "intpoly"),
    ("eisenshift.algebra", "length", "intpoly"),
    # Entry points the benchmark itself calls; no package module looks
    # these names up in their defining module.
    ("eisenshift.census", "monte_carlo", "census"),
    ("eisenshift.census", "exact_census", "census"),
    ("eisenshift.density", "density_report", "density"),
    ("eisenshift.density", "sinh_bound_check", "density"),
    ("eisenshift.primes", "first_primes", "primes"),
)

LAYERS = ("census", "eisenstein", "algebra", "primes", "intpoly", "density")

ROOT = "bench.task"


class Tracer:
    """Installs span-recording wrappers; use as a context manager."""

    def __init__(self):
        self.spans: list = [(ROOT, 0, 0, -1, None)]
        self.stack = [0]
        self.poly = None
        self.polys = 0
        self.counts: Counter = Counter()
        self.factor_bits: list[int] = []
        self._saved: list = []
        self._last_decided = None

    def __enter__(self):
        for module_name, attr, layer in CALL_SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            site = module_name.rsplit(".", 1)[1]
            hook = getattr(self, "_on_%s_%s" % (site, attr), None)
            wrapper = self._wrap(original, "%s.%s" % (layer, attr), hook)
            setattr(module, attr, wrapper)
        self.spans[0] = (ROOT, perf_counter_ns(), 0, -1, None)
        return self

    def __exit__(self, *exc):
        end = perf_counter_ns()
        self.spans[0] = self.spans[0][:2] + (end, -1, None)
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def _wrap(self, fn, name, hook):
        spans = self.spans
        stack = self.stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            # Top-level calls span many polynomials and carry no id.
            poly = self.poly if parent else None
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (name, start, perf_counter_ns(), parent, poly)
                stack.pop()
                raise
            end = perf_counter_ns()
            stack.pop()
            spans[index] = (name, start, end, parent, poly)
            if hook is not None:
                hook(args, result)
            return result

        return traced

    # Count hooks, named _on_<calling module>_<name>.

    def _on_census_IntPoly(self, args, result):
        # Census builds each sampled or enumerated polynomial once; the
        # spans that follow, up to the next one, work on it.
        self.polys += 1
        self.poly = self.polys
        self.spans[-1] = self.spans[-1][:4] + (self.poly,)  # IntPoly has no child spans

    def _on_census_is_eisenstein(self, args, result):
        self.counts["plain_yes"] += bool(result)

    def _on_census_shifted_eisenstein(self, args, result):
        verdict = result.verdict.value
        self.counts["shifted_" + verdict] += 1
        if verdict == "yes" and result.certificate.shift != 0:
            # Shift 0 comes from the plain witness; any other shift was
            # found by a shift test.
            self.counts["shift_test_yes"] += 1
        # Census escalates a heuristic NO by deciding the same polynomial
        # again with a larger budget.
        self.counts["escalations"] += args[0] is self._last_decided
        self._last_decided = args[0]

    def _on_eisenstein_taylor_shift(self, args, result):
        self.counts["shift_tests"] += 1

    def _on_eisenstein_factorize(self, args, result):
        self.factor_bits.append(abs(args[0]).bit_length())
        self.counts["factorize_uncertified"] += not result.certified

    def wall_ns(self) -> int:
        return self.spans[0][2] - self.spans[0][1]

    def self_times(self) -> list[int]:
        """Self time of every span, in span order."""
        child = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans[1:]:
            child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def summarize(self) -> dict:
        """Per-layer metrics of one traced task (see README.md)."""
        selfs = self.self_times()
        calls: Counter = Counter()
        incl: Counter = Counter()
        self_by_name: Counter = Counter()
        layer_self: Counter = Counter()
        for span, own in zip(self.spans, selfs):
            name, start, end = span[0], span[1], span[2]
            calls[name] += 1
            incl[name] += end - start
            self_by_name[name] += own
            layer_self[name.split(".", 1)[0]] += own
        wall = self.wall_ns()

        def mean_us(name, table=incl):
            return table[name] / calls[name] / 1e3 if calls[name] else 0.0

        def frac(part, whole):
            return part / whole if whole else 0.0

        c = self.counts
        shifted = calls["eisenstein.shifted_eisenstein"]
        out = {
            "algebra.discriminant_us": mean_us("algebra.discriminant"),
            "algebra.subresultant_us": mean_us("algebra.principal_subresultant"),
            "algebra.calls": sum(v for k, v in calls.items() if k.startswith("algebra.")),
            "primes.factorize_us": mean_us("primes.factorize"),
            "primes.factorize_calls": calls["primes.factorize"],
            "primes.factorize_bits_p50": (
                statistics.median(self.factor_bits) if self.factor_bits else 0
            ),
            "primes.factorize_uncertified": c["factorize_uncertified"],
            "primes.roots_us": mean_us("primes.roots_mod_p"),
            "primes.roots_calls": calls["primes.roots_mod_p"],
            "primes.is_prime_calls": calls["primes.is_prime"],
            "primes.first_primes_s": incl["primes.first_primes"] / 1e9,
            "eisenstein.plain_us": mean_us("eisenstein.is_eisenstein"),
            "eisenstein.plain_calls": calls["eisenstein.is_eisenstein"],
            "eisenstein.plain_yes_frac": frac(c["plain_yes"], calls["eisenstein.is_eisenstein"]),
            "eisenstein.shifted_self_us": mean_us("eisenstein.shifted_eisenstein", self_by_name),
            "eisenstein.shifted_calls": shifted,
            "eisenstein.shifted_yes_frac": frac(c["shifted_yes"], shifted),
            "eisenstein.no_heuristic": c["shifted_no-heuristic"],
            "eisenstein.shift_tests": c["shift_tests"],
            "eisenstein.shift_test_yes_frac": frac(c["shift_test_yes"], c["shift_tests"]),
            "intpoly.taylor_shift_us": mean_us("intpoly.taylor_shift"),
            "intpoly.taylor_shift_calls": calls["intpoly.taylor_shift"],
            "intpoly.derivative_calls": calls["intpoly.derivative"],
            "census.self_us_per_poly": frac(layer_self["census"], self.polys) / 1e3,
            "census.escalations": c["escalations"],
            "density.report_s": incl["density.density_report"] / 1e9,
            "density.sinh_s": incl["density.sinh_bound_check"] / 1e9,
        }
        for layer in LAYERS:
            out[layer + ".share"] = frac(layer_self[layer], wall)
        return out

    def write_spans(self, path) -> None:
        """One JSON array per line: name, start_ns, end_ns, parent, poly, self_ns."""
        with open(path, "w", encoding="utf-8") as handle:
            for span, own in zip(self.spans, self.self_times()):
                handle.write(json.dumps(list(span) + [own]) + "\n")
