"""Per-layer tracing of the dzeta package, done from outside the program.

`install()` replaces the public entry points of each dzeta module with
wrappers that count calls and accumulate self time: a call's duration minus
the time spent in the wrapped calls it made.  Hot accessors (`is_zero`,
`terms`, scalar `/`, `GaussianRational` arithmetic, `LogSeries` methods) are
left unwrapped on purpose: their time lands in the wrapped caller, which keeps
the tracing overhead bounded and puts the scalar division that `exact_div`
delegates to inside `exact_div`'s own time.  `metrics()` turns the raw
tallies into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

LAYERS = ("symfield", "circle", "tausolver", "pfseries", "identities",
          "numverify", "cli")

# layer -> (module attribute or "Class.method", ...)
ENTRY_POINTS = {
    "symfield": (
        "SymNumber.__add__", "SymNumber.__radd__", "SymNumber.__sub__",
        "SymNumber.__rsub__", "SymNumber.__neg__", "SymNumber.__mul__",
        "SymNumber.__rmul__", "SymNumber.exact_div",
        "SymNumber.__eq__", "bernoulli", "zeta_value", "even_zeta_as_pi_power",
        "render", "to_json_dict", "from_json_dict"),
    "circle": ("log_moment_poly", "log_moment", "s_sum", "pi_moment",
               "basis_moment"),
    "tausolver": ("assemble_system", "fraction_free_solve", "solve_tau_direct",
                  "solve_tau_fast", "check_tau_invariants", "check_conjecture"),
    "pfseries": ("harmonic", "pf_operator", "pi_coefficient",
                 "basis_coefficient", "upper_block_specs",
                 "bottom_block_rewritten", "pi_series", "canonical_basis",
                 "apply_operator", "recursion_closure_violations"),
    "identities": ("closed_sum", "eval_basis_at", "derive_identity",
                   "identity_to_json_dict", "render_identity", "toy_example"),
    "numverify": ("zeta_num", "dzv_num", "alt_sum_num", "sym_to_mpf",
                  "verify_identity_numeric", "fourier_spot_check"),
    "cli": ("main", "build_parser", "cmd_toy", "cmd_tau", "cmd_derive",
            "cmd_check_conjecture", "cmd_basis_check", "cmd_verify"),
}


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self._stack = [0.0]  # per active call: time spent in wrapped callees
        self.peak_terms = 0
        self.peak_coeff_bits = 0
        self.s_sum_args: set = set()
        self.singular = 0
        self.trivial = 0
        self.coeffs_in = 0
        self.max_tail_bound = 0.0
        self.direct_cache = None

    def wrap(self, key, fn, observe=None, split=None):
        """Return a counting, self-timing stand-in for `fn`.

        `observe(args, result, exc)` sees every call's outcome; `split(args)`
        names a sub-key so one function's self time can be divided."""
        stack, calls, self_s = self._stack, self.calls, self.self_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                name = key if split is None else f"{key}.{split(args)}"
                calls[name] += 1
                self_s[name] += elapsed - inner
                if observe is not None:
                    observe(args, result, exc)
                # the caller's self time excludes this call and its observer
                stack[-1] += clock() - start

        traced.__wrapped__ = fn
        return traced

    # -- observers ----------------------------------------------------------

    def _exact_div(self, args, result, exc):
        if result is None:
            return
        terms = list(result.terms())
        self.peak_terms = max(self.peak_terms, len(terms))
        for _, coeff in terms:
            for part in (coeff.re, coeff.im):
                self.peak_coeff_bits = max(self.peak_coeff_bits,
                                           part.numerator.bit_length(),
                                           part.denominator.bit_length())

    def _s_sum(self, args, result, exc):
        self.s_sum_args.add(args)

    def _solve(self, args, result, exc):
        if exc is not None and type(exc).__name__ == "SingularSystem":
            self.singular += 1

    def _derive(self, args, result, exc):
        if result is not None and result.kind == "trivial":
            self.trivial += 1

    def _apply(self, args, result, exc):
        self.coeffs_in += sum(len(block) for block in args[1].blocks)

    def _verify(self, args, result, exc):
        if result is not None:
            self.max_tail_bound = max(self.max_tail_bound, result.tail_bound)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point of every dzeta module, wherever bound."""
        observers = {
            "symfield.SymNumber.exact_div": self._exact_div,
            "circle.s_sum": self._s_sum,
            "tausolver.fraction_free_solve": self._solve,
            "identities.derive_identity": self._derive,
            "pfseries.apply_operator": self._apply,
            "numverify.verify_identity_numeric": self._verify,
        }
        splits = {"numverify.verify_identity_numeric": lambda a: a[0].kind}
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name == "dzeta" or name.startswith("dzeta.")]
        for layer, entries in ENTRY_POINTS.items():
            module = sys.modules[f"dzeta.{layer}"]
            for entry in entries:
                key = f"{layer}.{entry}"
                owner_name, _, attr = entry.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = owner.__dict__[attr] if owner_name else getattr(module, attr)
                wrapped = self.wrap(key, original, observers.get(key),
                                    splits.get(key))
                if owner_name:
                    setattr(owner, attr, wrapped)
                    continue
                # `from .x import f` bindings must see the wrapper too
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, name, wrapped)
        self.direct_cache = sys.modules["dzeta.tausolver"].solve_tau_direct.__wrapped__

    # -- results ------------------------------------------------------------

    def _sum(self, table, *keys):
        return sum(table.get(k, 0) for k in keys)

    def metrics(self) -> dict:
        c, t = self.calls, self.self_s
        layer_s = {layer: 0.0 for layer in LAYERS}
        for key, value in t.items():
            layer_s[key.split(".", 1)[0]] += value
        mul = ("symfield.SymNumber.__mul__", "symfield.SymNumber.__rmul__")
        addsub = tuple(f"symfield.SymNumber.{op}" for op in
                       ("__add__", "__radd__", "__sub__", "__rsub__"))
        div = ("symfield.SymNumber.exact_div",)
        out = {
            "symfield.mul_calls": self._sum(c, *mul),
            "symfield.mul_s": self._sum(t, *mul),
            "symfield.exact_div_calls": self._sum(c, *div),
            "symfield.exact_div_s": self._sum(t, *div),
            "symfield.addsub_calls": self._sum(c, *addsub),
            "symfield.addsub_s": self._sum(t, *addsub),
            "symfield.peak_terms": self.peak_terms,
            "symfield.peak_coeff_bits": self.peak_coeff_bits,
            "symfield.render_s": t.get("symfield.render", 0.0),
            "circle.basis_moment_calls": c.get("circle.basis_moment", 0),
            "circle.basis_moment_s": t.get("circle.basis_moment", 0.0),
            "circle.log_moment_s": t.get("circle.log_moment", 0.0),
            "circle.s_sum_calls": c.get("circle.s_sum", 0),
            "circle.s_sum_distinct": len(self.s_sum_args),
            "tausolver.systems": c.get("tausolver.fraction_free_solve", 0),
            "tausolver.singular_retries": self.singular,
            "tausolver.assemble_s": t.get("tausolver.assemble_system", 0.0),
            "tausolver.solve_s": t.get("tausolver.fraction_free_solve", 0.0),
            "tausolver.fast_calls": c.get("tausolver.solve_tau_fast", 0),
            "tausolver.fast_s": t.get("tausolver.solve_tau_fast", 0.0),
            "tausolver.direct_memo_hits": self.direct_cache.cache_info().hits,
            "pfseries.apply_operator_calls": c.get("pfseries.apply_operator", 0),
            "pfseries.apply_operator_s": t.get("pfseries.apply_operator", 0.0),
            "pfseries.coeffs_in": self.coeffs_in,
            "pfseries.canonical_basis_s": t.get("pfseries.canonical_basis", 0.0),
            "pfseries.closure_s": t.get("pfseries.recursion_closure_violations", 0.0),
            "identities.derive_calls": c.get("identities.derive_identity", 0),
            "identities.trivial": self.trivial,
            "identities.derive_s": t.get("identities.derive_identity", 0.0),
            "numverify.verify_calls": self._sum(
                c, "numverify.verify_identity_numeric.dzv",
                "numverify.verify_identity_numeric.alt"),
            "numverify.dzv_s": t.get("numverify.verify_identity_numeric.dzv", 0.0),
            "numverify.alt_s": t.get("numverify.verify_identity_numeric.alt", 0.0),
            "numverify.sym_to_mpf_s": t.get("numverify.sym_to_mpf", 0.0),
            "numverify.max_tail_bound": self.max_tail_bound,
            "trace.total_s": sum(layer_s.values()),
        }
        out.update({f"{layer}.self_s": s for layer, s in layer_s.items()})
        return out
