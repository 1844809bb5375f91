"""Per-layer counters and self times for one pk4lie command, taken from outside.

`install()` replaces every binding of the layer functions it lists with a
wrapper that counts the call and times it.  A name
imported with `from .x import f` is one more binding of `f`, and an alias such
as `Scalar.__radd__ = __add__` is one more binding of `__add__`, so the wrapper
replaces the function wherever a pk4lie module or class holds it.

A layer's self time is the duration of its calls minus the time spent in
wrapped calls they made.  Stage functions (the command, suites, Levi-Civita,
curvature, ...) also record a span: name, start, end and the enclosing span.
Hot functions such as `Scalar.__mul__`, called over a million times per
workload, keep only counters and accumulated time.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.counts = Counter()
        self.seconds = defaultdict(float)
        self.spans = []
        # One frame per active wrapped call: [time covered by wrapped calls it
        # made, id of the innermost enclosing span].  Span ids start at 1.
        self._stack = [[0.0, 0]]

    def timed(self, fn, layer, span=False, outcome=None, errors=None):
        """Wrap `fn`, counting `<layer>.calls` and timing `layer`.

        `layer` is a name or a function of the call's arguments that returns
        one; it is called when the call has ended.  `outcome(result, *args,
        **kwargs)` names a counter to bump after the call, or returns None;
        `errors` maps exception types to counters bumped when they escape.
        """
        counts, seconds, spans, stack = (self.counts, self.seconds,
                                         self.spans, self._stack)
        clock = time.perf_counter
        errors = tuple((errors or {}).items())

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if span:
                spans.append(None)
                sid = len(spans)
            else:
                sid = parent[1]
            frame = [0.0, sid]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                for exc_type, counter in errors:
                    if isinstance(e, exc_type):
                        counts[counter] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                name = layer if isinstance(layer, str) else layer(*args, **kwargs)
                counts[name + ".calls"] += 1
                seconds[name] += end - start - frame[0]
                parent[0] += end - start
                if span:
                    spans[sid - 1] = (sid, parent[1], name, start, end)
            if outcome is not None:
                key = outcome(result, *args, **kwargs)
                if key:
                    counts[key] += 1
            return result

        return wrapper

    def arith(self, fn, op, scalar_type):
        """Wrap a Scalar operator: time it under `scalars.arith` and split its
        calls by operand kind (zero operand, both constant, general)."""
        counts, seconds, stack = self.counts, self.seconds, self._stack
        clock = time.perf_counter
        if op:
            calls, zero, const = (op + ".calls", op + ".zero_operand",
                                  op + ".const_const")

        def wrapper(a, *rest):
            if op:
                counts[calls] += 1
                b = rest[0]
                if isinstance(b, scalar_type):
                    b_zero, b_const = b.num.is_zero, b.is_const
                else:
                    b_zero, b_const = b == 0, True
                if a.num.is_zero or b_zero:
                    counts[zero] += 1
                elif b_const and a.is_const:
                    counts[const] += 1
            parent = stack[-1]
            frame = [0.0, parent[1]]
            stack.append(frame)
            start = clock()
            try:
                return fn(a, *rest)
            finally:
                end = clock()
                stack.pop()
                seconds["scalars.arith"] += end - start - frame[0]
                parent[0] += end - start

        return wrapper

    def counted(self, fn, layer, errors):
        """Count calls and escaping exceptions without timing: for cheap calls
        whose time stays with their caller."""
        counts = self.counts
        errors = tuple(errors.items())

        def wrapper(*args, **kwargs):
            counts[layer + ".calls"] += 1
            try:
                return fn(*args, **kwargs)
            except Exception as e:
                for exc_type, counter in errors:
                    if isinstance(e, exc_type):
                        counts[counter] += 1
                raise

        return wrapper


def _rebind(modules, orig, wrapper) -> int:
    """Replace every module- and class-level binding of `orig`."""
    n = 0
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapper)
                n += 1
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in list(vars(value).items()):
                    if member is orig:
                        setattr(value, attr, wrapper)
                        n += 1
    return n


def install(tracer: Tracer) -> None:
    """Wrap pk4lie's layer functions; `pk4lie.cli` must already be imported."""
    from pk4lie import (catalog, cli, curvature, liealg, linalg, morphisms,
                        notation, phase_space, scalars, structures, verify)
    modules = [m for name, m in sys.modules.items()
               if name == "pk4lie" or name.startswith("pk4lie.")]
    t = tracer

    def wrap(owner, attr, make):
        orig = vars(owner)[attr]
        if _rebind(modules, orig, make(orig)) == 0:
            raise RuntimeError(f"no binding of {owner.__name__}.{attr} to wrap")

    def timed(owner, attr, layer, **kw):
        wrap(owner, attr, lambda f: t.timed(f, layer, **kw))

    Scalar = scalars.Scalar
    wrap(Scalar, "__add__", lambda f: t.arith(f, "scalars.add", Scalar))
    wrap(Scalar, "__mul__", lambda f: t.arith(f, "scalars.mul", Scalar))
    for attr in ("__sub__", "__rsub__", "__neg__", "__truediv__", "__rtruediv__"):
        wrap(Scalar, attr, lambda f: t.arith(f, None, Scalar))

    # poly_gcd's branch is named by the helper it calls: _gcd_with_monomial,
    # _univariate_gcd, or _from_sympy after sympy.gcd.  A call that reaches
    # none of them took the trivial branch (a zero or constant operand).
    gcd_branch = []     # one slot per active poly_gcd call
    last_branch = [""]

    def marks(path):
        def make(f):
            def wrapper(*args, **kwargs):
                if gcd_branch:
                    gcd_branch[-1] = path
                return f(*args, **kwargs)
            return wrapper
        return make

    def branch_of(f):
        def wrapper(*args, **kwargs):
            gcd_branch.append("trivial")
            try:
                return f(*args, **kwargs)
            finally:
                last_branch[0] = gcd_branch.pop()
        return wrapper

    def gcd_layer(*args, **kwargs):
        t.counts["scalars.poly_gcd.calls." + last_branch[0]] += 1
        if last_branch[0] == "multivariate":
            return "scalars.sympy_gcd"
        return "scalars.poly_gcd"

    wrap(scalars, "_gcd_with_monomial", marks("monomial"))
    wrap(scalars, "_univariate_gcd", marks("univariate"))
    wrap(scalars, "_from_sympy", marks("multivariate"))
    wrap(scalars, "poly_gcd", lambda f: t.timed(branch_of(f), gcd_layer))
    timed(scalars.ParamDomain, "sample", "scalars.domain_sample")
    kinds = {"ZeroExact": "zero_exact", "ZeroSampled": "zero_sampled",
             "NonZero": "nonzero"}
    timed(scalars, "identity_test", "scalars.identity_test",
          outcome=lambda v, *args, **kwargs:
          "scalars.identity_test." + kinds[v.kind])

    for attr, layer in (("__matmul__", "linalg.matmul"), ("det", "linalg.det"),
                        ("inverse", "linalg.inverse")):
        timed(linalg.Mat4, attr, layer)
    wrap(linalg.Mat4, "eval", lambda f: t.counted(
        f, "linalg.eval",
        {scalars.DenominatorVanishes: "linalg.eval.denominator_vanishes"}))
    timed(linalg, "signature_of", "linalg.signature_of")
    ambiguous = {linalg.RankAmbiguous: "linalg.rank_ambiguous"}
    timed(linalg, "solve_affine", "linalg.solve_affine", errors=ambiguous)
    timed(linalg, "rank_on_domain", "linalg.rank_on_domain", errors=ambiguous)

    timed(liealg, "form_apply", "liealg.form_apply")
    timed(liealg.LieAlgebra4, "is_lie_algebra", "liealg.is_lie_algebra")
    for name in ("ce_d", "paracomplex_check", "pfaffian_nondegenerate"):
        timed(liealg, name, "liealg." + name)

    for name in ("parse_vector", "parse_two_form", "parse_sym_form",
                 "parse_endo", "parse_brackets", "parse_tuple4"):
        timed(notation, name, "notation.parse")
    for name in ("emit_vector", "emit_two_form", "emit_sym_form", "emit_endo",
                 "emit_brackets"):
        timed(notation, name, "notation.emit")

    timed(catalog, "load_catalog", "catalog.load", span=True)
    for name in ("levi_civita", "validate_para_kahler"):
        timed(structures, name, "structures." + name, span=True)
    for name in ("classify_row", "curvature", "ricci", "solve_soliton"):
        timed(curvature, name, "curvature." + name, span=True)
    timed(curvature, "soliton_family_equal", "curvature.soliton_family_equal")
    timed(morphisms, "transport", "morphisms.transport", span=True)
    timed(morphisms, "check_lie_isomorphism", "morphisms.check_lie_isomorphism")
    timed(morphisms.LinMap, "invertible", "morphisms.invertible")
    for name in ("is_lie_extendible", "assembled_brackets"):
        timed(phase_space, name, "phase_space." + name)

    statuses = {"PASS": "verify.pass", "WARN": "verify.warn", "FAIL": "verify.fail"}

    def tally(reports, cat, scope, *args, **kwargs):
        # `all` runs the other scopes through run_scope: tally those alone.
        if scope != "all":
            for r in reports:
                t.counts[statuses[r.status]] += 1

    timed(verify, "run_scope",
          lambda cat, scope, *args, **kwargs: "verify.suite." + scope,
          span=True, outcome=tally)
    timed(cli, "main", "cli", span=True)
