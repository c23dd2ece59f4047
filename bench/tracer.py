"""Per-layer spans and counters, recorded from outside the program.

`Tracer.install()` replaces each public function named in `TARGETS` by a
wrapper in every loaded `gq` module that holds a reference to it (several
modules import functions by name) and on the owning class for methods.
Each wrapper records one span per call; a layer's self time is its span time
minus the spans of wrapped calls made inside it.  Counters are computed from
the arguments and the result after the span's clock has stopped, and that
time is kept out of the parent's self time as well.
"""

from __future__ import annotations

import importlib
import inspect
import sys

# layer (module) -> wrapped public functions; `Class.method` for methods
TARGETS = {
    "apath": ["integrate", "action_integrate", "reparametrize", "concatenate", "load_apath"],
    "linalg": ["mat_vec", "mat_mul", "rank", "nullspace", "column_space_basis",
               "extend_to_basis", "span_dim", "span_contains", "solve"],
    "complexes": ["lattice_model", "cohomology_pairing", "GradedComplex.cohomology",
                  "lemma3_orthogonality", "boundary_lagrangian",
                  "RelativeComplex.stokes_violation",
                  "SymplecticComplex.compatibility_violation"],
    "graded_algebra": ["GPoly.__mul__", "GPoly.__add__", "left_derivative", "substitute"],
    "sigma_structures": ["poisson_bracket", "derived_bracket", "master_equation",
                         "hamiltonian_to_q", "q_to_hamiltonian", "lambda_check"],
    "forms": ["dorfman_bracket"],
    "nq_core": ["q_square", "commutator"],
    "extensions": ["affine_cocycle_check", "central_extension", "wzw_product"],
    "dsl": ["parse"],
    "session": ["analyze", "execute", "report_render"],
}

FUNCTIONS = [f"{layer}.{name}" for layer, names in TARGETS.items() for name in names]

COUNTERS = ["apath.rk4_steps", "apath.blocks", "linalg.entries_in", "linalg.nnz_in",
            "linalg.rank_out", "complexes.cochain_dim", "graded_algebra.terms_in",
            "graded_algebra.terms_out", "session.checks", "session.checks_failed"]


# -- counters -----------------------------------------------------------------
# Each takes (counters, fn, args, kwargs, result) of one completed call.


def _count_rk4(counters, fn, args, kwargs, result):
    p = args[0]
    steps = (args[1] if len(args) > 1 else
             kwargs.get("steps", inspect.signature(fn).parameters["steps"].default))
    blocks = p.blocks()
    counters["apath.blocks"] += len(blocks)
    counters["apath.rk4_steps"] += sum(max(1, int(round(steps * (p.times[hi] - p.times[lo]))))
                                       for lo, hi in blocks)


def _count_linalg(counters, fn, args, kwargs, result):
    for value in (*args, *kwargs.values()):
        # matrices and lists of vectors are lists of rows
        if isinstance(value, list) and value and isinstance(value[0], list):
            counters["linalg.entries_in"] += sum(len(row) for row in value)
            counters["linalg.nnz_in"] += sum(1 for row in value for x in row if x)
    if fn.__name__ in ("rank", "span_dim"):
        counters["linalg.rank_out"] += result


def _count_terms(counters, fn, args, kwargs, result):
    for value in (*args, *kwargs.values()):
        terms = getattr(value, "terms", None)
        if isinstance(terms, dict):
            counters["graded_algebra.terms_in"] += len(terms)
    counters["graded_algebra.terms_out"] += len(result.terms)


def _count_cochains(counters, fn, args, kwargs, result):
    counters["complexes.cochain_dim"] += sum(result.total.complex.components.values())


def _count_checks(counters, fn, args, kwargs, result):
    counters["session.checks"] += len(result.records)
    counters["session.checks_failed"] += sum(r.verdict == "fail" for r in result.records)


def _counter_for(layer, name):
    if layer == "apath" and name in ("integrate", "action_integrate"):
        return _count_rk4
    if layer == "linalg":
        return _count_linalg
    if layer == "graded_algebra":
        return _count_terms
    if name == "lattice_model":
        return _count_cochains
    if name == "execute":
        return _count_checks
    return None


# -- tracer -------------------------------------------------------------------


class Tracer:
    def __init__(self, clock):
        """`clock` times the spans."""
        self._clock = clock
        self._stack = []            # child time accumulated by each open span
        self._patches = []          # (owner, attribute, original)
        self.calls = dict.fromkeys(FUNCTIONS, 0)
        self.self_s = dict.fromkeys(FUNCTIONS, 0.0)
        self.counters = dict.fromkeys(COUNTERS, 0)

    def reset(self):
        """Zero every total in place: the installed wrappers hold these dicts."""
        for totals in (self.calls, self.self_s, self.counters):
            for key in totals:
                totals[key] = 0

    def _wrap(self, name, fn, count):
        stack, calls, self_s, counters = self._stack, self.calls, self.self_s, self.counters
        clock = self._clock

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            done = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                t1 = clock()
                stack.pop()
                self_s[name] += t1 - t0 - frame[0]
                calls[name] += 1
                if done and count is not None:
                    count(counters, fn, args, kwargs, result)
                if stack:
                    stack[-1][0] += clock() - t0
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    def install(self):
        """Patch every target; counters and calls accumulate until `reset`."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "gq" or n.startswith("gq."))]
        for layer, names in TARGETS.items():
            module = importlib.import_module(f"gq.{layer}")
            for name in names:
                full = f"{layer}.{name}"
                owner_name, _, attr = name.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    original = owner.__dict__[attr]
                    wrapper = self._wrap(full, original, _counter_for(layer, attr))
                    self._patch(owner, attr, original, wrapper)
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(full, original, _counter_for(layer, attr))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def snapshot(self):
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counters": dict(self.counters)}


# -- coverage ----------------------------------------------------------------

# Per workload: function-name prefix -> whether its calls must be zero or
# nonzero.  The longest matching prefix decides; every wrapped function must
# match one, so a wrapper that sees nothing fails loudly.
COVERAGE = {
    "suite": {"": "nonzero"},
    "lattice": {
        "": "zero",
        "linalg.": "nonzero",
        "complexes.": "nonzero",
        "dsl.": "nonzero",
        "session.": "nonzero",
    },
    "symbolic": {
        "": "zero",
        "graded_algebra.GPoly": "nonzero",
        "graded_algebra.left_derivative": "nonzero",
        "sigma_structures.": "nonzero",
        "sigma_structures.lambda_check": "zero",
        "forms.": "nonzero",
        "dsl.": "nonzero",
        "session.": "nonzero",
    },
}


def coverage_errors(workload, calls) -> list[str]:
    rules = COVERAGE[workload]
    errors = []
    for name in FUNCTIONS:
        prefix = max((p for p in rules if name.startswith(p)), key=len)
        want = rules[prefix]
        if (calls[name] > 0) != (want == "nonzero"):
            errors.append(f"{name}.calls = {calls[name]}, expected {want} on {workload}")
    return errors
