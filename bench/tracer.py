"""Outside-in tracing of sicfield's layers.

The tracer wraps a fixed list of public functions and methods of each
package module, without editing the package. Every call records a span
(name, start, end, parent) in flat in-memory arrays; `summary()` turns
them into per-span call counts, self times and outermost total times,
and `save()` writes the raw spans out once the traced work is done.

A function imported by name into another module (`sic4` imports
`displacement_exact` and `minimal_polynomial`, `search` imports
`displacement`, the package `__init__` re-exports most of them) is
replaced in every `sicfield` namespace that holds it, and method
aliases such as `FieldElement.__rmul__ = __mul__` are listed
explicitly. `uninstall()` puts every original back.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

import field

LAYERS = ("cli", "expressions", "tower", "polynomials", "linalg", "minpoly",
          "galois", "matrices", "weyl", "sic4", "search")

#: layer -> span operation -> attributes of sicfield.<layer> that it wraps
TARGETS: dict[str, dict[str, tuple[str, ...]]] = {
    "cli": {
        "main": ("main",),
        "verify_d4": ("cmd_verify_d4",),
        "minpoly": ("cmd_minpoly",),
        "galois": ("cmd_galois",),
        "units": ("cmd_units",),
        "search": ("cmd_search",),
        "serialize_element": ("serialize_element",),
    },
    "expressions": {
        "parse_expression": ("parse_expression",),
        "evaluate_expression": ("evaluate_expression",),
    },
    "tower": {
        "mul": ("FieldElement.__mul__", "FieldElement.__rmul__"),
        "add": ("FieldElement.__add__", "FieldElement.__radd__",
                "FieldElement.__sub__", "FieldElement.__rsub__",
                "FieldElement.__neg__"),
        "div": ("FieldElement.__truediv__", "FieldElement.__rtruediv__"),
        "pow": ("FieldElement.__pow__",),
        "inverse": ("FieldElement.inverse",),
        "conjugate": ("FieldElement.conjugate",),
        "embed": ("embed",),
        "constant": ("constant",),
        "substitute": ("substitute", "substitute_with_powers"),
        "defining_relations_hold": ("defining_relations_hold",),
    },
    "polynomials": {
        "mul": ("RatPoly.__mul__", "RatPoly.__rmul__"),
        "mod": ("RatPoly.__divmod__",),
        "add": ("RatPoly.__add__", "RatPoly.__radd__", "RatPoly.__sub__",
                "RatPoly.__rsub__", "RatPoly.__neg__"),
        "div": ("RatPoly.__truediv__",),
        "pow": ("RatPoly.__pow__",),
        "eval": ("RatPoly.__call__",),
        "normalize": ("RatPoly.monic", "RatPoly.primitive"),
        "palindromic_lift": ("palindromic_lift",),
    },
    "linalg": {
        "rref": ("rref",),
        "solve": ("solve",),
        "nullspace": ("nullspace",),
    },
    "minpoly": {
        "minimal_polynomial": ("minimal_polynomial",),
        "is_algebraic_integer": ("is_algebraic_integer",),
        "is_unit": ("is_unit",),
        "palindrome_reduce": ("palindrome_reduce",),
        "verify_split": ("verify_split",),
    },
    "galois": {
        "apply": ("Automorphism.apply",),
        "compose": ("Automorphism.__mul__",),
        "pow": ("Automorphism.__pow__",),
        "inverse": ("Automorphism.inverse",),
        **{name: (name,) for name in (
            "standard_generators", "generate_group", "multiplication_table",
            "element_order", "order_census", "center", "is_abelian",
            "is_normal", "certify_structure", "action_table",
            "fixed_subfield_check")},
    },
    "matrices": {name: (name,) for name in (
        "identity", "zeros", "mat_add", "mat_sub", "mat_scale", "mat_mul",
        "mat_vec", "dagger", "trace", "inner")},
    "weyl": {name: (name,) for name in (
        "clock_shift", "displacement", "orbit", "clock_shift_exact",
        "displacement_exact", "orbit_exact")},
    "sic4": {name: (name,) for name in (
        "canonical_phase_matrix", "reconstruct_projector", "fiducial_projector",
        "overlap", "verify_sic_projector", "hermiticity_symmetry_holds",
        "phases_in_inner_field", "phase_unit_audit", "embedded_projector",
        "discriminant")},
    "search": {
        # private, but it is the one place a restart begins, which the
        # step-acceptance count needs
        "restart": ("_single_run",),
        **{name: (name,) for name in (
            "search", "sic_residual", "residual_gradient", "fourth_moment",
            "known_fiducial", "extract_phases")},
    },
}


class Tracer:
    """Spans of one process, kept in flat arrays until the end."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("b")  # no enclosing span of the same name
        self.current = -1
        self.coord_bits_max = 0
        self.residuals: list[tuple[int, float]] = []  # (span, value)
        self._depth: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- installing -------------------------------------------------------

    def _wrap(self, span: str, fn):
        ident = len(self.names)
        self.names.append(span)
        self._depth.append(0)
        names, parents, starts, ends, outer = (
            self.name, self.parent, self.start, self.end, self.outer)
        depth, clock, tracer = self._depth, time.perf_counter, self
        element_result = span.startswith("tower.") and span != "tower.embed"
        residual = span == "search.sic_residual"

        def wrapper(*args, **kwargs):
            idx = len(starts)
            parent = tracer.current
            level = depth[ident]
            names.append(ident)
            parents.append(parent)
            outer.append(level == 0)
            starts.append(0.0)
            ends.append(0.0)
            depth[ident] = level + 1
            tracer.current = idx
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                tracer.current = parent
                depth[ident] = level
            if element_result and hasattr(result, "coords"):
                bits = field.bits(result.coords)
                if bits > tracer.coord_bits_max:
                    tracer.coord_bits_max = bits
            elif residual:
                tracer.residuals.append((idx, result))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        return wrapper

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"sicfield.{layer}") for layer in LAYERS}
        namespaces = [m for name, m in sys.modules.items()
                      if m is not None and (name == "sicfield" or name.startswith("sicfield."))]
        for layer, ops in TARGETS.items():
            for op, attrs in ops.items():
                span = f"{layer}.{op}"
                for attr in attrs:
                    owner_name, _, member = attr.rpartition(".")
                    if owner_name:
                        owner = getattr(modules[layer], owner_name)
                        original = owner.__dict__[member]
                        self._saved.append((owner, member, original))
                        setattr(owner, member, self._wrap(span, original))
                        continue
                    original = getattr(modules[layer], member)
                    wrapped = self._wrap(span, original)
                    for namespace in namespaces:
                        for key, value in list(vars(namespace).items()):
                            if value is original:
                                self._saved.append((namespace, key, original))
                                setattr(namespace, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, self_s, total_s; plus the accepted
        line-search steps and the largest coordinate seen."""
        n = len(self.start)
        duration = [self.end[k] - self.start[k] for k in range(n)]
        child = [0.0] * n
        for k in range(n):
            p = self.parent[k]
            if p >= 0:
                child[p] += duration[k]
        spans: dict[str, dict[str, float]] = {
            name: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for name in self.names}
        for k in range(n):
            entry = spans[self.names[self.name[k]]]
            entry["calls"] += 1
            entry["self_s"] += duration[k] - child[k]
            if self.outer[k]:
                entry["total_s"] += duration[k]
        # a line-search evaluation is accepted when it lowers the restart's
        # best residual so far; the first evaluation of a restart is its start
        accepted = 0
        best: dict[int, float] = {}
        for idx, value in self.residuals:
            p = self.parent[idx]
            if p in best and value < best[p]:
                accepted += 1
            if p not in best or value < best[p]:
                best[p] = value
        return {"spans": spans, "coord_bits_max": self.coord_bits_max,
                "accepted_steps": accepted}

    def save(self, path: str) -> None:
        """Write the raw spans as tab-separated name, start, end, parent."""
        with open(path, "w") as out:
            out.write("name\tstart\tend\tparent\n")
            for k in range(len(self.start)):
                out.write(f"{self.names[self.name[k]]}\t{self.start[k]:.9f}\t"
                          f"{self.end[k]:.9f}\t{self.parent[k]}\n")
