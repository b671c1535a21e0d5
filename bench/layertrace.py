"""Per-layer tracing for the benchmark, from outside the package.

The tracer wraps layer-boundary functions and methods of ``ffdioph`` while
it is installed and restores the originals when it is removed, so untraced
passes run the unmodified code.  A module-level function is replaced in
every ``ffdioph`` module that holds it under any name, because functions
such as ``measure_union`` and ``in_phi_f_point`` are imported into several
modules; methods are replaced on their class.

Spans are aggregated in memory per (parent layer, layer): calls, total time
and self time (the span minus the time covered by its traced children).
The aggregates and the per-sweep cell tallies are written out at the end of
the run.  Counts are deterministic; times are not.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute, span name).  Attributes with a dot are methods.
SPANS = [
    ("xcli", "run_khintchine", "xcli.driver"),
    ("xcli", "run_biggrad", "xcli.driver"),
    ("xcli", "run_qn", "xcli.driver"),
    ("xcli", "run_ubiquity", "xcli.driver"),
    ("dioph", "measure_W", "dioph.measure_W"),
    ("dioph", "measure_bigA", "dioph.measure_bigA"),
    ("dioph", "measure_phi_f", "dioph.measure_phi_f"),
    ("dioph", "in_phi_f_point", "dioph.phi_point"),
    ("dioph", "WitnessAtom.status", "dioph.atom_status"),
    ("dioph", "MapCellData.__init__", "dioph.cell_data"),
    ("goodfn", "measure_union", "goodfn.measure_union"),
    ("goodfn", "sup_norm_on_ball", "goodfn.sup_norm"),
    ("goodfn", "PolyAbsAtom.status", "goodfn.poly_atom"),
    ("goodfn", "TrueAtom.status", "goodfn.true_atom"),
    ("goodfn", "ConjAtom.status", "goodfn.conj_atom"),
    ("ultracalc", "MPoly.eval", "ultracalc.eval"),
    ("ultracalc", "MPoly.recenter", "ultracalc.recenter"),
    ("ultracalc", "MPoly.partial", "ultracalc.partial"),
    ("ffield", "Laurent.__mul__", "ffield.laurent_mul"),
    ("ffield", "Laurent.__add__", "ffield.laurent_add"),
    ("ffield", "Laurent.inv", "ffield.laurent_div"),
    ("ffield", "Laurent.div_to_floor", "ffield.laurent_div"),
    ("latdyn", "reduce_lattice", "latdyn.reduce"),
    ("latdyn", "LaurentMatrix.det", "latdyn.det"),
    ("latdyn", "qn_bound_probe", "latdyn.qn_probe"),
    ("ubiq", "construct_resonant_witness", "ubiq.witness"),
    ("ubiq", "newton_root_1d", "ubiq.newton"),
    ("ubiq", "resonant_gate", "ubiq.gate"),
    ("ubiq", "dist_to_resonant", "ubiq.dist"),
    ("ubiq", "ResonantDistAtom.status", "ubiq.dist_atom"),
]

# atom classes whose status calls mark the cells a sweep visits
ATOM_SPANS = {"dioph.atom_status", "goodfn.poly_atom", "goodfn.true_atom",
              "goodfn.conj_atom", "ubiq.dist_atom"}

SWEEP = "goodfn.measure_union"

# (metric, kind, span names): kind is calls, self_s or us_per_call
SPAN_METRICS = [
    ("xcli.driver.self_s", "self_s", ["xcli.driver"]),
    ("dioph.measure_W.calls", "calls", ["dioph.measure_W"]),
    ("dioph.sweep_setup.self_s", "self_s",
     ["dioph.measure_W", "dioph.measure_bigA", "dioph.measure_phi_f"]),
    ("dioph.atom_status.calls", "calls", ["dioph.atom_status"]),
    ("dioph.atom_status.self_s", "self_s", ["dioph.atom_status"]),
    ("dioph.cell_data.calls", "calls", ["dioph.cell_data"]),
    ("dioph.cell_data.self_s", "self_s", ["dioph.cell_data"]),
    ("dioph.phi_point.calls", "calls", ["dioph.phi_point"]),
    ("dioph.phi_point.self_s", "self_s", ["dioph.phi_point"]),
    ("goodfn.sweeps", "calls", [SWEEP]),
    ("goodfn.measure_union.self_s", "self_s", [SWEEP]),
    ("goodfn.sup_norm.calls", "calls", ["goodfn.sup_norm"]),
    ("goodfn.sup_norm.self_s", "self_s", ["goodfn.sup_norm"]),
    ("goodfn.poly_atom.self_s", "self_s", ["goodfn.poly_atom"]),
    ("ultracalc.eval.calls", "calls", ["ultracalc.eval"]),
    ("ultracalc.eval.self_s", "self_s", ["ultracalc.eval"]),
    ("ultracalc.recenter.calls", "calls", ["ultracalc.recenter"]),
    ("ultracalc.recenter.self_s", "self_s", ["ultracalc.recenter"]),
    ("ultracalc.partial.calls", "calls", ["ultracalc.partial"]),
    ("ffield.laurent_mul.calls", "calls", ["ffield.laurent_mul"]),
    ("ffield.laurent_mul.self_s", "self_s", ["ffield.laurent_mul"]),
    ("ffield.laurent_mul.us_per_call", "us_per_call", ["ffield.laurent_mul"]),
    ("ffield.laurent_add.calls", "calls", ["ffield.laurent_add"]),
    ("ffield.laurent_add.self_s", "self_s", ["ffield.laurent_add"]),
    ("ffield.laurent_div.calls", "calls", ["ffield.laurent_div"]),
    ("ffield.laurent_div.self_s", "self_s", ["ffield.laurent_div"]),
    ("latdyn.reduce.calls", "calls", ["latdyn.reduce"]),
    ("latdyn.reduce.self_s", "self_s", ["latdyn.reduce"]),
    ("latdyn.det.calls", "calls", ["latdyn.det"]),
    ("latdyn.det.self_s", "self_s", ["latdyn.det"]),
    ("latdyn.qn_probe.self_s", "self_s", ["latdyn.qn_probe"]),
    ("ubiq.witness.calls", "calls", ["ubiq.witness"]),
    ("ubiq.witness.self_s", "self_s", ["ubiq.witness"]),
    ("ubiq.newton.self_s", "self_s", ["ubiq.newton"]),
    ("ubiq.gate.calls", "calls", ["ubiq.gate"]),
    ("ubiq.gate.self_s", "self_s", ["ubiq.gate"]),
    ("ubiq.dist.self_s", "self_s", ["ubiq.dist"]),
]

# every per-layer metric the traced run reports, with its unit
PER_LAYER_UNITS = {name: ("s" if kind == "self_s" else "us" if kind == "us_per_call"
                          else "count")
                   for name, kind, _ in SPAN_METRICS}
PER_LAYER_UNITS.update({
    "dioph.phi_point.repeat_ratio": "ratio",
    "goodfn.cells": "count",
    "goodfn.atoms_per_cell": "ratio",
    "ffield.subdivide.calls": "count",
    "trace.overhead_s": "s",
})

# metrics that are counts (or ratios of counts): they must repeat exactly
COUNT_METRICS = sorted(n for n, u in PER_LAYER_UNITS.items()
                       if u in ("count", "ratio"))


class Sweep:
    """Cell tallies of one measure_union call."""

    __slots__ = ("q", "d", "atoms", "cells", "evals", "subdivisions", "last_ctx")

    def __init__(self, q: int, d: int, atoms: int):
        self.q, self.d, self.atoms = q, d, atoms
        # a sweep over no atoms visits its domain without any status call
        self.cells = 0 if atoms else 1
        self.evals = 0
        self.subdivisions = 0
        self.last_ctx = None


class Tracer:
    def __init__(self):
        self.stack: list[list] = []           # [span name, child time]
        self.calls = defaultdict(int)         # (parent, name) -> calls
        self.total = defaultdict(float)       # (parent, name) -> seconds
        self.self_time = defaultdict(float)   # (parent, name) -> seconds
        self.sweeps: list[Sweep] = []
        self.phi_keys: set = set()
        self.subdivide_calls = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn):
        stack, calls, total, self_time = self.stack, self.calls, self.total, self.self_time
        clock = time.perf_counter
        tracer = self

        if name in ATOM_SPANS:
            def before(args):
                # a status call straight from the engine: one atom decision;
                # a fresh ctx dict marks the next cell of the sweep
                if stack and stack[-1][0] == SWEEP:
                    sw = tracer.sweeps[-1]
                    sw.evals += 1
                    ctx = args[2]
                    if ctx is not sw.last_ctx:
                        sw.cells += 1
                        sw.last_ctx = ctx
        elif name == SWEEP:
            def before(args):
                atoms, domain = args[0], args[1]
                tracer.sweeps.append(Sweep(domain.spec.q, domain.d, len(atoms)))
        elif name == "dioph.phi_point":
            def before(args):
                m, x, t, delta_exp = args[:4]
                tracer.phi_keys.add((id(m), tuple(x), t, delta_exp))
        else:
            before = None

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                key = (parent, name)
                calls[key] += 1
                total[key] += dur
                self_time[key] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _subdivide(self, fn):
        stack = self.stack
        tracer = self

        def wrapper(cell):
            # a generator: counted, not timed (its work runs in the caller)
            tracer.subdivide_calls += 1
            if stack and stack[-1][0] == SWEEP:
                tracer.sweeps[-1].subdivisions += 1
            return fn(cell)

        return wrapper

    # -- install / remove ---------------------------------------------------

    def install(self) -> None:
        pkg = {n: m for n, m in sys.modules.items()
               if n == "ffdioph" or n.startswith("ffdioph.")}
        for modname, attr, name in SPANS:
            owner = pkg[f"ffdioph.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._replace(cls, meth, self._span(name, cls.__dict__[meth]))
            else:
                orig = getattr(owner, attr)
                wrapped = self._span(name, orig)
                for mod in pkg.values():
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._replace(mod, key, wrapped)
        ball = pkg["ffdioph.ffield"].Ball
        self._replace(ball, "subdivide", self._subdivide(ball.__dict__["subdivide"]))

    def _replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- results ------------------------------------------------------------

    def _sum(self, table, names) -> float:
        return sum(v for (_, n), v in table.items() if n in names)

    def metrics(self) -> dict:
        out: dict = {}
        for metric, kind, names in SPAN_METRICS:
            names = set(names)
            calls = self._sum(self.calls, names)
            if kind == "calls":
                out[metric] = int(calls)
            elif kind == "self_s":
                out[metric] = self._sum(self.self_time, names)
            else:
                t = self._sum(self.self_time, names)
                out[metric] = 1e6 * t / calls if calls else 0.0
        phi_calls = out["dioph.phi_point.calls"]
        out["dioph.phi_point.repeat_ratio"] = (
            phi_calls / len(self.phi_keys) if self.phi_keys else 0.0)
        cells = sum(s.cells for s in self.sweeps)
        evals = sum(s.evals for s in self.sweeps)
        out["goodfn.cells"] = cells
        out["goodfn.atoms_per_cell"] = evals / cells if cells else 0.0
        out["ffield.subdivide.calls"] = self.subdivide_calls
        return out

    def cell_identity_errors(self) -> list[str]:
        """Each sweep visits its domain plus q^d children per subdivision."""
        errs = []
        for i, s in enumerate(self.sweeps):
            want = 1 + s.q ** s.d * s.subdivisions
            if s.cells != want:
                errs.append(f"sweep {i}: {s.cells} cells visited, "
                            f"1 + q^d x subdivisions = {want}")
        return errs

    def spans(self) -> list[dict]:
        return [
            {"parent": parent, "name": name, "calls": self.calls[(parent, name)],
             "total_s": self.total[(parent, name)],
             "self_s": self.self_time[(parent, name)]}
            for parent, name in sorted(self.calls, key=lambda k: (str(k[0]), k[1]))
        ]

    def sweep_table(self) -> list[dict]:
        return [{"q": s.q, "d": s.d, "atoms": s.atoms, "cells": s.cells,
                 "atom_evals": s.evals, "subdivisions": s.subdivisions}
                for s in self.sweeps]
