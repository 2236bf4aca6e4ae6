"""Per-layer tracing from outside the program.

The tracer wraps public functions of each bosewit module at every module
attribute a caller looks them up from (for example `bosewit.scan.integrated_g2m`
and `bosewit.witnesses.integrated_g2m` both get the wrapper), so no source
file changes. Layer calls become spans kept in memory (name, start, end,
parent span, request id); scalar helpers that take about a microsecond are
counted instead, because a span would cost as much as the call. `uninstall`
puts every original back.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

SPAN, COUNT = "span", "count"

# (layer, module defining the function, attribute, mode)
LAYERS = (
    ("cli", "bosewit.cli", "main", SPAN),
    ("statespec.parse", "bosewit.statespec", "parse_state_file", SPAN),
    ("statespec.build", "bosewit.statespec", "StateSpec.build", SPAN),
    ("scan", "bosewit.scan", "run_scan", SPAN),
    ("separable.sample", "bosewit.separable", "sample_ensemble", SPAN),
    ("separable.sample", "bosewit.separable", "sample_fluctuating_ensemble", SPAN),
    ("separable.build", "bosewit.separable", "ensemble_to_state", SPAN),
    ("separable.to_fock", "bosewit.separable", "to_fock", SPAN),
    ("witnesses.g2m", "bosewit.witnesses", "integrated_g2m", SPAN),
    ("witnesses.csi", "bosewit.witnesses", "csi_ratio", COUNT),
    ("witnesses.qfi", "bosewit.witnesses", "qfi", SPAN),
    ("witnesses.xi2", "bosewit.witnesses", "spin_squeezing", SPAN),
    ("witnesses.eta2", "bosewit.witnesses", "number_squeezing_direct", SPAN),
    ("fock.eig", "bosewit.fock", "hermitian_eig", SPAN),
    ("fock.generator", "bosewit.fock", "generator_matrix", SPAN),
    ("fock.moments", "bosewit.fock", "angular_moments", SPAN),
    ("fock.moments", "bosewit.fock", "normally_ordered_moment", SPAN),
    ("factorials.falling_factorial", "bosewit._factorials", "falling_factorial", COUNT),
    ("factorials.log_binomial", "bosewit._factorials", "log_binomial", COUNT),
)

_BUILD_LAYERS = ("separable.build", "statespec.build")
_COUNTED = "_bosebench_counted"  # set on a witness error once it is counted

# Flop model of a dense complex hermitian eigendecomposition with vectors:
# the symmetric QR count of about 9 n^3 real flops (Golub & Van Loan), times
# 4 for complex arithmetic.
EIG_FLOPS_PER_N3 = 36


def dense_bytes(state) -> int:
    """Bytes of the dense (N+1)^2 complex matrices a built state holds."""
    matrix = getattr(state, "matrix", None)
    if matrix is not None:
        return int(matrix.nbytes)
    sectors = getattr(state, "sectors", None)
    if sectors is not None:
        return sum(dense_bytes(sector) for _, sector in sectors)
    return 0


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, request id]
        self.counts = Counter()
        self.errors = Counter()
        self.request = -1
        self._stack = []
        self._installed = []  # (owner, attribute, original)
        self._witness_error = None
        self._cells = {}  # counted layer -> [calls]

    # --- wrappers ---------------------------------------------------------------

    def _record_error(self, exc: BaseException) -> None:
        # An error passes through every wrapped frame it unwinds; the mark on
        # the exception object counts it once. (An id() set would not: a
        # handled exception is freed and a later one may reuse its address.)
        if isinstance(exc, self._witness_error) and not getattr(exc, _COUNTED, False):
            setattr(exc, _COUNTED, True)
            self.errors[type(exc).__name__] += 1

    def _meter(self, name: str, result) -> None:
        if name == "fock.eig":
            self.counts["fock.eig.flops_computed"] += EIG_FLOPS_PER_N3 * len(result[0]) ** 3
        elif name in _BUILD_LAYERS:
            spans, parent = self.spans, (self._stack[-1] if self._stack else -1)
            while parent >= 0:
                if spans[parent][0] in _BUILD_LAYERS:
                    return
                parent = spans[parent][3]
            self.counts["separable.dense_bytes_computed"] += dense_bytes(result)

    def _span(self, name: str, fn):
        spans, stack = self.spans, self._stack
        metered = name == "fock.eig" or name in _BUILD_LAYERS
        tracer = self

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.request]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._record_error(exc)
                raise
            finally:
                record[2] = perf_counter()
                stack.pop()
            if metered:
                tracer._meter(name, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name: str, fn):
        # The counted helpers run ~1 us per call, so the wrapper stays as lean
        # as a Python call allows: one list-cell increment, no try block for
        # helpers that raise no witness error.
        cell = self._cells.setdefault(name, [0])
        tracer = self

        def counting(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        def counting_errors(*args, **kwargs):
            cell[0] += 1
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                tracer._record_error(exc)
                raise

        wrapper = counting_errors if name.startswith("witnesses.") else counting
        wrapper.__wrapped__ = fn
        return wrapper

    # --- install / uninstall ------------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of every layer function in loaded bosewit modules."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        self._witness_error = importlib.import_module("bosewit.errors").WitnessError
        modules = [m for n, m in sorted(sys.modules.items()) if n == "bosewit" or n.startswith("bosewit.")]
        for layer, module_name, attribute, mode in LAYERS:
            owner = importlib.import_module(module_name)
            if "." in attribute:  # a method: wrap it on its class
                class_name, attribute = attribute.split(".")
                owner = getattr(owner, class_name)
                bindings = [owner]
            else:
                bindings = modules
            original = getattr(owner, attribute)
            wrapper = (self._span if mode == SPAN else self._count)(layer, original)
            for binding in bindings:
                for name, value in list(vars(binding).items()):
                    if value is original:
                        setattr(binding, name, wrapper)
                        self._installed.append((binding, name, original))

    def uninstall(self) -> None:
        for binding, name, original in reversed(self._installed):
            setattr(binding, name, original)
        self._installed.clear()

    # --- analysis -----------------------------------------------------------------

    def layer_table(self) -> dict:
        """Per layer: calls, busy_s (outermost spans of that layer) and self_s
        (span time not covered by child spans)."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        table = {}
        for index, (name, start, end, parent, _) in enumerate(spans):
            row = table.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (end - start) - child_time[index]
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                row["busy_s"] += end - start
        for name, cell in self._cells.items():
            table[name] = {"calls": cell[0]}
        return table

    def write_spans(self, path: Path) -> None:
        """One JSON array per line: name, start, end, parent index, request id."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")
