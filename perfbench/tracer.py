"""Per-layer spans recorded from outside the library.

The tracer wraps the public entry points of each ptfkit module (and the
two private simplex kernels that carry most of the time) in timing spans.
A span's self time is its duration minus the time covered by the spans it
caused, so the self times of all spans, the harness's root span around
each operation included, add up to the traced operation time.

Several modules import functions by name (``highorder`` holds its own
``order``, ``multithreshold`` its own ``share_weights``), so wrapping
rebinds every ``ptfkit`` module attribute that refers to a wrapped
function, and :meth:`Tracer.uninstall` puts every original back.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

ROOT = "harness.op"


def _call(fn):
    return fn()


class Tracer:
    """Spans and counters for one traced run; install, run, uninstall."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.realized: set = set()
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []
        # runs one benchmark operation (a no-argument callable) in the root span
        self.root = self._wrap(ROOT, _call)

    # -- spans ---------------------------------------------------------

    def _wrap(self, name: str, fn, note=None):
        stack, self_s, calls = self._stack, self.self_s, self.calls

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            outcome = None
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except BaseException as exc:
                outcome = exc
                raise
            finally:
                dur = perf_counter() - t0
                self_s[name] += dur - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += dur
                if note is not None:
                    note(args, kwargs, outcome)

        traced.__wrapped__ = fn
        return traced

    # -- counters at layer boundaries ------------------------------------

    def _note_tableau(self, args, kwargs, out):
        if isinstance(out, tuple):
            T = out[0]
            self.counts["simplex.tableau_cells"] += T.shape[0] * T.shape[1]
            if T.dtype == object:
                self.counts["simplex.obj_fallbacks"] += 1

    def _note_feasible(self, args, kwargs, out):
        if getattr(out, "feasible", False):
            self.counts["lp.feasible"] += 1

    def _note_realize(self, args, kwargs, out):
        f = args[0] if args else kwargs["f"]
        d = args[1] if len(args) > 1 else kwargs["d"]
        self.realized.add((f.n, f.bits, d))

    def _note_certificate(self, args, kwargs, out):
        if out is not None and not isinstance(out, BaseException):
            self.counts["asummability.found"] += 1

    def _note_cli(self, args, kwargs, out):
        code = out.code if isinstance(out, SystemExit) else out
        if code not in (0, None):
            self.counts["cli.error_exits"] += 1

    def targets(self):
        """(module, function name, span name, counter hook) for every span."""
        return [
            ("_simplex", "solve_free_le", "simplex.extract", None),
            ("_simplex", "_build_tableau", "simplex.build", self._note_tableau),
            ("_simplex", "_pivot_loop_numpy", "simplex.pivot", None),
            ("_simplex", "_pivot_loop_numba", "simplex.pivot", None),
            ("lp", "feasible", "lp.recheck", self._note_feasible),
            ("lp", "feasible_le_int", "lp.recheck", self._note_feasible),
            ("ptf", "realize_at_degree", "ptf.encode", self._note_realize),
            ("ptf", "order", "ptf.order", None),
            ("ptf", "is_threshold", "ptf.order", None),
            ("ptf", "share_weights", "ptf.share_weights", None),
            ("ptf", "same_weight_family", "ptf.family", None),
            ("highorder", "high_order_vectors", "highorder.hov", None),
            ("highorder", "is_high_order_vector", "highorder.probe", None),
            ("highorder", "order_reduce", "highorder.hov", None),
            ("asummability", "find_certificate", "asummability.search", self._note_certificate),
            ("asummability", "check_asummability_theorem", "asummability.search", None),
            ("multithreshold", "synthesize_shared_weight", "multithreshold.synth", None),
            ("multithreshold", "extend_order", "multithreshold.extend", None),
            ("cli", "run", "cli", self._note_cli),
        ]

    # -- install / uninstall ---------------------------------------------

    def install(self) -> None:
        """Rebind every ptfkit module's reference to each target function."""
        import ptfkit  # noqa: F401  (loads every submodule)

        modules = [m for k, m in sorted(sys.modules.items()) if k == "ptfkit" or k.startswith("ptfkit.")]
        for mod_name, fn_name, span, note in self.targets():
            owner = sys.modules.get(f"ptfkit.{mod_name}")
            original = getattr(owner, fn_name, None)
            if original is None:
                continue
            wrapped = self._wrap(span, original, note)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, original))
                        setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()
