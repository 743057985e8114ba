"""Per-layer tracing from outside the program.

``Tracer`` replaces each traced public function with a wrapper in every
anonvote module namespace that binds it (``welfare_opt.check_bic``,
``mechanisms.check_bic`` and ``cli.check_bic`` are separate bindings), so a
call between layers becomes a child span of its caller. Spans stay in memory
until the run ends. A layer's self time is its span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (module, function) at each layer boundary, named by the defining module.
TARGETS = (
    ("cli", "main"),
    ("environments", "environment_from_json"),
    ("environments", "validate_environment"),
    ("welfare_opt", "build_opt_lp"),
    ("welfare_opt", "solve_opt"),
    ("ratlp", "solve"),
    ("mechanisms", "check_bic"),
    ("mechanisms", "welfare"),
    ("mechanisms", "welfare_via_interims"),
    ("mechanisms", "qmr_best"),
    ("mechanisms", "wmr_build"),
    ("mechanisms", "ordinal_projection"),
)
LAYERS = tuple(f"{m}.{f}" for m, f in TARGETS)


def _lp_size(result):
    lp = result[0]
    return {"cols": lp.num_vars, "rows": len(lp.eq_rows) + len(lp.ineq_rows)}


def _pivots(result):
    return {"pivots": result.pivots}


# Work counts read from a layer's return value and summed over its calls.
WORK = {"welfare_opt.build_opt_lp": (("cols", "rows"), _lp_size), "ratlp.solve": (("pivots",), _pivots)}


def _stat_names(layer):
    return ("self_s", "calls", "errors") + (WORK[layer][0] if layer in WORK else ())


def metric_names() -> list[str]:
    return [f"{layer}.{stat}" for layer in LAYERS for stat in _stat_names(layer)]


class Tracer:
    """While installed, records one span per traced call and per-layer stats."""

    def __init__(self):
        self.spans = []  # (op id, layer, start, end, parent span index or None)
        self.op_id = None
        self._stack = []  # open spans: [span index, start, time covered by children]
        self._patched = []
        self.reset()

    def reset(self):
        """Zero the per-layer stats; spans are kept."""
        self.stats = {layer: dict.fromkeys(_stat_names(layer), 0) for layer in LAYERS}

    def metrics(self) -> dict:
        return {f"{layer}.{k}": v for layer, stats in self.stats.items() for k, v in stats.items()}

    def _wrap(self, layer, original):
        stack, spans = self._stack, self.spans
        work = WORK.get(layer, (None, None))[1]

        def traced(*args, **kwargs):
            stats = self.stats[layer]
            parent = stack[-1][0] if stack else None
            frame = [len(spans), perf_counter(), 0.0]
            spans.append(None)
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                stats["errors"] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[1]
                stats["self_s"] += duration - frame[2]
                stats["calls"] += 1
                if stack:
                    stack[-1][2] += duration
                spans[frame[0]] = (self.op_id, layer, frame[1], end, parent)
            if work is not None:
                try:
                    counts = work(result)
                except (AttributeError, TypeError, IndexError):
                    counts = {}  # a later version returns another shape
                for key, value in counts.items():
                    stats[key] += value
            return result

        return traced

    def install(self):
        """Patch every anonvote namespace. A function that no longer exists
        is skipped, so its layer reports 0 calls."""
        modules = [
            module
            for name, module in sys.modules.items()
            if name == "anonvote" or name.startswith("anonvote.")
        ]
        for module_name, function in TARGETS:
            original = getattr(sys.modules.get(f"anonvote.{module_name}"), function, None)
            if original is None:
                continue
            wrapper = self._wrap(f"{module_name}.{function}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
