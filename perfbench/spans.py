"""Layer spans for the traced benchmark pass.

`install` replaces every public function of every adjointlab module with a
timing wrapper, in each module namespace that binds it (so
`cli.character_grid`, `disk.character_grid` and
`characters.character_grid` all lead to the same wrapper). Nothing under
`src/` changes.

Spans are aggregated in memory per name: calls, total time and the time
covered by child spans, so self time = total - child. Time the worker's
speed probe takes inside a span is left out of it (`Tracer.exclude`). A
function named in `NAMED` always opens its own span. Any other public
function opens a `<layer>.other` span only when it is entered from a
different layer; inside its own layer it runs unwrapped, so helpers such
as `dominant_representative` count toward the named span that called
them and cost almost nothing to trace.
"""

from __future__ import annotations

import inspect
import os
import sys
import time

PACKAGE = "adjointlab"

# module -> layer; `exact` is the exact-arithmetic half of `rootsys`
LAYER_OF_MODULE = {
    "rootsys": "rootsys",
    "exact": "rootsys",
    "characters": "characters",
    "compactform": "compactform",
    "classpowers": "classpowers",
    "orbits": "orbits",
    "simplex": "simplex",
    "disk": "disk",
    "reporting": "reporting",
    "cli": "cli",
}
LAYERS = tuple(dict.fromkeys(LAYER_OF_MODULE.values()))

# (module, function) -> span name
NAMED = {
    ("rootsys", "build_root_system"): "rootsys.build",
    ("rootsys", "enumerate_adjoint_dominant_weights"): "rootsys.enumerate",
    ("characters", "weight_multiplicities"): "characters.tables",
    ("characters", "character_grid"): "characters.grid",
    ("characters", "weyl_density_grid"): "characters.density",
    ("characters", "haar_character_integral"): "characters.haar",
    ("characters", "theta_of_torus_fraction"): "characters.theta",
    ("compactform", "build_compact_form"): "compactform.build",
    ("compactform", "group_exp"): "compactform.exp",
    ("compactform", "group_log"): "compactform.log",
    ("compactform", "project_orthogonal"): "compactform.project",
    ("classpowers", "solve_word_to_target"): "classpowers.solve",
    ("classpowers", "word_map"): "classpowers.word_map",
    ("classpowers", "tangent_rank"): "classpowers.tangent_rank",
    ("classpowers", "product_radius_mu"): "classpowers.product_radius",
    ("classpowers", "bch_scaling_fit"): "classpowers.bch_fit",
    ("orbits", "find_vanishing_submersive_tuple"): "orbits.vanishing",
    ("orbits", "lattice_ray_walk"): "orbits.walk",
    ("orbits", "zero_in_hull_interior"): "orbits.hull",
    ("orbits", "bounded_partial_sum_sequence"): "orbits.partial_sums",
    ("simplex", "solve_lp"): "simplex.lp",
    ("disk", "empirical_disk_constant"): "disk.estimate",
    ("disk", "pigeonhole_batch"): "disk.pigeonhole",
    ("disk", "delta_lower_bound_check"): "disk.delta_check",
    ("disk", "arc_constants"): "disk.arc_constants",
    ("reporting", "write_json"): "reporting.write",
    ("reporting", "write_csv"): "reporting.write",
    ("reporting", "svg_scatter"): "reporting.write",
}


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# Work counters: (args, kwargs, result, raised) -> {counter: increment}.
# `result` is None when the call raised.


def _count_table(args, kwargs, result, raised):
    return {} if raised else {"weights": len(result.mults)}


def _count_grid(args, kwargs, result, raised):
    table, n = _arg(args, kwargs, 0, "table"), _arg(args, kwargs, 1, "n")
    return {"terms": len(table.mult_arr) * n ** table.rs.rank}


def _count_solve(args, kwargs, result, raised):
    return {"ok": int(not raised)}


def _count_hull(args, kwargs, result, raised):
    return {"certified": int(type(result).__name__ == "HullCertificate")}


def _count_partial_sums(args, kwargs, result, raised):
    return {"steps": int(_arg(args, kwargs, 2, "length"))}


def _count_lp(args, kwargs, result, raised):
    return {"optimal": int(not raised and result.status == "optimal")}


def _count_pigeonhole(args, kwargs, result, raised):
    if raised:
        return {}
    return {"samples": int(result.k.size), "fallbacks": int(result.fallback.sum())}


def _count_delta(args, kwargs, result, raised):
    return {} if raised else {"samples": int(result.n_samples)}


def _count_write(args, kwargs, result, raised):
    return {} if raised else {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


COUNTERS = {
    "characters.tables": _count_table,
    "characters.grid": _count_grid,
    "classpowers.solve": _count_solve,
    "orbits.hull": _count_hull,
    "orbits.partial_sums": _count_partial_sums,
    "simplex.lp": _count_lp,
    "disk.pigeonhole": _count_pigeonhole,
    "disk.delta_check": _count_delta,
    "reporting.write": _count_write,
}


class Tracer:
    """In-memory span aggregates for one process."""

    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [layer, calls, total_s, child_s]
        self.counts: dict[str, int] = {}  # "<span>.<counter>" -> total
        self.top_s = 0.0  # time inside outermost spans
        self._stack: list[list] = []  # open frames: [layer, child_s, excluded_s]

    def wrap(self, fn, layer: str, name: str | None):
        """Wrapper opening span `name`; None names a `<layer>.other` span
        (or, for `cli.main`, a `cli.<subcommand>` span)."""
        stack, spans, counts = self._stack, self.spans, self.counts
        clock = time.perf_counter
        count = COUNTERS.get(name)
        nested_free = name is None and layer != "cli"

        def traced(*args, **kwargs):
            if nested_free and stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            span = name
            if span is None:
                span = f"cli.{args[0][0]}" if layer == "cli" else f"{layer}.other"
            frame = [layer, 0.0, 0.0]
            stack.append(frame)
            raised = True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                dt = clock() - t0 - frame[2]
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                else:
                    self.top_s += dt
                agg = spans.get(span)
                if agg is None:
                    agg = spans[span] = [layer, 0, 0.0, 0.0]
                agg[1] += 1
                agg[2] += dt
                agg[3] += frame[1]
                if count is not None:
                    got = count(args, kwargs, None if raised else result, raised)
                    for key, inc in got.items():
                        key = f"{span}.{key}"
                        counts[key] = counts.get(key, 0) + inc
            return result

        return traced

    def exclude(self, dt: float) -> None:
        """Leave `dt` seconds just spent outside adjointlab out of every
        open span."""
        for frame in self._stack:
            frame[2] += dt

    def snapshot(self) -> dict:
        return {
            "spans": {k: list(v) for k, v in self.spans.items()},
            "counts": dict(self.counts),
            "top_s": self.top_s,
        }


def _traceable(fn) -> bool:
    return (
        inspect.isfunction(fn)
        and not fn.__name__.startswith("_")
        and fn.__module__.startswith(PACKAGE + ".")
        and fn.__module__.rpartition(".")[2] in LAYER_OF_MODULE
    )


def install(tracer: Tracer) -> None:
    """Wrap every public adjointlab function wherever a module binds it.

    The package must already be imported.
    """
    modules = [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]
    wrappers = {}
    for mod in modules:
        for attr, fn in list(vars(mod).items()):
            if not _traceable(fn):
                continue
            if id(fn) not in wrappers:
                origin = fn.__module__.rpartition(".")[2]
                wrappers[id(fn)] = tracer.wrap(
                    fn, LAYER_OF_MODULE[origin], NAMED.get((origin, fn.__name__))
                )
            setattr(mod, attr, wrappers[id(fn)])


# -- per-layer metrics ----------------------------------------------------------

# span -> fields reported from a traced pass
REPORTED = {
    "rootsys.build": ("self_s",),
    "rootsys.enumerate": ("self_s",),
    "characters.tables": ("calls", "weights", "self_s"),
    "characters.grid": ("calls", "terms", "self_s"),
    "characters.density": ("self_s",),
    "characters.haar": ("self_s",),
    "characters.theta": ("calls", "self_s"),
    "compactform.build": ("calls", "self_s"),
    "compactform.exp": ("calls", "self_s"),
    "compactform.log": ("calls", "self_s"),
    "compactform.project": ("calls", "self_s"),
    "classpowers.solve": ("calls", "ok_frac", "self_s"),
    "classpowers.word_map": ("calls",),
    "classpowers.tangent_rank": ("self_s",),
    "classpowers.product_radius": ("self_s",),
    "classpowers.bch_fit": ("self_s",),
    "orbits.vanishing": ("self_s",),
    "orbits.walk": ("self_s",),
    "orbits.hull": ("calls", "certified_frac", "self_s"),
    "orbits.partial_sums": ("steps", "self_s"),
    "simplex.lp": ("calls", "optimal_frac", "self_s"),
    "disk.estimate": ("self_s",),
    "disk.pigeonhole": ("samples", "fallback_frac", "self_s"),
    "disk.delta_check": ("samples", "self_s"),
    "disk.arc_constants": ("self_s",),
    "reporting.write": ("calls", "bytes", "self_s"),
}
# ratio field -> (numerator counter, denominator field); 0 when nothing was attempted
FRACTIONS = {
    "ok_frac": ("ok", "calls"),
    "certified_frac": ("certified", "calls"),
    "optimal_frac": ("optimal", "calls"),
    "fallback_frac": ("fallbacks", "samples"),
}
SUBCOMMANDS = ("scan-characters", "estimate-c", "class-power", "bch", "orbit", "arc-lemma")


def layer_metrics(snapshot: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit).

    Span times include the set-up builds, so `rootsys.build.self_s` and
    `compactform.build.self_s` show work that lands in set-up.
    """
    spans, counts = snapshot["spans"], snapshot["counts"]

    def field(span, name):
        _, calls, total, child = spans.get(span, (None, 0, 0.0, 0.0))
        if name == "calls":
            return calls
        if name == "self_s":
            return total - child
        return counts.get(f"{span}.{name}", 0)

    out = {}
    for span, names in REPORTED.items():
        for name in names:
            if name in FRACTIONS:
                num, den = FRACTIONS[name]
                base = field(span, den)
                out[f"{span}.{name}"] = (field(span, num) / base if base else 0.0, "frac")
            else:
                out[f"{span}.{name}"] = (field(span, name), "s" if name == "self_s" else "count")
    for sub in SUBCOMMANDS:
        out[f"cli.{sub}.s"] = (spans.get(f"cli.{sub}", (None, 0, 0.0, 0.0))[2], "s")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (
            sum(total - child for lay, _, total, child in spans.values() if lay == layer), "s"
        )
    return out
