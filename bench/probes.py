"""Per-layer metrics: micro-probes on map_core and the catalog, and the
figures read from a traced pass."""

from __future__ import annotations

import statistics
import time

import numpy as np

import oracles

REPEATS = 5
ARRAY_SIZE = 16384

# the builtin maps by spec name; a metric name spells logistic3.4-embed
# with '_', since '.' separates the parts of a metric name
BUILTIN_MAPS = ("paper-example", "logistic3.4-embed", "logistic4-embed")


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def per_item_ns(fn, items: int) -> float:
    """Median over REPEATS of fn()'s time, in ns per item."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter_ns()
        fn()
        times.append((time.perf_counter_ns() - t0) / items)
    return statistics.median(times)


def micro_probes() -> dict:
    """Direct calls into map_core on logistic4-embed, and the catalog's
    completeness at grid_resolution 4096."""
    from lorenzlab import builtin_map, map_core, periodic

    spec = builtin_map("logistic4-embed")
    # cell centres: none lands on the break point 1/2
    xs = (np.arange(ARRAY_SIZE) + 0.5) / ARRAY_SIZE
    scalars = xs.tolist()
    apply_raw = map_core.apply_raw

    def scalar_steps():
        for _ in range(3):
            for x in scalars:
                apply_raw(spec, x)

    def vector_steps():
        for _ in range(100):
            map_core.eval_array(spec, xs)

    def inverses():
        for _ in range(4):
            map_core.branch_inverse_array(spec, "left", xs)

    catalog = periodic.find_periodic_points(spec, 12, 4096)
    missing = oracles.missing_orbits([r.to_dict() for r in catalog], 12)
    return {
        "map_core.apply_raw.ns": metric(per_item_ns(scalar_steps, 3 * ARRAY_SIZE), "ns/call"),
        "map_core.eval_array.ns": metric(per_item_ns(vector_steps, 100 * ARRAY_SIZE), "ns/element"),
        "map_core.branch_inverse_array.ns": metric(per_item_ns(inverses, 4 * ARRAY_SIZE), "ns/element"),
        "periodic.missing_orbits_4096": metric(missing, "count"),
    }


def layer_metrics(tracer, counts: dict[str, int], overhead_s: float) -> dict:
    """Counts and self times of one traced pass."""
    own = tracer.self_times()

    def self_s(name: str, label: str | None = None) -> float:
        return sum(own[s.id] for s in tracer.spans if s.name == name and label in (None, s.label))

    def total_s(name: str, label: str) -> float:
        return sum(s.end - s.start for s in tracer.spans if s.name == name and s.label == label)

    out = {
        "map_core.apply_raw.calls": metric(counts["map_core.apply_raw"], "count"),
        "map_core.eval_array.elements": metric(tracer.elements.get("map_core.eval_array", 0), "count"),
        "map_core.branch_inverse_array.elements": metric(
            tracer.elements.get("map_core.branch_inverse_array", 0), "count"
        ),
        "map_core.branch_value.calls": metric(counts["map_core.branch_value"], "count"),
        "periodic.find_periodic_points.calls": metric(counts["periodic.find_periodic_points"], "count"),
        "periodic.find_periodic_points.self_s": metric(self_s("periodic.find_periodic_points"), "s"),
        "renorm.find_renormalizations.calls": metric(counts["renorm.find_renormalizations"], "count"),
        "renorm.find_renormalizations.self_s": metric(self_s("renorm.find_renormalizations"), "s"),
        "renorm.trapping_region.self_s": metric(self_s("renorm.trapping_region"), "s"),
    }
    for spec_name in ("logistic4-embed", "paper-example"):
        out[f"return_maps.first_return_map.self_s.{spec_name}"] = metric(
            self_s("return_maps.first_return_map", spec_name), "s"
        )
    recs = [rec for _, rec in tracer.results["return_maps.first_return_map"]]
    covered = [1.0 - r.uncovered_measure / (r.J[1] - r.J[0]) for r in recs]
    out["return_maps.first_return_map.covered_fraction"] = metric(
        statistics.fmean(covered) if covered else 0.0, "ratio"
    )
    out["return_maps.first_return_map.branches"] = metric(sum(len(r.branches) for r in recs), "count")
    out["return_maps.push_interval.calls"] = metric(counts["return_maps.push_interval"], "count")
    for name in (
        "orbits.lyapunov",
        "orbits.estimate_omega_limit",
        "spectral.decompose",
        "spectral.classify_attractor",
        "spectral.entropy_estimate",
    ):
        out[f"{name}.self_s"] = metric(self_s(name), "s")
    out["spectral.stratum_blocks.calls"] = metric(counts["spectral.stratum_blocks"], "count")
    for spec_name in BUILTIN_MAPS:
        out[f"cli.build_report.s.{spec_name.replace('.', '_')}"] = metric(
            total_s("cli.build_report", spec_name), "s"
        )
    out["cli.build_report.self_s"] = metric(self_s("cli.build_report"), "s")
    out["trace.overhead_s"] = metric(overhead_s, "s")
    return out
