"""The per-layer metrics: which eicomb functions are traced and what they count.

Layers are the package modules.  Spans are named ``<module>.<what>``; a
name that covers several functions (``series.gates``, ``bounds.suite``, ...)
adds their calls and self times together.
"""

from __future__ import annotations

import math

import numpy as np

from eicomb import area, bounds, cli, convolution, functionals, optimizer, series
from eicomb.channel import Channel

from tracer import Tracer, eicomb_modules

# span name -> (module or class, attribute) of every function it covers
SPANS: dict[str, tuple[tuple[object, str], ...]] = {
    "channel.construct": ((Channel, "__post_init__"),),
    "convolution.check_convolve": ((convolution, "check_convolve"),),
    "convolution.check_power": ((convolution, "check_power"),),
    "convolution.phi_of_poly_convolved": ((convolution, "phi_of_poly_convolved"),),
    "series.phi_of_poly": ((series, "phi_of_poly"),),
    "series.phi_series": ((series, "phi_series"),),
    "series.complement_of_convolution": ((series, "complement_of_convolution"),),
    "series.gates": ((series, "poly_convex_on"), (series, "poly_increasing_on")),
    "functionals.evaluate": ((functionals, "evaluate"),),
    "functionals.complement": ((functionals, "complement"),),
    "functionals.h2_inv": ((functionals, "h2_inv"),),
    "bounds.check_inequality": ((bounds, "check_inequality"),),
    "bounds.random_channel": ((bounds, "random_channel"), (bounds, "random_channel_with_value")),
    "bounds.extremal": (
        (bounds, "convexity_upper_bound"),
        (bounds, "monotone_lower_bound"),
        (bounds, "fixed_error_extremes"),
    ),
    # suite loop glue: trial_rng and the loops themselves are not wrapped
    "bounds.suite": (
        (bounds, "inequality_suite"),
        (bounds, "upper_bound_sweep"),
        (bounds, "lower_bound_sweep"),
        (bounds, "fixed_error_sweep"),
    ),
    "area.area_quantity": ((area, "area_quantity"),),
    "area.margin_conditions": ((area, "margin_conditions"),),
    "area.margin_sweep": ((area, "area_margin_sweep"),),
    "optimizer.profile": ((optimizer, "_profile_for"),),
    "optimizer.best_coordinate": ((optimizer, "best_coordinate"),),
    "optimizer.symmetrized_objective": ((optimizer, "symmetrized_objective"),),
    "optimizer.descent": ((optimizer, "coordinate_descent"),),
    "cli.main": ((cli, "main"),),
}

# Positional index of `term_cap` in phi_of_poly(tag, rho, a, tol, term_cap)
# and phi_series(tag, a, power, tol, term_cap).
_TERM_CAP_ARG = 4


def _term_cap(args, kwargs) -> int:
    if "term_cap" in kwargs:
        return kwargs["term_cap"]
    return args[_TERM_CAP_ARG] if len(args) > _TERM_CAP_ARG else series.DEFAULT_TERM_CAP


def _hooks(tracer: Tracer) -> dict[str, tuple]:
    """(before, after) counters per span name."""
    counts, samples = tracer.counts, tracer.samples
    cap_errors: list[Exception] = []

    def channel_in(args, kwargs):
        return int(np.size(args[0].eps))

    def channel_out(n_in, args, kwargs, result, raised):
        if not raised:
            counts["channel.points_in"] += n_in
            counts["channel.points_out"] += args[0].eps.size

    def count_cap_error(result, raised):
        # one SupportCapError propagates through nested wrappers; count it once
        if (raised and isinstance(result, convolution.SupportCapError)
                and not any(e is result for e in cap_errors)):
            cap_errors.append(result)
            counts["convolution.cap_errors"] += 1

    def convolve_out(_, args, kwargs, result, raised):
        count_cap_error(result, raised)
        if not raised:
            counts["convolution.support_in"] += args[0].size * args[1].size
            counts["convolution.support_out"] += result.size

    def cap_only(_, args, kwargs, result, raised):
        count_cap_error(result, raised)

    def series_out(name):
        def after(_, args, kwargs, result, raised):
            if not raised:
                samples[name].append(result.terms)
                if result.terms >= _term_cap(args, kwargs):
                    counts[name + ".cap_hits"] += 1
        return after

    def coordinate_out(_, args, kwargs, result, raised):
        current = args[3] if len(args) > 3 else kwargs["current"]
        if not raised and result[0] != current:
            counts["optimizer.best_coordinate.changed"] += 1

    def descent_out(_, args, kwargs, result, raised):
        if not raised:
            counts["optimizer.sweeps"] += result.sweeps

    return {
        "channel.construct": (channel_in, channel_out),
        "convolution.check_convolve": (None, convolve_out),
        "convolution.check_power": (None, cap_only),
        "convolution.phi_of_poly_convolved": (None, cap_only),
        "series.phi_of_poly": (None, series_out("series.phi_of_poly")),
        "series.phi_series": (None, series_out("series.phi_series")),
        "optimizer.best_coordinate": (None, coordinate_out),
        "optimizer.descent": (None, descent_out),
    }


def install(tracer: Tracer) -> None:
    """Wrap every function in SPANS and rebind it wherever eicomb refers to it."""
    modules = eicomb_modules()
    hooks = _hooks(tracer)
    for name, targets in SPANS.items():
        before, after = hooks.get(name, (None, None))
        for owner, attr in targets:
            wrapper = tracer.wrap(name, getattr(owner, attr), before, after)
            tracer.install(modules, owner, attr, wrapper)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _rank(values: list[int], q: float) -> int:
    """Nearest-rank percentile; 0 for an empty list."""
    if not values:
        return 0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q) - 1)]


def metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric, by name, from one traced pass."""
    t, c = tracer, tracer.counts
    poly_terms = t.samples["series.phi_of_poly"]
    series_terms = t.samples["series.phi_series"]
    return {
        "channel.construct.calls": t.ncalls("channel.construct"),
        "channel.construct.self_s": t.self_s("channel.construct"),
        "channel.merge_ratio": _ratio(c["channel.points_out"], c["channel.points_in"]),
        "convolution.check_convolve.calls": t.ncalls("convolution.check_convolve"),
        "convolution.check_convolve.self_s": t.self_s("convolution.check_convolve"),
        "convolution.check_convolve.support_out": c["convolution.support_out"],
        "convolution.merge_ratio": _ratio(c["convolution.support_out"], c["convolution.support_in"]),
        "convolution.check_power.self_s": t.self_s("convolution.check_power"),
        "convolution.phi_of_poly_convolved.self_s": t.self_s("convolution.phi_of_poly_convolved"),
        "convolution.cap_errors": c["convolution.cap_errors"],
        "series.phi_of_poly.calls": t.ncalls("series.phi_of_poly"),
        "series.phi_of_poly.self_s": t.self_s("series.phi_of_poly"),
        "series.phi_of_poly.terms_total": sum(poly_terms),
        "series.phi_of_poly.terms_p50": _rank(poly_terms, 0.50),
        "series.phi_of_poly.terms_p99": _rank(poly_terms, 0.99),
        "series.phi_of_poly.cap_hits": c["series.phi_of_poly.cap_hits"],
        "series.phi_series.calls": t.ncalls("series.phi_series"),
        "series.phi_series.self_s": t.self_s("series.phi_series"),
        "series.phi_series.terms_total": sum(series_terms),
        "series.phi_series.cap_hits": c["series.phi_series.cap_hits"],
        "series.complement_of_convolution.calls": t.ncalls("series.complement_of_convolution"),
        "series.complement_of_convolution.self_s": t.self_s("series.complement_of_convolution"),
        "series.gates.calls": t.ncalls("series.gates"),
        "series.gates.self_s": t.self_s("series.gates"),
        "functionals.evaluate.calls": t.ncalls("functionals.evaluate"),
        "functionals.evaluate.self_s": t.self_s("functionals.evaluate"),
        "functionals.complement.self_s": t.self_s("functionals.complement"),
        "functionals.h2_inv.calls": t.ncalls("functionals.h2_inv"),
        "functionals.h2_inv.self_s": t.self_s("functionals.h2_inv"),
        "bounds.check_inequality.self_s": t.self_s("bounds.check_inequality"),
        "bounds.random_channel.calls": t.ncalls("bounds.random_channel"),
        "bounds.random_channel.self_s": t.self_s("bounds.random_channel"),
        "bounds.extremal.self_s": t.self_s("bounds.extremal"),
        "bounds.suite.self_s": t.self_s("bounds.suite"),
        "area.area_quantity.calls": t.ncalls("area.area_quantity"),
        "area.area_quantity.self_s": t.self_s("area.area_quantity"),
        "area.margin_conditions.self_s": t.self_s("area.margin_conditions"),
        "area.margin_sweep.self_s": t.self_s("area.margin_sweep"),
        "optimizer.profile.calls": t.ncalls("optimizer.profile"),
        "optimizer.profile.self_s": t.self_s("optimizer.profile"),
        "optimizer.best_coordinate.calls": t.ncalls("optimizer.best_coordinate"),
        "optimizer.best_coordinate.self_s": t.self_s("optimizer.best_coordinate"),
        "optimizer.best_coordinate.changed_ratio": _ratio(
            c["optimizer.best_coordinate.changed"], t.ncalls("optimizer.best_coordinate")
        ),
        "optimizer.symmetrized_objective.self_s": t.self_s("optimizer.symmetrized_objective"),
        "optimizer.descent.self_s": t.self_s("optimizer.descent"),
        "optimizer.sweeps": c["optimizer.sweeps"],
        "cli.main.self_s": t.self_s("cli.main"),
    }


def bases(tracer: Tracer) -> dict[str, int]:
    """The denominators and numerators behind each ratio metric."""
    c = tracer.counts
    return {
        "channel.points_in": c["channel.points_in"],
        "channel.points_out": c["channel.points_out"],
        "convolution.support_in": c["convolution.support_in"],
        "convolution.support_out": c["convolution.support_out"],
        "optimizer.best_coordinate.changed": c["optimizer.best_coordinate.changed"],
        "optimizer.best_coordinate.calls": tracer.ncalls("optimizer.best_coordinate"),
    }
