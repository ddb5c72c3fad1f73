"""Scenario binding, model dispatch, distance sweeps and cell-range inversion;
the reference comparison, which builds on them, is :mod:`pathcast.reference`.

A Scenario is one fully-bound evaluation context with no field defaults;
:func:`default_scenario` is their one source, and reproduces the simulation
parameters of the embedded comparison.  The link and street geometry take
the field defaults of :class:`RadioLink` and :class:`WiGeometry`; what
differs by environment is one row of ``_ENVIRONMENT_DEFAULTS``, whose shadow
margin is carried but only applied on explicit request.
"""

from __future__ import annotations

import math
import operator
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterator, Optional

import pathcast  # bind reads pathcast.curves, which the package imports on first access
from .errors import BoundsError, DomainError, PathcastError
from .propagation import (
    Environment,
    EricssonCoefficients,
    FidelityMode,
    PathLossResult,
    RadioLink,
    WiGeometry,
    _AFFINE_LIMIT_DB,
    _check_mode,
    _evaluator,
    _finite_total,
    _moderate,
    cost231_hata,
    ericsson,
    sui,
    wi_los,
    wi_nlos,
)

if TYPE_CHECKING:
    from .curves import CurveTable


class ModelId(Enum):
    SUI = "sui"
    OKUMURA = "okumura"
    COST231_HATA = "cost231_hata"
    WALFISCH_IKEGAMI = "walfisch_ikegami"
    ERICSSON9999 = "ericsson9999"


# The members as plain module names for bind's tests; see _URBAN in
# pathcast.propagation
_SUI, _OKUMURA, _COST231_HATA, _WALFISCH_IKEGAMI, _ERICSSON9999 = ModelId


# The one source of each per-environment default of default_scenario:
# (orientation_deg, metro_factor_k, shadow_margin_db, wi_los)
_ENVIRONMENT_DEFAULTS = {
    Environment.URBAN: (30.0, 1.5, 10.6, False),
    Environment.SUBURBAN: (40.0, 0.7, 8.2, False),
    Environment.RURAL: (40.0, 0.7, 8.2, True),
}
# The match tolerance of the reference comparison (pathcast.reference)
DEFAULT_TOLERANCE_DB = 0.5


@dataclass(frozen=True, init=False)
class Scenario:
    link: RadioLink
    environment: Environment
    wi_geometry: WiGeometry
    ericsson: EricssonCoefficients
    mode: FidelityMode
    shadow_margin_db: float
    apply_shadow_margin: bool
    include_sui_shadowing: bool

    # Not generated, for speed; see the note above pathcast.propagation.RadioLink
    def __init__(self, link: RadioLink, environment: Environment, wi_geometry: WiGeometry,
                 ericsson: EricssonCoefficients, mode: FidelityMode, shadow_margin_db: float,
                 apply_shadow_margin: bool, include_sui_shadowing: bool):
        fields = vars(self)
        fields["link"] = link
        fields["environment"] = environment
        fields["wi_geometry"] = wi_geometry
        fields["ericsson"] = ericsson
        fields["mode"] = mode
        fields["shadow_margin_db"] = shadow_margin_db
        fields["apply_shadow_margin"] = apply_shadow_margin
        fields["include_sui_shadowing"] = include_sui_shadowing


def default_scenario(environment: Environment,
                     *,
                     frequency_mhz: float = 1900.0,
                     distance_m: float = 5000.0,
                     bs_height_m: float = 30.0,
                     rx_height_m: float = 3.0,
                     sui_reference_distance_m: float = RadioLink.sui_reference_distance_m,
                     street_width_m: float = WiGeometry.street_width_m,
                     building_separation_m: float = WiGeometry.building_separation_m,
                     roof_height_m: float = WiGeometry.roof_height_m,
                     orientation_deg: Optional[float] = None,
                     metro_factor_k: Optional[float] = None,
                     wi_los: Optional[bool] = None,
                     ericsson: EricssonCoefficients = EricssonCoefficients(),
                     mode: FidelityMode = FidelityMode.CORRECTED,
                     shadow_margin_db: Optional[float] = None,
                     apply_shadow_margin: bool = False,
                     include_sui_shadowing: bool = True) -> Scenario:
    """Scenario with the standard simulation defaults for ``environment``.

    Unset per-environment fields take the environment's row of
    ``_ENVIRONMENT_DEFAULTS``.
    """
    if type(environment) is not Environment:  # see propagation._check_environment
        raise DomainError(f"unknown environment {environment!r}")
    _check_mode(mode)
    orientation, metro_k, margin, los = _ENVIRONMENT_DEFAULTS[environment]
    link = RadioLink(frequency_mhz, distance_m, bs_height_m, rx_height_m,
                     sui_reference_distance_m)
    geometry = WiGeometry(street_width_m, building_separation_m, roof_height_m,
                          orientation if orientation_deg is None else orientation_deg,
                          metro_k if metro_factor_k is None else metro_factor_k,
                          los if wi_los is None else wi_los)
    return Scenario(link, environment, geometry, ericsson, mode,
                    margin if shadow_margin_db is None else shadow_margin_db,
                    apply_shadow_margin, include_sui_shadowing)


def bind(model: ModelId, scenario: Scenario,
         curves: Optional[CurveTable] = None):
    """Bind one scenario to the matching model; returns ``at(distance_m)``.

    The returned evaluator ignores ``scenario.link.distance_m`` and computes
    only the distance-dependent terms per call.  Walfisch-Ikegami follows the
    geometry's LOS flag.  The scenario's shadow margin is appended as a
    ``shadow_margin`` component, a label no binder emits, only when
    apply_shadow_margin is set; its ``loss`` and its pass, over the model's
    unguarded ``at._totals``, add the margin to the model's.  The evaluator
    carries the contract of :func:`pathcast.propagation._evaluator`, with the
    model's ``branch_points`` and ``affine_from_m``; a margin over 1e4 dB
    makes the last ``math.inf``.
    """
    link = scenario.link
    if model is _SUI:
        at = sui(link, scenario.environment, scenario.include_sui_shadowing)
    elif model is _OKUMURA:
        at = pathcast.curves.okumura(link, scenario.environment, curves)
    elif model is _COST231_HATA:
        at = cost231_hata(link, scenario.environment, scenario.mode)
    elif model is _WALFISCH_IKEGAMI:
        if scenario.wi_geometry.los:
            at = wi_los(link)
        else:
            at = wi_nlos(scenario.wi_geometry, link, scenario.mode)
    elif model is _ERICSSON9999:
        at = ericsson(link, scenario.ericsson, scenario.mode)
    else:
        raise DomainError(f"unknown model {model!r}")

    if not scenario.apply_shadow_margin:
        return at
    margin_db = scenario.shadow_margin_db
    margin_component = (("shadow_margin", margin_db),)
    inner_loss = at.loss

    def at_with_margin(distance_m: float) -> PathLossResult:
        result = at(distance_m)
        return PathLossResult(result.components + margin_component, result.warnings)

    def loss(distance_m: float) -> float:
        total = inner_loss(distance_m)
        try:
            total += margin_db
        except OverflowError:  # an int margin too large for a float
            total = math.inf
        except TypeError:  # a margin float arithmetic refuses, as at refuses it
            raise DomainError("every component value must be a real number") from None
        return _finite_total(total)
    return _evaluator(at_with_margin, loss, lambda distances: [
        total + margin_db for total in at._totals(distances)],
        at.branch_points, at.affine_from_m if _moderate(margin_db) else math.inf)


def evaluate(model: ModelId, scenario: Scenario,
             curves: Optional[CurveTable] = None) -> PathLossResult:
    """Evaluate one scenario at its own distance; see :func:`bind`."""
    return bind(model, scenario, curves)(scenario.link.distance_m)


def iter_sweep(model: ModelId, scenario: Scenario, d_min_m: float = 1000.0,
               d_max_m: float = 5000.0, steps: int = 50, curves: Optional[CurveTable] = None,
               spacing: str = "log") -> Iterator[tuple[float, PathLossResult]]:
    """Evaluate the model over a distance sweep, yielding ``(distance, result)``
    per point as it is computed; ascending and deterministic.

    The scenario is bound once and each point evaluates only the
    distance-dependent terms; every point equals :func:`evaluate` at that
    distance.  A failure names the distance it occurred at (the first one if
    the scenario itself cannot be bound), after the points before it.  As in
    any generator, the argument checks run when the first point is asked for.
    """
    return _bound_sweep(model, scenario, d_min_m, d_max_m, steps, curves, spacing,
                        lambda at, chunk: ((d, at(d)) for d in chunk))


def _sweep_totals(model, scenario, d_min_m, d_max_m, steps, curves, spacing):
    """:func:`iter_sweep`'s points as totals, for CSV and table output:
    ``(distances, totals)`` lists of up to ``_SWEEP_CHUNK`` points, the totals
    ``at.losses`` of the chunk, so no result and no per-point tuple is built.
    A failure names the same distance as :func:`iter_sweep`."""
    return _bound_sweep(model, scenario, d_min_m, d_max_m, steps, curves, spacing,
                        lambda at, chunk: ((chunk, at.losses(chunk)),))


def _bound_sweep(model, scenario, d_min_m, d_max_m, steps, curves, spacing, points):
    """The one sweep loop: :func:`_distance_chunks`, checked first, then the
    scenario bound once, then the items of ``points(at, chunk)`` per chunk.
    A failure names the first distance of its chunk where ``at.loss``, which
    raises wherever ``at`` does, raises, or ``d_min_m`` if binding fails."""
    chunks = _distance_chunks(d_min_m, d_max_m, steps, spacing)
    distance = d_min_m
    try:
        at = bind(model, scenario, curves)
        for chunk in chunks:
            try:
                yield from points(at, chunk)
            except PathcastError:  # loss is deterministic: rerun to find the point
                for distance in chunk:
                    at.loss(distance)
                raise
    except PathcastError as exc:
        raise DomainError(f"sweep aborted at {float(distance):.2f} m: {exc}") from exc


# Points per chunk of _distance_chunks: large enough that the per-chunk cost
# vanishes, small enough that a chunk's CSV rows, with their constant columns
# put back as the CLI writes them, and their encoded copy stay near 65 KB each
_SWEEP_CHUNK = 1024


def _distance_chunks(d_min_m, d_max_m, steps, spacing):
    """A sweep's inclusive distance samples, log-spaced or linear: ``d_min_m``
    and ``d_max_m`` exactly, then ``steps - 2`` computed between them, as
    lists of up to ``_SWEEP_CHUNK``, each computed by one comprehension as
    it is consumed.

    The arguments are checked on the call: ``steps`` must be an integer from
    2 to ``sys.maxsize``, the most items a list can hold, and a sweep with
    points between its ends is refused where a log sweep's ratio
    ``d_max_m / d_min_m`` overflows, or a linear sweep's span times
    ``steps - 2``.
    """
    try:
        steps = operator.index(steps)
    except TypeError:
        raise DomainError(f"sweep steps must be an integer, got {steps!r}") from None
    if steps > sys.maxsize:
        raise DomainError(f"sweep steps must be at most {sys.maxsize}")
    if steps < 2:
        raise DomainError("a sweep needs at least 2 steps")
    if not d_min_m < d_max_m:
        raise DomainError("sweep requires d_min < d_max")
    try:
        float(d_min_m), float(d_max_m)
    except OverflowError:  # an int too large for a float
        raise DomainError("distance must be finite") from None
    log = spacing == "log"
    if log:
        if float(d_min_m) <= 0:  # as a float: a Fraction may round to 0.0
            raise DomainError("log spacing requires d_min > 0")
        ratio, what = d_max_m / d_min_m, "ratio d_max / d_min"
    elif spacing == "linear":
        span, what = d_max_m - d_min_m, "span (d_max - d_min) * (steps - 2)"
    else:
        raise DomainError(f"unknown spacing {spacing!r} (expected log or linear)")
    try:  # two steps are the ends alone; the last point between them is the largest
        finite = steps == 2 or math.isfinite(
            ratio if log else d_min_m + span * (steps - 2) / (steps - 1))
    except OverflowError:  # a Fraction, or steps, too large for a float
        finite = False
    if not finite:
        raise DomainError(f"{spacing} spacing {what} overflows")

    def chunks():
        last = steps - 1
        for start in range(0, steps, _SWEEP_CHUNK):
            stop = min(start + _SWEEP_CHUNK, steps)
            inner = range(max(start, 1), min(stop, last))
            if log:
                chunk = [d_min_m * ratio ** (i / last) for i in inner]
            else:
                chunk = [d_min_m + span * i / last for i in inner]
            if start == 0:
                chunk.insert(0, d_min_m)
            if stop == steps:
                chunk.append(d_max_m)
            yield chunk
    return chunks()


def sweep(model: ModelId, scenario: Scenario, d_min_m: float = 1000.0,
          d_max_m: float = 5000.0, steps: int = 50, curves: Optional[CurveTable] = None,
          spacing: str = "log") -> tuple[tuple[float, PathLossResult], ...]:
    """Every point of :func:`iter_sweep` in one tuple; ascending and deterministic."""
    return tuple(iter_sweep(model, scenario, d_min_m, d_max_m, steps, curves, spacing))


# --------------------------------------------------------------------------
# Cell-range inversion
# --------------------------------------------------------------------------

_INVERT_TOL_DB = 1e-6
_INVERT_TOL_M = 1e-3
# Ten times the 1e-10 dB a log-affine loss may stray from its chord, and far
# below the 1e-6 dB stop tolerance; a distance computed from a chord widens
# by a relative 1e-12, far above its own rounding.
_CHORD_EPS_DB = 1e-9
_CHORD_WIDEN = 1e-12
_UNDECIDED = (0.0, 0.0, 0.0, math.inf)  # no midpoint decided without an evaluation


def invert_cell_range(model: ModelId, scenario: Scenario, max_loss_db: float,
                      d_min_m: float = 1000.0, d_max_m: float = 10000.0,
                      curves: Optional[CurveTable] = None) -> float:
    """Largest distance whose loss does not exceed ``max_loss_db``.

    Bisection over [d_min, d_max]; requires the loss to bracket the target
    and to be monotone increasing over the bracket.  Monotonicity is proved,
    not sampled: between the model's branch points the loss is affine in
    log d or a sum of non-decreasing terms, so losses ordered at d_min, at
    each branch point inside the bracket and at d_max prove it.  The
    scenario is bound once, and each evaluation reads ``at.loss``, which
    computes only the distance-dependent terms and builds no result.  The
    returned distance satisfies PL(d) <= max_loss within 1e-6 dB.

    Where the piece between two checked points that holds the target lies
    wholly at or beyond the model's ``at.affine_from_m``, it is a line in
    log d through their two exact losses.  The distances where that line
    crosses the stop levels (the target and the target less 1e-6 dB, each
    +-1e-9 dB) are computed once, and a midpoint that falls clear of them,
    on the piece or where monotonicity alone decides it, is decided by
    comparing distances; only midpoints within a hair of a level are
    evaluated.  The midpoints, the stops and the returned distance are those
    of plain bisection, float for float.  A closed-form model typically
    evaluates only d_min and d_max when no branch point lies inside the
    bracket and d_min is at or beyond ``at.affine_from_m`` (for
    Walfisch-Ikegami NLOS, past its floor's kink and, below the roofs, from
    500 m); Okumura evaluates the grid nodes inside the bracket and a few
    midpoints off the target's piece.
    """
    if not d_min_m < d_max_m:
        raise DomainError("bracket requires d_min < d_max")
    if d_min_m <= 0:
        raise DomainError("bracket requires d_min > 0")

    at = bind(model, scenario, curves)
    loss = at.loss
    nodes = at.branch_points
    if nodes:  # sorted, so the nodes strictly inside the bracket are one slice
        checked = [d_min_m, *nodes[bisect_right(nodes, d_min_m):bisect_left(nodes, d_max_m)],
                   d_max_m]
        values = list(map(loss, checked))
    else:
        checked, values = [d_min_m, d_max_m], [loss(d_min_m), loss(d_max_m)]
    pl_min, pl_max = values[0], values[-1]
    # Two losses that hold the target between them are in order, so only a
    # bracket with nodes inside, or one that misses the target, has pairs to check
    if len(values) > 2 or not pl_min <= max_loss_db <= pl_max:
        for i in range(1, len(values)):
            if values[i] < values[i - 1]:
                raise DomainError(
                    f"loss is not monotone increasing over the bracket: "
                    f"PL({float(checked[i - 1]):.2f} m) = {values[i - 1]:.4f} dB > "
                    f"PL({float(checked[i]):.2f} m) = {values[i]:.4f} dB")
        if not pl_min <= max_loss_db <= pl_max:
            try:
                target = float(max_loss_db)
            except OverflowError:  # an int too large for a float shows as inf
                target = math.inf if max_loss_db > 0 else -math.inf
            raise BoundsError(
                f"target {target:.4f} dB outside bracket: PL({float(d_min_m):g} m) = "
                f"{pl_min:.4f} dB, PL({float(d_max_m):g} m) = {pl_max:.4f} dB")
    if max_loss_db == pl_max:
        return d_max_m
    if max_loss_db == pl_min:
        return d_min_m

    below, stop_from, stop_to, above = _chord_regions(checked, values, max_loss_db,
                                                      at.affine_from_m)
    lo, hi = d_min_m, d_max_m
    # only d_min's loss can meet the safety stop: a midpoint's within 1e-6 dB stops the loop
    near = max_loss_db - pl_min <= _INVERT_TOL_DB
    # The one-sided tests come first, as they decide most steps in one
    # comparison.  _chord_regions returns below <= stop_from and stop_to <=
    # above, so no midpoint either of them decides lies in the stop region,
    # and the order changes no step.
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid < below:  # loss more than 1e-6 dB under the target
            lo = mid
        elif mid > above:  # loss over the target
            hi = mid
        elif stop_from < mid < stop_to:  # loss within 1e-6 dB under the target
            lo = mid
            break
        else:
            value = loss(mid)
            if value <= max_loss_db:
                lo = mid
                if max_loss_db - value <= _INVERT_TOL_DB:
                    break
                near = False
            else:
                hi = mid
        if near and hi - lo <= _INVERT_TOL_M:  # secondary safety stop for degenerate brackets
            break
    else:  # only a bracket too wide for 200 halvings leaves a float between lo and hi
        if lo < 0.5 * (lo + hi) < hi:
            raise DomainError(
                f"bracket [{float(d_min_m):g}, {float(d_max_m):g}] m too wide: 200 bisection "
                f"steps left [{float(lo):g}, {float(hi):g}] m unresolved")
    return lo


def _chord_regions(checked, values, target, affine_from_m):
    """Distances that decide a bisection step on a log-affine loss, as
    ``(below, stop_from, stop_to, above)``: the loss is more than 1e-6 dB
    under ``target`` below ``below``, within 1e-6 dB under it strictly
    between ``stop_from`` and ``stop_to``, and over it above ``above``.

    They come from the chord, in log d, of the first checked piece whose end
    reaches the target, if that piece starts at or beyond ``affine_from_m``.
    The stop region keeps to that piece; the other two reach past it only
    where the piece's end values decide them, since the loss is monotone.
    Nothing is decided when a midpoint may overflow to inf, which
    ``lo + hi <= 2 d_max`` rules out, so that its evaluation raises as in
    plain bisection.
    """
    if not math.isfinite(checked[-1] + checked[-1]):
        return _UNDECIDED
    i = bisect_left(values, target)  # values never decrease; values[0] < target
    a, b, v_a, v_b = checked[i - 1], checked[i], values[i - 1], values[i]
    if a < affine_from_m or -v_a > _AFFINE_LIMIT_DB or v_b > _AFFINE_LIMIT_DB:
        return _UNDECIDED  # the chord may stray further
    ratio, span = b / a, v_b - v_a  # span >= target - v_a > 0
    stop = target - _INVERT_TOL_DB
    low, high = 1.0 - _CHORD_WIDEN, 1.0 + _CHORD_WIDEN
    # Each level crosses the chord at a * ratio ** e, e the level's share of
    # the span; out of [0, 1] on a nearly flat piece, at the piece's end.
    below, above = 0.0, math.inf
    level = stop - _CHORD_EPS_DB
    if level > v_a:
        e = (level - v_a) / span
        below = (a if e <= 0.0 else b if e >= 1.0 else a * ratio ** e) * low
    e = (stop + _CHORD_EPS_DB - v_a) / span
    stop_from = (a if e <= 0.0 else b if e >= 1.0 else a * ratio ** e) * high
    e = (target - _CHORD_EPS_DB - v_a) / span
    stop_to = (a if e <= 0.0 else b if e >= 1.0 else a * ratio ** e) * low
    level = target + _CHORD_EPS_DB
    if level < v_b:
        e = (level - v_a) / span
        above = (a if e <= 0.0 else b if e >= 1.0 else a * ratio ** e) * high
    return below, stop_from, stop_to, above
