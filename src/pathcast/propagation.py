"""Closed-form empirical path-loss models: SUI, COST-231 Hata, COST-231
Walfisch-Ikegami and Ericsson 9999.  Okumura reads measured curves, so its
binder, :func:`pathcast.curves.okumura`, lives with its table.

All operations are pure functions over immutable inputs.  External units are
meters and MHz everywhere; models that are natively written in km convert
internally.  Logarithms are base 10 throughout.

Several formulas circulate with misprinted terms.  Operations that are
affected take a :class:`FidelityMode`: ``CORRECTED`` (default) follows the
standard literature definitions, ``AS_PRINTED`` follows the comparison
source's printed formulas verbatim, falling back to the corrected branch
(with a warning) where the printed branch set has gaps.

Each model has one entry point, its binder (here ``sui``, ``cost231_hata``,
``wi_los``, ``wi_nlos`` and ``ericsson``), and the binders are the whole
model API: every formula term is computed inside its binder.  A
binder takes the link and the model's other inputs, computes every term that
does not depend on distance once, and returns
``at(distance_m) -> PathLossResult``.  :class:`RadioLink` and
:class:`WiGeometry` check every input range when they are built, so a binder
checks only what valid inputs can still overflow to inf or underflow to 0,
plus the rooftop term's roof-above-receiver condition, which spans the two,
and that each :class:`Environment` or :class:`FidelityMode` argument is a member.
``at`` ignores ``link.distance_m``; it labels the values of the binder's one
distance step and builds the :class:`PathLossResult` in the model's component
order, joining those values to component tuples that the binder has built
once.  Every result, the binders' and the shadow-margin wrapper's of
:func:`pathcast.scenario.bind` alike, is built as
``PathLossResult(components, warnings)``, which checks the labels, sums the
components and checks that the total is finite.  The loss at the link's own
distance is ``binder(link, ...)(link.distance_m)``, and a sweep over a bound
model gives exactly what a fresh binding returns at each point.  That equality
holds only if hoisting never reorders floating-point arithmetic: a binder may
precompute a whole left-associated sub-expression (``10.0 * gamma`` out of
``10.0 * gamma * log10(r)``, ``20.0 * log10(f)`` as the last addend of a sum)
but never regroup or reorder terms.

Every binder returns ``at`` through :func:`_evaluator`, which attaches the
members the rest of the package reads, ``at.loss``, ``at.losses``,
``at.branch_points`` and ``at.affine_from_m``; its docstring states what each
one promises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .errors import DomainError

LIGHT_SPEED_M_S = 299_792_458.0

_log10 = math.log10


# Members hash by identity: Enum's own __hash__ is a Python function, and on
# CPython 3.11.7 a dict lookup by member took about 100 ns through it and 15
# ns by identity.  Each member is unique, so identity and equality agree, and
# pickling and copying return the member itself.
class FidelityMode(Enum):
    CORRECTED = "corrected"
    AS_PRINTED = "as_printed"
    __hash__ = object.__hash__


class Environment(Enum):
    URBAN = "urban"
    SUBURBAN = "suburban"
    RURAL = "rural"
    __hash__ = object.__hash__


# The members as plain module names for the binders' tests: on CPython 3.11
# reading a member off its class runs a Python-level descriptor, about ten
# times the cost of reading a global
_URBAN, _AS_PRINTED = Environment.URBAN, FidelityMode.AS_PRINTED

# SUI terrain per environment: urban is terrain A (densest), suburban B and
# rural C (flattest).  Each row is (a, b per m, c in m) of the exponent
# gamma = a - b*h_b + c/h_b, the slope of X_h = slope*log10(h_r/2000) and the
# shadowing constant alpha in dB.
_SUI_TERRAIN = {
    Environment.URBAN: (4.6, 0.0075, 12.6, -10.8, 6.6),
    Environment.SUBURBAN: (4.0, 0.0065, 17.1, -10.8, 5.2),
    Environment.RURAL: (3.6, 0.005, 20.0, -20.0, 5.2),
}


# RadioLink, WiGeometry and pathcast.scenario.Scenario have a hand-written
# __init__ that stores each field in the instance dict, in field order, and
# reads each default from its field; the frozen __init__ that dataclass
# generates pays one object.__setattr__ per field.  RadioLink and WiGeometry
# skip _check_finite when every number is a plain float and their sum is
# finite, as it is only if each one is; any other input, a sum that overflows
# included, goes through it.  On CPython 3.11.7 (one core of a 2-vCPU x86-64
# VM, best of 80 runs of 2,000) Scenario took 1.4 us generated against 0.55
# us here, RadioLink 1.4 us always through _check_finite against 1.06 us, and
# WiGeometry 1.2 against 0.8 us.
@dataclass(frozen=True, init=False)
class RadioLink:
    """One transmitter-receiver geometry.

    Wavelength is always derived from the frequency (c = 299 792 458 m/s),
    never stored.  ``sui_reference_distance_m`` is the d0 of the SUI model.
    """

    frequency_mhz: float
    distance_m: float
    bs_height_m: float
    rx_height_m: float
    sui_reference_distance_m: float = 100.0

    def __init__(self, frequency_mhz: float, distance_m: float, bs_height_m: float,
                 rx_height_m: float, sui_reference_distance_m: float = sui_reference_distance_m):
        fields = vars(self)
        fields["frequency_mhz"] = frequency_mhz
        fields["distance_m"] = distance_m
        fields["bs_height_m"] = bs_height_m
        fields["rx_height_m"] = rx_height_m
        fields["sui_reference_distance_m"] = sui_reference_distance_m
        if not (type(frequency_mhz) is type(distance_m) is type(bs_height_m)
                is type(rx_height_m) is type(sui_reference_distance_m) is float
                and math.isfinite(frequency_mhz + distance_m + bs_height_m + rx_height_m
                                  + sui_reference_distance_m)) and _check_finite(self):
            frequency_mhz, distance_m, bs_height_m, rx_height_m, sui_reference_distance_m = \
                fields.values()  # the floats _check_finite stored
        if not frequency_mhz > 0:
            raise DomainError("frequency must be positive")
        if _wavelength_m(frequency_mhz) in (0.0, math.inf):
            raise DomainError(
                f"frequency {frequency_mhz:g} MHz has no finite, nonzero wavelength")
        _check_distance(distance_m)
        if not bs_height_m > rx_height_m > 0:
            raise DomainError("heights must satisfy bs_height > rx_height > 0")
        if sui_reference_distance_m <= 0:
            raise DomainError("SUI reference distance must be positive")


def _wavelength_m(frequency_mhz):
    """The wavelength of a frequency in MHz; every wavelength pathcast uses
    comes from here."""
    return LIGHT_SPEED_M_S / (frequency_mhz * 1e6)


@dataclass(frozen=True, init=False)
class WiGeometry:
    """Street geometry for the Walfisch-Ikegami model.

    ``metro_factor_k`` is 0.7 for suburban centers and 1.5 for metropolitan
    centers; other values are permitted as explicit overrides.  ``los``
    selects the line-of-sight formula over the NLOS diffraction path.
    """

    street_width_m: float = 25.0
    building_separation_m: float = 50.0
    roof_height_m: float = 15.0
    orientation_deg: float = 30.0
    metro_factor_k: float = 1.5
    los: bool = False

    def __init__(self, street_width_m: float = street_width_m,
                 building_separation_m: float = building_separation_m,
                 roof_height_m: float = roof_height_m, orientation_deg: float = orientation_deg,
                 metro_factor_k: float = metro_factor_k, los: bool = los):
        fields = vars(self)
        fields["street_width_m"] = street_width_m
        fields["building_separation_m"] = building_separation_m
        fields["roof_height_m"] = roof_height_m
        fields["orientation_deg"] = orientation_deg
        fields["metro_factor_k"] = metro_factor_k
        fields["los"] = los
        if not (type(street_width_m) is type(building_separation_m) is type(roof_height_m)
                is type(orientation_deg) is type(metro_factor_k) is float and type(los) is bool
                and math.isfinite(street_width_m + building_separation_m + roof_height_m
                                  + orientation_deg + metro_factor_k)) and _check_finite(self):
            street_width_m, building_separation_m, roof_height_m, orientation_deg, *_ = \
                fields.values()  # the floats _check_finite stored
        if street_width_m <= 0 or building_separation_m <= 0:
            raise DomainError("street width and building separation must be positive")
        if roof_height_m <= 0:
            raise DomainError("roof height must be positive")
        if not 0.0 <= orientation_deg <= 90.0:
            raise DomainError("street orientation must lie in [0, 90] degrees")


@dataclass(frozen=True)
class EricssonCoefficients:
    a0: float = 36.2
    a1: float = 30.2
    a2: float = 12.0
    a3: float = 0.1

    def __post_init__(self):
        _check_finite(self)


@dataclass(frozen=True, slots=True)
class PathLossResult:
    """Total loss plus an itemized breakdown and provenance warnings.

    Built as ``PathLossResult(components, warnings=())`` from any iterables,
    each read once and stored as a tuple, and each component a ``(label,
    value)`` pair, stored as a tuple; ``total_db`` is computed, the
    left-to-right sum of the component values, and must be finite.  Labels
    are strings, unique within one result, values are real numbers, and
    every warning is a string.
    """

    total_db: float = field(init=False)
    components: tuple[tuple[str, float], ...]
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        components, warnings = [], self.warnings
        for item in self.components:
            try:
                label, value = item
            except (TypeError, ValueError):  # not two items
                raise DomainError(f"component {item!r} is not a (label, value) pair") from None
            if not isinstance(label, str):
                raise DomainError(f"component label {label!r} is not a string")
            components.append((label, value))
        if not components:
            raise DomainError("a path-loss result needs at least one component")
        if len({label for label, _ in components}) != len(components):
            raise DomainError("component labels must be unique")
        if isinstance(warnings, str):
            raise DomainError("warnings must be a sequence of strings, not one string")
        warnings = tuple(warnings)
        for warning in warnings:
            if not isinstance(warning, str):
                raise DomainError(f"warning {warning!r} is not a string")
        total = 0.0  # a left fold: sum() compensates floats from Python 3.12 on
        try:
            for _, value in components:
                total += value
            total = _finite_total(total)
        except OverflowError:  # an int value too large for a float
            raise DomainError("path-loss total must be finite") from None
        except TypeError:  # a value float arithmetic refuses, such as "x", None or 1j
            raise DomainError("every component value must be a real number") from None
        object.__setattr__(self, "components", tuple(components))
        object.__setattr__(self, "warnings", warnings)
        object.__setattr__(self, "total_db", total)

    def component(self, label: str) -> float:
        for name, value in self.components:
            if name == label:
                return value
        raise DomainError(f"no component labelled {label!r}")


def _finite_total(total):
    """A result's total, which must be finite; ``at.loss`` returns it through here."""
    if not math.isfinite(total):
        raise DomainError("path-loss total must be finite")
    return total


def _evaluator(at, loss, totals, branch_points=(), affine_from_m=1.0):
    """Attach the evaluator contract to a binder's ``at`` and return it.

    ``at.loss(distance_m) -> float`` is ``loss``, ``at(distance_m).total_db``
    without the result: the same float bit for bit, or the same error where
    ``at`` raises.  Each binder has one distance step, a local
    ``point(distance_m)`` that checks the distance and returns the values of
    the distance-dependent components.  ``at`` labels them; ``loss`` adds them
    to 0.0 and the constant terms one ``+`` at a time in component order,
    never with sum(), which compensates floats from Python 3.12 on, and leaves
    out what ``at`` leaves out: Walfisch-Ikegami NLOS adds its floor only where
    it fires.  Cell-range inversion reads it.

    ``at.losses(distances) -> list[float]`` is ``[at.loss(d) for d in
    distances]``, bit for bit, or the first failing point's error; it reads
    any iterable once.  ``totals(distances)``, also ``at._totals``, adds up
    each total in one pass by the expression ``loss`` adds up, after ``loss``
    takes the smallest distance, so it may rely on what ``loss`` binds.  It is
    kept if neither raises and its sum() is finite, as it is only if every
    total is; else the list goes through ``loss`` in turn.  A point ``loss``
    refuses but the pass would not lies below a bound on distance, as the
    smallest does.  CSV and table sweeps read it; only a composing evaluator
    reads ``at._totals``, under its own guard.

    ``at.branch_points`` is a sorted tuple of the distances (m) where the
    model's formula switches pieces, empty for a formula with one piece.
    Cell-range inversion relies on the order: it takes the branch points
    inside a bracket as one slice, found by bisection.
    Between branch points every model is affine in log d or a sum of terms
    that never decrease with d, so losses ordered at the ends of a bracket and
    at each branch point inside it prove the loss monotone over the bracket.

    ``at.affine_from_m`` is the distance (m) from which the first of those
    holds on every piece, the stretch between two neighbouring branch points
    or beyond the outermost one, closely enough for cell-range inversion to
    decide points on a piece that lies wholly at or beyond it from its chord.
    On such a piece, where the loss stays within +-1e4 dB, ``at.loss`` lies
    within 1e-10 dB of the chord, in log d, through its values at any two
    other distances of the piece.  That holds from 1 m on, while every
    constant term, and every slope in dB per decade of distance, is at most
    1e4 dB in size (:func:`_moderate`).  SUI, COST-231 Hata, Walfisch-Ikegami
    LOS, Ericsson and Okumura (at its one bound frequency) declare 1.0.
    Walfisch-Ikegami NLOS declares where its multi-screen term
    is ``c + k_d*log d`` (everywhere above the roofs; below them k_A is linear
    in d under 500 m, so from 500 m, or as printed from the first distance
    past the branches there) and its free-space floor has stopped firing: the
    diffraction sum rises through 0 at one distance, the floor's kink, which
    is not a branch point.  A binder whose terms break the size limit declares
    ``math.inf``, as does the shadow-margin wrapper of
    :func:`pathcast.scenario.bind` for a margin over 1e4 dB, and no piece of
    it is decided by its chord.
    """
    def losses(distances):
        distances = list(distances)  # an iterator would be used up by min()
        try:
            loss(min(distances))
            checked = totals(distances)
            if math.isfinite(sum(checked)):
                return checked
        except Exception:  # whatever it is, the run point by point raises loss's error
            pass
        return list(map(loss, distances))
    # one dict for the five members: on CPython 3.11.7 a function's first
    # attribute store creates its dict, and five stores took 0.16 us longer
    at.__dict__ = {"loss": loss, "losses": losses, "_totals": totals,
                   "branch_points": branch_points, "affine_from_m": affine_from_m}
    return at


# The size of term up to which a log-affine loss rounds within 1e-10 dB of
# its chord; see ``at.affine_from_m`` in :func:`_evaluator`.
_AFFINE_LIMIT_DB = 1e4


def _moderate(*terms):
    """Whether every term is at most :data:`_AFFINE_LIMIT_DB` in size."""
    for term in terms:
        if not -_AFFINE_LIMIT_DB <= term <= _AFFINE_LIMIT_DB:
            return False
    return True


def _check_finite(instance):
    """Reject a non-finite field of a dataclass instance, naming the field;
    an int too large for a float is not finite either.  Store any other
    real number, such as a Fraction, as its float, and return whether any
    was: the range checks must see the value the terms compute with."""
    fields, converted = vars(instance), False
    for name, value in fields.items():
        if type(value) is float and math.isfinite(value):
            continue
        try:
            if math.isfinite(value):
                if not isinstance(value, int):
                    fields[name], converted = float(value), True
                continue
        except OverflowError:
            pass
        raise DomainError(f"{name} must be finite")
    return converted


def _check_distance(distance_m):
    """Refuse a distance no model can use; return it in km."""
    try:
        if not math.isfinite(distance_m):
            raise DomainError("distance must be finite")
    except OverflowError:  # an int too large for a float
        raise DomainError("distance must be finite") from None
    if not (d_km := distance_m / 1000.0) > 0.0:  # a subnormal distance underflows to 0 km
        raise DomainError("distance must be positive" if distance_m <= 0
                          else f"distance {float(distance_m):g} m underflows to 0 km")
    return d_km


def _check_environment(environment, error=DomainError):
    """Refuse anything but an :class:`Environment` member, such as the string
    ``'urban'``.  A type test, not a set or dict lookup, which would also take
    an object that compares equal to a member and hashes like it; an enum with
    members has no subclasses, so only a member passes."""
    if type(environment) is not Environment:
        raise error(f"unknown environment {environment!r}")


def _check_mode(mode):
    """Refuse anything but a :class:`FidelityMode` member, such as ``'as_printed'``."""
    if type(mode) is not FidelityMode:
        raise DomainError(f"unknown mode {mode!r}")


def _finite(value, what):
    """Return ``value`` unless extreme inputs overflowed it to +-inf."""
    if not math.isfinite(value):
        raise DomainError(f"{what} overflows")
    return value


def _log10_positive(value, what):
    """log10 of a positive quotient or product, which can still underflow to 0."""
    if value == 0.0:
        raise DomainError(f"{what} underflows to 0")
    return _log10(value)


# --------------------------------------------------------------------------
# SUI
# --------------------------------------------------------------------------

def sui(link: RadioLink, environment: Environment, include_shadowing: bool = True):
    """Bind SUI: A + 10*gamma*log10(d/d0) + X_f + X_h (+ S); d must exceed d0.

    A = 20*log10(4*pi*d0/lambda) is free space at d0, X_f = 6*log10(f/2000)
    and S = 0.65*(log f)^2 - 1.3*log f + alpha is the closed-form shadowing
    term, deterministic by design.
    """
    if type(environment) is not Environment:  # see _check_environment
        raise DomainError(f"unknown environment {environment!r}")
    d0 = link.sui_reference_distance_m
    a, b, c, height_slope, alpha = _SUI_TERRAIN[environment]
    h_b, freq = link.bs_height_m, link.frequency_mhz
    slope = 10.0 * _finite(a - b * h_b + c / h_b, "SUI exponent gamma")
    reference = 20.0 * _log10_positive(4.0 * math.pi * d0 / _wavelength_m(freq), "4*pi*d0/lambda")
    free_space_ref = ("free_space_ref", _finite(reference, "free-space reference loss"))
    x_f = 6.0 * _log10(freq / 2000.0)
    x_h = height_slope * _log10_positive(link.rx_height_m / 2000.0, "h_r/2000")
    tail = (("frequency_correction", x_f), ("height_correction", x_h))
    shadowing = 0.0  # exact: head_db is never -0.0, so no partial sum is, and x + 0.0 is x
    if include_shadowing:
        lf = _log10(freq)
        shadowing = 0.65 * lf * lf - 1.3 * lf + alpha
        tail += (("shadowing", shadowing),)
    head_db = 0.0 + free_space_ref[1]

    def point(distance_m):
        _check_distance(distance_m)
        if distance_m <= d0:
            raise DomainError(
                f"distance {float(distance_m):g} m is below reference distance {d0:g} m")
        return slope * _log10(distance_m / d0)

    def at(distance_m: float) -> PathLossResult:
        return PathLossResult((free_space_ref, ("distance", point(distance_m))) + tail)

    def loss(distance_m: float) -> float:
        return _finite_total(head_db + point(distance_m) + x_f + x_h + shadowing)
    return _evaluator(at, loss, lambda distances: [
        head_db + slope * _log10(d / d0) + x_f + x_h + shadowing for d in distances],
        (), 1.0 if _moderate(head_db, slope, x_f, x_h, shadowing) else math.inf)


# --------------------------------------------------------------------------
# COST-231 Hata
# --------------------------------------------------------------------------

COST231_VALID_MHZ = (1500.0, 2000.0)


def cost231_hata(link: RadioLink, environment: Environment,
                 mode: FidelityMode = FidelityMode.CORRECTED):
    """Bind COST-231 Hata median loss; c = 3 dB urban, 0 otherwise; d in km.

    The receiver correction a(h_r) is 3.2*(log10(11.75*h_r))^2 - 4.97 urban in
    both modes.  Suburban/rural: the standard small-city term in corrected
    mode; the misprinted variant (0.7 multiplying h_r alone, 1.58*f in place
    of 1.56*log f) as printed.
    """
    _check_environment(environment)
    _check_mode(mode)
    freq, h_r = link.frequency_mhz, link.rx_height_m
    if environment is _URBAN:
        rx_correction = 3.2 * _log10(11.75 * h_r) ** 2 - 4.97
    elif mode is _AS_PRINTED:
        rx_correction = 1.1 * _log10(freq) - 0.7 * h_r - (1.58 * freq - 0.8)
    else:
        lf = _log10(freq)
        rx_correction = (1.1 * lf - 0.7) * h_r - (1.56 * lf - 0.8)
    lo, hi = COST231_VALID_MHZ
    warnings = ()
    if not lo <= link.frequency_mhz <= hi:
        warnings = (
            f"frequency {link.frequency_mhz:g} MHz outside model validity "
            f"range {lo:g}-{hi:g} MHz",)
    frequency_db = 33.9 * _log10(link.frequency_mhz)
    bs_db = -13.82 * _log10(link.bs_height_m)
    rx_db = -_finite(rx_correction, "receiver correction a(h_r)")
    head = (("constant", 46.3), ("frequency", frequency_db), ("bs_height", bs_db),
            ("rx_correction", rx_db))
    slope = 44.9 - 6.55 * _log10(link.bs_height_m)
    area = ("environment", 3.0 if environment is _URBAN else 0.0)
    head_db, area_db = 0.0 + 46.3 + frequency_db + bs_db + rx_db, area[1]

    def point(distance_m):
        return slope * _log10(_check_distance(distance_m))

    def at(distance_m: float) -> PathLossResult:
        return PathLossResult(head + (("distance", point(distance_m)), area), warnings)

    def loss(distance_m: float) -> float:
        return _finite_total(head_db + point(distance_m) + area_db)
    return _evaluator(at, loss, lambda distances: [
        head_db + slope * _log10(d / 1000.0) + area_db for d in distances],
        (), 1.0 if _moderate(46.3, frequency_db, bs_db, rx_db, slope) else math.inf)


# --------------------------------------------------------------------------
# COST-231 Walfisch-Ikegami
# --------------------------------------------------------------------------

def wi_los(link: RadioLink):
    """Bind the line-of-sight street canyon loss: 42.64 + 26*log10(d_km) + 20*log10(f)."""
    frequency = ("frequency", 20.0 * _log10(link.frequency_mhz))
    frequency_db = frequency[1]

    def point(distance_m):
        return 26.0 * _log10(_check_distance(distance_m))

    def at(distance_m: float) -> PathLossResult:
        return PathLossResult((("constant", 42.64), ("distance", point(distance_m)), frequency))

    def loss(distance_m: float) -> float:
        return _finite_total(0.0 + 42.64 + point(distance_m) + frequency_db)
    # affine_from_m is 1.0: 20*log10(f) stays within 6,200 dB for any link, always moderate
    return _evaluator(at, loss, lambda distances: [
        0.0 + 42.64 + 26.0 * _log10(d / 1000.0) + frequency_db for d in distances])


def _height_warning(geometry: WiGeometry, link: RadioLink):
    """The warning that the rooftop term's height symbols are bound to the
    roof height, with the shift of the base-station reading; none where the
    two heights agree."""
    if geometry.roof_height_m == link.bs_height_m:
        return ()
    alt = 20.0 * _log10(link.bs_height_m - link.rx_height_m)
    shift = alt - 20.0 * _log10(geometry.roof_height_m - link.rx_height_m)
    return (f"height symbols bound to roof height {geometry.roof_height_m:g} m; "
            f"the base-station reading ({link.bs_height_m:g} m) would shift the "
            f"rooftop term by {shift:+.2f} dB",)


# The printed multi-screen term's garbled branches below the roofs, filled in
# with the corrected forms: the base term from 0.5 km on, k_A and k_D up to it.
_GARBLED_BASE = ("garbled branch: corrected definition substituted for the "
                 "multiscreen base term below rooftop at d >= 0.5 km")
_GARBLED_SLOPES = ("garbled branch: corrected definition substituted for the "
                   "multiscreen range offset below rooftop at d <= 0.5 km",
                   "garbled branch: corrected definition substituted for the "
                   "multiscreen distance slope below rooftop at d <= 0.5 km")


def wi_nlos(geometry: WiGeometry, link: RadioLink,
            mode: FidelityMode = FidelityMode.CORRECTED):
    """Bind the NLOS total: free space + rooftop-to-street + multi-screen diffraction.

    The rooftop-to-street term reads its height difference as roof height
    minus receiver height; the printed form reuses the base-station symbol,
    and a warning gives the shift of that reading.  Its street-orientation
    correction is piecewise over [0, 35), [35, 55) and [55, 90] degrees.
    Multi-screen diffraction is L_MSD = L_BSH + k_A + k_D*log d + k_F*log f
    - 9*log s_b, d in km.  A negative diffraction sum is clamped to the
    free-space floor and reported as a warning.
    """
    _check_mode(mode)
    frequency_term = 20.0 * _log10(link.frequency_mhz)
    roof = geometry.roof_height_m
    drop = roof - link.rx_height_m
    if drop <= 0:
        raise DomainError("rooftop term undefined: roof height must exceed receiver height")
    angle = geometry.orientation_deg
    if angle < 35.0:
        orientation = -10.0 + 0.354 * angle
    elif angle < 55.0:
        orientation = 2.5 + 0.075 * (angle - 35.0)
    else:
        orientation = 4.0 - 0.114 * (angle - 55.0)
    rts = (-16.9 - 10.0 * _log10(geometry.street_width_m)
           + 10.0 * _log10(link.frequency_mhz) + 20.0 * _log10(drop) + orientation)
    rooftop = ("rooftop_to_street", rts)

    delta = link.bs_height_m - roof  # BS height relative to the rooftops
    printed = mode is _AS_PRINTED
    if printed:
        k_f = -4.0 + geometry.metro_factor_k * (link.frequency_mhz / 924.0)
    else:
        k_f = -4.0 + geometry.metro_factor_k * (link.frequency_mhz / 925.0 - 1.0)
    k_f_term = k_f * _log10(link.frequency_mhz)
    separation_term = 9.0 * _log10(geometry.building_separation_m)
    # Each branch binds multiscreen(d_km, log10(d_km)) -> L_MSD and its
    # branch points in metres.  From far_m on, L_MSD is the sum of
    # the constant far_terms and far_k_d*log d, with far_k_d >= 18.
    if delta > 0:
        base = -18.0 * _log10(1.0 + delta) + 54.0  # L_BSH + k_A
        far_k_d = 18.0 + 15.0 * delta / roof if printed else 18.0

        def multiscreen(d_km, log_d):
            return base + far_k_d * log_d + k_f_term - separation_term
        branch_points = ()  # far_k_d > 0: affine and increasing in log d
        far_m, far_terms = 0.0, (base, k_f_term, -separation_term)
    else:
        scaled_delta = 0.8 * delta
        k_d_below = 18.0 - 15.0 * delta / roof
        if printed:
            # The printed branch sets only cover (d < 0.5 km) for L_BSH and
            # (d > 0.5 km) for k_A and k_D; the gaps use the corrected forms.
            def multiscreen(d_km, log_d):
                l_bsh = 54.0 + scaled_delta * 2.0 * d_km if d_km < 0.5 else 0.0
                if d_km > 0.5:
                    k_a, k_d = 54.0 + scaled_delta, 18.0
                else:
                    k_a, k_d = 54.0 - scaled_delta * (d_km / 0.5), k_d_below
                return l_bsh + k_a + k_d * log_d + k_f_term - separation_term
            # Three pieces, d_km < 0.5 (L_BSH + k_A is a flat 108 dB), == 0.5
            # (about 54 dB lower) and > 0.5 (k_A and k_D constant), each
            # non-decreasing in d.  The neighbours of 500 m are the last and
            # first distances in metres that fall in the outer pieces.
            branch_points = (math.nextafter(500.0, 0.0), 500.0, math.nextafter(500.0, math.inf))
            far_m, far_k_d = branch_points[2], 18.0
            far_terms = (54.0 + scaled_delta, k_f_term, -separation_term)
        else:
            k_a_far = 54.0 - scaled_delta

            def multiscreen(d_km, log_d):
                # L_BSH is 0 below the rooftops, and adding 0.0 to k_A >= 54 is exact
                k_a = k_a_far if d_km >= 0.5 else 54.0 - scaled_delta * (d_km / 0.5)
                return k_a + k_d_below * log_d + k_f_term - separation_term
            branch_points = ()  # k_A rises to exactly k_a_far at 0.5 km; k_d_below >= 18
            far_m, far_k_d, far_terms = 500.0, k_d_below, (k_a_far, k_f_term, -separation_term)

    def point(distance_m):
        """Free space, L_MSD and the floor (None unless it fires)."""
        d_km = _check_distance(distance_m)
        log_d = _log10(d_km)
        msd = multiscreen(d_km, log_d)
        diffraction = rts + msd
        return (32.45 + 20.0 * log_d + frequency_term, msd,
                -diffraction if diffraction < 0.0 else None)
    # free space + max(L_RTS + L_MSD, 0): non-decreasing wherever L_MSD is.  On
    # L_MSD's far piece (k_A is linear in d below 500 m under the roofs),
    # L_RTS + L_MSD rises far_k_d >= 18 dB per decade through 0 at one
    # distance, the floor's kink.  A relative 1e-9 past it the sum is 7.8e-9 dB,
    # far above its rounding, so the floor stays off.  10**x is finite to x = 308.
    affine_from_m = math.inf
    if _moderate(frequency_term, rts, far_k_d, *far_terms):
        kink_m = 1000.0 * 10.0 ** min(-math.fsum((rts, *far_terms)) / far_k_d, 308.0)
        affine_from_m = max(1.0, far_m, kink_m * (1.0 + 1e-9))

    height_warning = None  # built by the first result: at.loss never reads it

    def at(distance_m: float) -> PathLossResult:
        nonlocal height_warning
        free_space, msd, floor = point(distance_m)
        if height_warning is None:
            height_warning = _height_warning(geometry, link)
        warnings = height_warning
        if printed and delta <= 0:  # the garbled branches multiscreen fills in
            d_km = distance_m / 1000.0
            warnings = ((_GARBLED_BASE,) if d_km >= 0.5 else ()) + (
                _GARBLED_SLOPES if d_km <= 0.5 else ()) + warnings
        components = (("free_space", free_space), rooftop, ("multiscreen", msd))
        if floor is not None:
            components += (("diffraction_floor", floor),)
            warnings += ("negative diffraction sum clamped to the free-space floor",)
        return PathLossResult(components, warnings)

    def loss(distance_m: float) -> float:
        free_space, msd, floor = point(distance_m)
        total = 0.0 + free_space + rts + msd
        return _finite_total(total if floor is None else total + floor)
    return _evaluator(at, loss, lambda distances: [
        total + -diffraction if diffraction < 0.0 else total
        for d in distances for d_km in (d / 1000.0,) for log_d in (_log10(d_km),)
        for msd in (multiscreen(d_km, log_d),) for diffraction in (rts + msd,)
        for total in (0.0 + (32.45 + 20.0 * log_d + frequency_term) + rts + msd,)],
        branch_points, affine_from_m)


# --------------------------------------------------------------------------
# Ericsson 9999
# --------------------------------------------------------------------------

def ericsson(link: RadioLink,
             coeffs: EricssonCoefficients = EricssonCoefficients(),
             mode: FidelityMode = FidelityMode.CORRECTED):
    """Bind Ericsson 9999 with adjustable a0..a3 coefficients and the frequency
    gain g(f) = 44.49*log10(f) - 4.78*(log10(f))^2.

    The fixed receiver-height offset is 3.2*(log10(11.75))^2 exactly as
    printed; corrected mode restores the receiver height inside the log,
    3.2*(log10(11.75*h_r))^2.
    """
    _check_mode(mode)
    lb = _log10(link.bs_height_m)
    cross = coeffs.a3 * lb
    if mode is _AS_PRINTED:
        offset = 3.2 * _log10(11.75) ** 2
    else:
        offset = 3.2 * _log10(11.75 * link.rx_height_m) ** 2
    constant, bs_height = ("constant", coeffs.a0), ("bs_height", coeffs.a2 * lb)
    lf = _log10(link.frequency_mhz)
    rx_db, gain_db = -offset, 44.49 * lf - 4.78 * lf * lf
    tail = (("rx_height_offset", rx_db), ("frequency_gain", gain_db))
    head_db, a1, bs_db = 0.0 + coeffs.a0, coeffs.a1, bs_height[1]

    def point(distance_m):
        ld = _log10(_check_distance(distance_m))
        return a1 * ld, cross * ld

    def at(distance_m: float) -> PathLossResult:
        distance, bs_cross = point(distance_m)
        return PathLossResult((constant, ("distance", distance), bs_height,
                               ("bs_distance_cross", bs_cross)) + tail)

    def loss(distance_m: float) -> float:
        distance, bs_cross = point(distance_m)
        return _finite_total(head_db + distance + bs_db + bs_cross + rx_db + gain_db)
    return _evaluator(at, loss, lambda distances: [
        head_db + a1 * ld + bs_db + cross * ld + rx_db + gain_db
        for d in distances for ld in (_log10(d / 1000.0),)],
        (), 1.0 if _moderate(head_db, a1, bs_db, cross, rx_db, gain_db) else math.inf)
