"""Empirical path-loss models: SUI, Okumura, COST-231 Hata, COST-231
Walfisch-Ikegami and Ericsson 9999.

All operations are pure functions over immutable inputs.  External units are
meters and MHz everywhere; models that are natively written in km convert
internally.  Logarithms are base 10 throughout.

Several formulas circulate with misprinted terms.  Operations that are
affected take a :class:`FidelityMode`: ``CORRECTED`` (default) follows the
standard literature definitions, ``AS_PRINTED`` follows the comparison
source's printed formulas verbatim, falling back to the corrected branch
(with a warning) where the printed branch set has gaps.

Each model has one entry point, its binder (``sui``, ``okumura``,
``cost231_hata``, ``wi_los``, ``wi_nlos``, ``ericsson``).  It takes the link
and the model's other inputs, computes every term that does not depend on
distance once, and returns ``at(distance_m) -> PathLossResult``.  ``at``
ignores ``link.distance_m``; it checks the distance, computes only the
distance-dependent components and builds the :class:`PathLossResult` in the
model's component order, joining them to component tuples the binder built
once.  The loss at the link's own distance is
``binder(link, ...)(link.distance_m)``, and a sweep over a bound model
returns exactly what a fresh binding returns at each point.  That equality
holds only if hoisting never reorders floating-point arithmetic: a binder may
precompute a whole left-associated sub-expression (``10.0 * gamma`` out of
``10.0 * gamma * log10(r)``, ``20.0 * log10(f)`` as the last addend of a sum)
but never regroup or reorder terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .errors import DomainError

LIGHT_SPEED_M_S = 299_792_458.0

_log10 = math.log10


class FidelityMode(Enum):
    CORRECTED = "corrected"
    AS_PRINTED = "as_printed"


class Environment(Enum):
    URBAN = "urban"
    SUBURBAN = "suburban"
    RURAL = "rural"


class SuiTerrain(Enum):
    """SUI terrain class, densest (A) to flattest (C)."""

    A = "A"
    B = "B"
    C = "C"


#: Each environment maps to exactly one SUI terrain class.
TERRAIN_FOR_ENVIRONMENT = {
    Environment.URBAN: SuiTerrain.A,
    Environment.SUBURBAN: SuiTerrain.B,
    Environment.RURAL: SuiTerrain.C,
}


@dataclass(frozen=True)
class SuiTerrainParams:
    """SUI path-loss exponent parameters (a dimensionless, b per meter, c meters)."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        if self.a <= 0 or self.b < 0 or self.c < 0:
            raise DomainError("SUI terrain parameters require a > 0, b >= 0, c >= 0")


SUI_TERRAIN_PARAMS = {
    SuiTerrain.A: SuiTerrainParams(4.6, 0.0075, 12.6),
    SuiTerrain.B: SuiTerrainParams(4.0, 0.0065, 17.1),
    SuiTerrain.C: SuiTerrainParams(3.6, 0.005, 20.0),
}


@dataclass(frozen=True)
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

    def __post_init__(self):
        _check_finite(self)
        _check_frequency(self.frequency_mhz)
        _check_distance(self.distance_m)
        if not self.bs_height_m > self.rx_height_m > 0:
            raise DomainError("heights must satisfy bs_height > rx_height > 0")
        if self.sui_reference_distance_m <= 0:
            raise DomainError("SUI reference distance must be positive")

    @property
    def wavelength_m(self) -> float:
        return _check_frequency(self.frequency_mhz)


@dataclass(frozen=True)
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

    def __post_init__(self):
        _check_finite(self)
        if self.street_width_m <= 0 or self.building_separation_m <= 0:
            raise DomainError("street width and building separation must be positive")
        if self.roof_height_m <= 0:
            raise DomainError("roof height must be positive")
        if not 0.0 <= self.orientation_deg <= 90.0:
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

    Built as ``PathLossResult(components, warnings=())``; ``total_db`` is
    computed, the left-to-right sum of the component values, and must be
    finite.  Labels are unique within one result.
    """

    total_db: float = field(init=False)
    components: tuple[tuple[str, float], ...]
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        by_label = dict(self.components)
        if not by_label:
            raise DomainError("a path-loss result needs at least one component")
        if len(by_label) != len(self.components):
            raise DomainError("component labels must be unique")
        total = 0.0  # a plain left fold: sum() compensates floats from Python 3.12 on
        for value in by_label.values():
            total += value
        if not math.isfinite(total):
            raise DomainError("path-loss total must be finite")
        object.__setattr__(self, "total_db", total)

    def component(self, label: str) -> float:
        return dict(self.components)[label]


def _check_finite(instance):
    """Reject a non-finite field of a dataclass instance, naming the field."""
    for name, value in vars(instance).items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite")


def _check_distance(distance_m):
    if not math.isfinite(distance_m):
        raise DomainError("distance must be finite")
    if not distance_m / 1000.0 > 0.0:  # a subnormal distance underflows to 0 km
        raise DomainError("distance must be positive" if distance_m <= 0
                          else f"distance {distance_m:g} m underflows to 0 km")


def _check_frequency(frequency_mhz):
    """Return the wavelength c/f, which must be finite and nonzero for f > 0."""
    if not frequency_mhz > 0:
        raise DomainError("frequency must be positive")
    wavelength = LIGHT_SPEED_M_S / (frequency_mhz * 1e6)
    if wavelength == 0.0 or wavelength == math.inf:
        raise DomainError(f"frequency {frequency_mhz:g} MHz has no finite, nonzero wavelength")
    return wavelength


def _log10_positive(value, what):
    """log10 of a positive quotient or product, which can still underflow to 0."""
    if value == 0.0:
        raise DomainError(f"{what} underflows to 0")
    return _log10(value)


# --------------------------------------------------------------------------
# SUI
# --------------------------------------------------------------------------

def sui_gamma(params: SuiTerrainParams, bs_height_m: float) -> float:
    """Path-loss exponent gamma = a - b*h_b + c/h_b."""
    if bs_height_m <= 0:
        raise DomainError("base-station height must be positive")
    return params.a - params.b * bs_height_m + params.c / bs_height_m


def sui_reference_loss(frequency_mhz: float, d0_m: float) -> float:
    """Free-space loss at the reference distance: 20*log10(4*pi*d0/lambda)."""
    wavelength = _check_frequency(frequency_mhz)
    if d0_m <= 0:
        raise DomainError("reference distance must be positive")
    return 20.0 * _log10_positive(4.0 * math.pi * d0_m / wavelength, "4*pi*d0/lambda")


def sui_freq_correction(frequency_mhz: float) -> float:
    """Frequency correction X_f = 6*log10(f/2000)."""
    _check_frequency(frequency_mhz)
    return 6.0 * _log10(frequency_mhz / 2000.0)


def sui_height_correction(rx_height_m: float, terrain: SuiTerrain) -> float:
    """Receiver-height correction X_h; terrain C uses the steeper -20 slope."""
    if rx_height_m <= 0:
        raise DomainError("receiver height must be positive")
    slope = -20.0 if terrain is SuiTerrain.C else -10.8
    return slope * _log10_positive(rx_height_m / 2000.0, "h_r/2000")


def sui_shadowing(frequency_mhz: float, environment: Environment) -> float:
    """Closed-form shadowing term 0.65*(log f)^2 - 1.3*log f + alpha.

    alpha is bound by environment name: 6.6 dB urban, 5.2 dB suburban/rural.
    Deterministic by design; no random sampling.
    """
    _check_frequency(frequency_mhz)
    alpha = 6.6 if environment is Environment.URBAN else 5.2
    lf = _log10(frequency_mhz)
    return 0.65 * lf * lf - 1.3 * lf + alpha


def sui(link: RadioLink, environment: Environment, include_shadowing: bool = True):
    """Bind SUI: A + 10*gamma*log10(d/d0) + X_f + X_h (+ S); d must exceed d0."""
    d0 = link.sui_reference_distance_m
    terrain = TERRAIN_FOR_ENVIRONMENT[environment]
    slope = 10.0 * sui_gamma(SUI_TERRAIN_PARAMS[terrain], link.bs_height_m)
    free_space_ref = ("free_space_ref", sui_reference_loss(link.frequency_mhz, d0))
    tail = (
        ("frequency_correction", sui_freq_correction(link.frequency_mhz)),
        ("height_correction", sui_height_correction(link.rx_height_m, terrain)),
    )
    if include_shadowing:
        tail += (("shadowing", sui_shadowing(link.frequency_mhz, environment)),)

    def at(distance_m: float) -> PathLossResult:
        _check_distance(distance_m)
        if distance_m <= d0:
            raise DomainError(
                f"distance {distance_m:g} m is below reference distance {d0:g} m")
        return PathLossResult(
            (free_space_ref, ("distance", slope * _log10(distance_m / d0))) + tail)
    return at


# --------------------------------------------------------------------------
# Okumura
# --------------------------------------------------------------------------

def okumura_antenna_gains(bs_height_m: float, rx_height_m: float) -> tuple[float, float]:
    """Antenna gain factors G(h_b) = 20*log10(h_b/200), G(h_r) = 10*log10(h_r/3)."""
    if bs_height_m <= 0 or rx_height_m <= 0:
        raise DomainError("antenna heights must be positive")
    return (20.0 * _log10_positive(bs_height_m / 200.0, "h_b/200"),
            10.0 * _log10_positive(rx_height_m / 3.0, "h_r/3"))


def okumura(link: RadioLink, environment: Environment, curves, clamp: bool = False):
    """Bind Okumura: L_f + A_mu(f,d) - G(h_b) - G(h_r) - G_AREA(f, env).

    ``curves`` is a :class:`pathcast.curves.CurveTable`.  The free-space term
    uses the actual Tx-Rx distance.  Out-of-grid lookups raise unless
    ``clamp`` is set, in which case the clamped axes are reported as warnings.
    The area gain is looked up at the first point whose A_mu lookup
    succeeds, so a point reports the same error as a fresh evaluation.
    """
    from .curves import amu_lookup, clamp_to_grid, garea_lookup

    g_bs, g_rx = okumura_antenna_gains(link.bs_height_m, link.rx_height_m)
    bs_gain, rx_gain = ("bs_height_gain", -g_bs), ("rx_height_gain", -g_rx)
    freq = link.frequency_mhz
    wavelength = link.wavelength_m
    area = None

    def at(distance_m: float) -> PathLossResult:
        nonlocal area
        _check_distance(distance_m)
        warnings = ()
        f, dist = freq, distance_m
        if clamp:
            f, dist, warnings = clamp_to_grid(curves, f, dist)
        amu = amu_lookup(curves, f, dist)
        if area is None:
            area = ("area_gain", -garea_lookup(curves, f, environment))
        free_space = 20.0 * _log10_positive(4.0 * math.pi * distance_m / wavelength,
                                            "4*pi*d/lambda")
        return PathLossResult(
            (("free_space", free_space), ("median_attenuation", amu), bs_gain, rx_gain, area),
            warnings)
    return at


# --------------------------------------------------------------------------
# COST-231 Hata
# --------------------------------------------------------------------------

COST231_VALID_MHZ = (1500.0, 2000.0)


def hata_rx_correction(frequency_mhz: float, rx_height_m: float,
                       environment: Environment,
                       mode: FidelityMode = FidelityMode.CORRECTED) -> float:
    """Receiver correction a(h_r).

    Urban: 3.2*(log10(11.75*h_r))^2 - 4.97 in both modes.  Suburban/rural:
    the standard small-city term in corrected mode; the misprinted variant
    (0.7 multiplying h_r alone, 1.58*f in place of 1.56*log f) as printed.
    """
    if frequency_mhz <= 0 or rx_height_m <= 0:
        raise DomainError("frequency and receiver height must be positive")
    if environment is Environment.URBAN:
        return 3.2 * _log10(11.75 * rx_height_m) ** 2 - 4.97
    lf = _log10(frequency_mhz)
    if mode is FidelityMode.AS_PRINTED:
        return 1.1 * lf - 0.7 * rx_height_m - (1.58 * frequency_mhz - 0.8)
    return (1.1 * lf - 0.7) * rx_height_m - (1.56 * lf - 0.8)


def cost231_hata(link: RadioLink, environment: Environment,
                 mode: FidelityMode = FidelityMode.CORRECTED):
    """Bind COST-231 Hata median loss; c = 3 dB urban, 0 otherwise; d in km."""
    lo, hi = COST231_VALID_MHZ
    warnings = ()
    if not lo <= link.frequency_mhz <= hi:
        warnings = (
            f"frequency {link.frequency_mhz:g} MHz outside model validity "
            f"range {lo:g}-{hi:g} MHz",)
    head = (
        ("constant", 46.3),
        ("frequency", 33.9 * _log10(link.frequency_mhz)),
        ("bs_height", -13.82 * _log10(link.bs_height_m)),
        ("rx_correction", -hata_rx_correction(link.frequency_mhz, link.rx_height_m,
                                              environment, mode)),
    )
    slope = 44.9 - 6.55 * _log10(link.bs_height_m)
    area = ("environment", 3.0 if environment is Environment.URBAN else 0.0)

    def at(distance_m: float) -> PathLossResult:
        _check_distance(distance_m)
        return PathLossResult(
            head + (("distance", slope * _log10(distance_m / 1000.0)), area), warnings)
    return at


# --------------------------------------------------------------------------
# COST-231 Walfisch-Ikegami
# --------------------------------------------------------------------------

def wi_los(link: RadioLink):
    """Bind the line-of-sight street canyon loss: 42.64 + 26*log10(d_km) + 20*log10(f)."""
    frequency = ("frequency", 20.0 * _log10(link.frequency_mhz))

    def at(distance_m: float) -> PathLossResult:
        _check_distance(distance_m)
        return PathLossResult(
            (("constant", 42.64), ("distance", 26.0 * _log10(distance_m / 1000.0)), frequency))
    return at


def wi_orientation_loss(orientation_deg: float) -> float:
    """Street-orientation correction, piecewise over [0,35), [35,55), [55,90]."""
    a = orientation_deg
    if not 0.0 <= a <= 90.0:
        raise DomainError("street orientation must lie in [0, 90] degrees")
    if a < 35.0:
        return -10.0 + 0.354 * a
    if a < 55.0:
        return 2.5 + 0.075 * (a - 35.0)
    return 4.0 - 0.114 * (a - 55.0)


def wi_rooftop_to_street(geometry: WiGeometry, frequency_mhz: float,
                         rx_height_m: float) -> float:
    """Rooftop-to-street diffraction L_RTS.

    The height difference is read as roof height minus receiver height (the
    printed form reuses the base-station symbol; see wi_nlos for
    the warning surfacing the alternative reading).
    """
    _check_frequency(frequency_mhz)
    drop = geometry.roof_height_m - rx_height_m
    if drop <= 0:
        raise DomainError(
            "rooftop term undefined: roof height must exceed receiver height")
    return (-16.9 - 10.0 * _log10(geometry.street_width_m)
            + 10.0 * _log10(frequency_mhz) + 20.0 * _log10(drop)
            + wi_orientation_loss(geometry.orientation_deg))


def _wi_multiscreen(geometry: WiGeometry, frequency_mhz: float, bs_height_m: float,
                    mode: FidelityMode):
    """Bind L_MSD = L_BSH + k_A + k_D*log d + k_F*log f - 9*log s_b.

    Returns ``at(d_km) -> (value, garbled-branch warnings)``.
    """
    roof = geometry.roof_height_m
    delta = bs_height_m - roof  # BS height relative to the rooftops
    printed = mode is FidelityMode.AS_PRINTED
    if printed:
        k_f = -4.0 + geometry.metro_factor_k * (frequency_mhz / 924.0)
    else:
        k_f = -4.0 + geometry.metro_factor_k * (frequency_mhz / 925.0 - 1.0)
    frequency_term = k_f * _log10(frequency_mhz)
    separation_term = 9.0 * _log10(geometry.building_separation_m)

    if delta > 0:
        base = -18.0 * _log10(1.0 + delta) + 54.0  # L_BSH + k_A
        k_d = 18.0 + 15.0 * delta / roof if printed else 18.0

        def at(d_km):
            return base + k_d * _log10(d_km) + frequency_term - separation_term, ()
        return at

    scaled_delta = 0.8 * delta
    k_d_below = 18.0 - 15.0 * delta / roof
    if printed:
        # The printed branch sets only cover (d < 0.5 km) for L_BSH and
        # (d > 0.5 km) for k_A and k_D; the gaps use the corrected forms.
        def at(d_km):
            warnings = ()
            if d_km < 0.5:
                l_bsh = 54.0 + scaled_delta * 2.0 * d_km
            else:
                l_bsh = 0.0
                warnings += (
                    "garbled branch: corrected definition substituted for the "
                    "multiscreen base term below rooftop at d >= 0.5 km",)
            if d_km > 0.5:
                k_a = 54.0 + scaled_delta
                k_d = 18.0
            else:
                k_a = 54.0 - scaled_delta * (d_km / 0.5)
                k_d = k_d_below
                warnings += (
                    "garbled branch: corrected definition substituted for the "
                    "multiscreen range offset below rooftop at d <= 0.5 km",
                    "garbled branch: corrected definition substituted for the "
                    "multiscreen distance slope below rooftop at d <= 0.5 km")
            return (l_bsh + k_a + k_d * _log10(d_km) + frequency_term - separation_term,
                    warnings)
        return at

    k_a_far = 54.0 - scaled_delta

    def at(d_km):
        # L_BSH is 0 below the rooftops, and adding 0.0 to k_A >= 54 is exact
        k_a = k_a_far if d_km >= 0.5 else 54.0 - scaled_delta * (d_km / 0.5)
        return k_a + k_d_below * _log10(d_km) + frequency_term - separation_term, ()
    return at


def wi_nlos(geometry: WiGeometry, link: RadioLink,
            mode: FidelityMode = FidelityMode.CORRECTED):
    """Bind the NLOS total: free space + rooftop-to-street + multi-screen diffraction.

    A negative diffraction sum is clamped to the free-space floor and
    reported as a warning.
    """
    frequency_term = 20.0 * _log10(link.frequency_mhz)
    rts = wi_rooftop_to_street(geometry, link.frequency_mhz, link.rx_height_m)
    rooftop = ("rooftop_to_street", rts)
    multiscreen = _wi_multiscreen(geometry, link.frequency_mhz, link.bs_height_m, mode)

    height_warning = ()
    if geometry.roof_height_m != link.bs_height_m:
        alt = 20.0 * _log10(link.bs_height_m - link.rx_height_m)
        shift = alt - 20.0 * _log10(geometry.roof_height_m - link.rx_height_m)
        height_warning = (
            f"height symbols bound to roof height {geometry.roof_height_m:g} m; "
            f"the base-station reading ({link.bs_height_m:g} m) would shift the "
            f"rooftop term by {shift:+.2f} dB",)

    def at(distance_m: float) -> PathLossResult:
        _check_distance(distance_m)
        d_km = distance_m / 1000.0
        msd, warnings = multiscreen(d_km)
        warnings += height_warning
        components = (("free_space", 32.45 + 20.0 * _log10(d_km) + frequency_term),
                      rooftop, ("multiscreen", msd))
        diffraction = rts + msd
        if diffraction < 0.0:
            components += (("diffraction_floor", -diffraction),)
            warnings += ("negative diffraction sum clamped to the free-space floor",)
        return PathLossResult(components, warnings)
    return at


# --------------------------------------------------------------------------
# Ericsson 9999
# --------------------------------------------------------------------------

def ericsson_gf(frequency_mhz: float) -> float:
    """Frequency term g(f) = 44.49*log10(f) - 4.78*(log10(f))^2."""
    _check_frequency(frequency_mhz)
    lf = _log10(frequency_mhz)
    return 44.49 * lf - 4.78 * lf * lf


def ericsson(link: RadioLink,
             coeffs: EricssonCoefficients = EricssonCoefficients(),
             mode: FidelityMode = FidelityMode.CORRECTED):
    """Bind Ericsson 9999 with adjustable a0..a3 coefficients.

    The fixed receiver-height offset is 3.2*(log10(11.75))^2 exactly as
    printed; corrected mode restores the receiver height inside the log,
    3.2*(log10(11.75*h_r))^2.
    """
    lb = _log10(link.bs_height_m)
    cross = coeffs.a3 * lb
    if mode is FidelityMode.AS_PRINTED:
        offset = 3.2 * _log10(11.75) ** 2
    else:
        offset = 3.2 * _log10(11.75 * link.rx_height_m) ** 2
    constant, bs_height = ("constant", coeffs.a0), ("bs_height", coeffs.a2 * lb)
    tail = (("rx_height_offset", -offset), ("frequency_gain", ericsson_gf(link.frequency_mhz)))

    def at(distance_m: float) -> PathLossResult:
        _check_distance(distance_m)
        ld = _log10(distance_m / 1000.0)
        return PathLossResult(
            (constant, ("distance", coeffs.a1 * ld), bs_height,
             ("bs_distance_cross", cross * ld)) + tail)
    return at
