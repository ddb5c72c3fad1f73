"""Scenario defaults, dispatch, sweeps, reference comparison, inversion."""

import copy
import dataclasses
import inspect
import math
import pickle
import random
import re
import sys
from collections import Counter
from fractions import Fraction

import pytest

from pathcast import (
    BoundsError,
    DomainError,
    Environment,
    EricssonCoefficients,
    FidelityMode,
    ModelId,
    RadioLink,
    Scenario,
    WiGeometry,
    compare_against_reference,
    cost231_hata,
    default_scenario,
    ericsson,
    evaluate,
    garea_lookup,
    invert_cell_range,
    load_curves,
    load_reference_rows,
    okumura,
    sui,
    wi_los,
    wi_nlos,
)
from pathcast import scenario as scenario_module
from pathcast.curves import amu_at_frequency
from pathcast.propagation import _moderate
from pathcast.scenario import iter_sweep

import oracle
from conftest import checked_points, flat_distances, invoke_cli, plain_bisection


class TestDefaults:
    def test_urban_scenario_reproduces_simulation_table(self):
        s = default_scenario(Environment.URBAN)
        assert s.link.frequency_mhz == 1900.0
        assert s.link.distance_m == 5000.0
        assert s.link.bs_height_m == 30.0
        assert s.link.rx_height_m == 3.0
        assert s.wi_geometry.street_width_m == 25.0
        assert s.wi_geometry.building_separation_m == 50.0
        assert s.wi_geometry.roof_height_m == 15.0
        assert s.wi_geometry.orientation_deg == 30.0
        assert s.wi_geometry.metro_factor_k == 1.5
        assert s.wi_geometry.los is False
        assert s.shadow_margin_db == 10.6
        assert s.apply_shadow_margin is False
        assert s.include_sui_shadowing is True
        assert s.mode is FidelityMode.CORRECTED

    def test_suburban_and_rural_bindings(self):
        suburban = default_scenario(Environment.SUBURBAN)
        assert suburban.wi_geometry.orientation_deg == 40.0
        assert suburban.wi_geometry.metro_factor_k == 0.7
        assert suburban.shadow_margin_db == 8.2
        rural = default_scenario(Environment.RURAL)
        assert rural.wi_geometry.los is True
        assert rural.shadow_margin_db == 8.2

    def test_overrides(self):
        s = default_scenario(Environment.URBAN, bs_height_m=80.0, frequency_mhz=2100.0,
                             orientation_deg=12.0, wi_los=True)
        assert s.link.bs_height_m == 80.0
        assert s.link.frequency_mhz == 2100.0
        assert s.wi_geometry.orientation_deg == 12.0
        assert s.wi_geometry.los is True

    def test_scenario_has_no_field_defaults(self):
        # default_scenario is the one source, with the margin per environment
        s = default_scenario(Environment.RURAL)
        with pytest.raises(TypeError):
            Scenario(s.link, s.environment, s.wi_geometry)


_URBAN = default_scenario(Environment.URBAN)
#: Each scenario value type: its fields in order with their defaults, and the
#: positional arguments of one valid instance.
_VALUE_TYPES = {
    RadioLink: ((("frequency_mhz", dataclasses.MISSING), ("distance_m", dataclasses.MISSING),
                 ("bs_height_m", dataclasses.MISSING), ("rx_height_m", dataclasses.MISSING),
                 ("sui_reference_distance_m", 100.0)),
                (1900.0, 5000.0, 30.0, 3.0, 100.0)),
    WiGeometry: ((("street_width_m", 25.0), ("building_separation_m", 50.0),
                  ("roof_height_m", 15.0), ("orientation_deg", 30.0),
                  ("metro_factor_k", 1.5), ("los", False)),
                 (25.0, 50.0, 15.0, 30.0, 1.5, False)),
    Scenario: (tuple((name, dataclasses.MISSING) for name in (
                   "link", "environment", "wi_geometry", "ericsson", "mode",
                   "shadow_margin_db", "apply_shadow_margin", "include_sui_shadowing")),
               tuple(getattr(_URBAN, f.name) for f in dataclasses.fields(Scenario))),
}
_VALUE_TYPE_IDS = [cls.__name__ for cls in _VALUE_TYPES]


class TestValueTypes:
    """The frozen value types a scenario is built from."""

    @pytest.mark.parametrize("cls", _VALUE_TYPES, ids=_VALUE_TYPE_IDS)
    def test_fields_and_signature(self, cls):
        expected, _ = _VALUE_TYPES[cls]
        fields = dataclasses.fields(cls)
        assert tuple((f.name, f.default) for f in fields) == expected
        assert all(f.init and f.default_factory is dataclasses.MISSING for f in fields)
        parameters = inspect.signature(cls).parameters.values()
        assert tuple((p.name, dataclasses.MISSING if p.default is p.empty else p.default)
                     for p in parameters) == expected
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in parameters)

    @pytest.mark.parametrize("cls", _VALUE_TYPES, ids=_VALUE_TYPE_IDS)
    def test_construction_forms_agree(self, cls):
        fields, args = _VALUE_TYPES[cls]
        names = [name for name, _ in fields]
        required = [arg for (_, default), arg in zip(fields, args)
                    if default is dataclasses.MISSING]
        built = (cls(*args), cls(**dict(zip(names, args))), cls(*required),
                 cls(*args[:2], **dict(zip(names[2:], args[2:]))))
        assert all(instance == built[0] for instance in built)
        assert list(vars(built[0]).items()) == list(zip(names, args))
        with pytest.raises(TypeError):
            cls(*args, args[0])
        with pytest.raises(TypeError):
            cls(*args[:len(names) - 1], **{names[0]: args[0]})
        with pytest.raises(TypeError):
            cls(*args, unknown=1.0)
        if required:
            with pytest.raises(TypeError):
                cls(*required[:-1])

    @pytest.mark.parametrize("cls", _VALUE_TYPES, ids=_VALUE_TYPE_IDS)
    def test_frozen(self, cls):
        fields, args = _VALUE_TYPES[cls]
        instance = cls(*args)
        for name, _ in fields:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(instance, name, args[0])
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(instance, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            instance.extra = 1.0
        assert cls(*args) == instance

    @pytest.mark.parametrize("cls", _VALUE_TYPES, ids=_VALUE_TYPE_IDS)
    def test_equal_hash_and_repr_by_value(self, cls):
        fields, args = _VALUE_TYPES[cls]
        a, b = cls(*args), cls(*args)
        assert a is not b and a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert repr(a) == f"{cls.__name__}(" + ", ".join(
            f"{name}={arg!r}" for (name, _), arg in zip(fields, args)) + ")"
        assert len({a, b}) == 1
        last = fields[-1][0]
        value = getattr(a, last)
        other = dataclasses.replace(a, **{last: not value if isinstance(value, bool)
                                          else value * 2})
        assert other != a

    @pytest.mark.parametrize("cls", _VALUE_TYPES, ids=_VALUE_TYPE_IDS)
    def test_pickle_and_copy_round_trip(self, cls):
        _, args = _VALUE_TYPES[cls]
        instance = cls(*args)
        copies = [pickle.loads(pickle.dumps(instance, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        copies += [copy.copy(instance), copy.deepcopy(instance)]
        for duplicate in copies:
            assert type(duplicate) is cls
            assert duplicate == instance and hash(duplicate) == hash(instance)
            assert list(vars(duplicate)) == list(vars(instance))
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(duplicate, "extra", 1.0)

    def test_replace_reruns_the_checks(self):
        link = _URBAN.link
        with pytest.raises(DomainError, match="^frequency_mhz must be finite$"):
            dataclasses.replace(link, frequency_mhz=math.nan)
        with pytest.raises(DomainError, match=r"^heights must satisfy"):
            dataclasses.replace(link, rx_height_m=30.0)
        with pytest.raises(DomainError, match=r"^street orientation must lie in \[0, 90\]"):
            dataclasses.replace(_URBAN.wi_geometry, orientation_deg=90.5)
        moved = dataclasses.replace(link, distance_m=7000.0)
        assert moved == RadioLink(1900.0, 7000.0, 30.0, 3.0) and link.distance_m == 5000.0
        applied = dataclasses.replace(_URBAN, apply_shadow_margin=True)
        assert applied == Scenario(*_VALUE_TYPES[Scenario][1][:6], True, True)

    @pytest.mark.parametrize("cls, args, kwargs, message", [
        # each case also breaks every check after the one that reports it
        (RadioLink, (math.nan, -1.0, 1.0, 2.0, 0.0), {}, "frequency_mhz must be finite"),
        (RadioLink, (1900.0, math.inf, 1.0, 2.0, 0.0), {}, "distance_m must be finite"),
        (RadioLink, (1900.0, -1.0, 1.0, 2.0, math.nan), {},
         "sui_reference_distance_m must be finite"),
        (RadioLink, (-5.0, -1.0, 1.0, 2.0, 0.0), {}, "frequency must be positive"),
        (RadioLink, (1e305, -1.0, 1.0, 2.0, 0.0), {},
         "frequency 1e+305 MHz has no finite, nonzero wavelength"),
        (RadioLink, (1900.0, -1.0, 1.0, 2.0, 0.0), {}, "distance must be positive"),
        (RadioLink, (1900.0, 5e-324, 1.0, 2.0, 0.0), {},
         "distance 4.94066e-324 m underflows to 0 km"),
        (RadioLink, (1900.0, 5000.0, 1.0, 2.0, 0.0), {},
         "heights must satisfy bs_height > rx_height > 0"),
        (RadioLink, (1900.0, 5000.0, 30.0, 0.0, 0.0), {},
         "heights must satisfy bs_height > rx_height > 0"),
        (RadioLink, (1900.0, 5000.0, 30.0, 3.0, 0.0), {},
         "SUI reference distance must be positive"),
        (WiGeometry, (), dict(street_width_m=-1.0, roof_height_m=math.inf),
         "roof_height_m must be finite"),
        (WiGeometry, (), dict(metro_factor_k=-math.inf, orientation_deg=-1.0),
         "metro_factor_k must be finite"),
        (WiGeometry, (), dict(building_separation_m=0.0, roof_height_m=-1.0,
                              orientation_deg=91.0), "street width and building "
         "separation must be positive"),
        (WiGeometry, (), dict(roof_height_m=0.0, orientation_deg=91.0),
         "roof height must be positive"),
        (WiGeometry, (), dict(orientation_deg=-0.5), "street orientation must lie in "
         "[0, 90] degrees"),
    ])
    def test_first_failing_check_wins(self, cls, args, kwargs, message):
        with pytest.raises(DomainError) as caught:
            cls(*args, **kwargs)
        assert str(caught.value) == message


@pytest.mark.parametrize("member", [*Environment, *FidelityMode], ids=str)
def test_members_keep_their_identity(member):
    """Members hash by identity, so a copy that were a new object would
    miss every table keyed by member."""
    members = list(type(member))
    copies = [pickle.loads(pickle.dumps(member, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(member), copy.deepcopy(member), type(member)(member.value),
               type(member)[member.name]]
    table = {m: i for i, m in enumerate(members)}
    for duplicate in copies:
        assert duplicate is member and hash(duplicate) == hash(member)
        assert table[duplicate] == members.index(member)
        assert duplicate in set(members) and {member, duplicate} == {member}
    assert member.value not in table and member.name not in set(members)
    restored = pickle.loads(pickle.dumps({member: [member]}))
    assert list(restored) == [member] and restored[member][0] is member
    assert copy.deepcopy(table) == table and list(copy.deepcopy(table)) == members


#: (name, a valid value) of each number field, in order, and the bool field's
#: valid value (None for RadioLink, which has none)
_NUMBER_FIELDS = {
    RadioLink: ((("frequency_mhz", 1900.0), ("distance_m", 5000.0), ("bs_height_m", 30.0),
                 ("rx_height_m", 3.0), ("sui_reference_distance_m", 100.0)), None),
    WiGeometry: ((("street_width_m", 25.0), ("building_separation_m", 50.0),
                  ("roof_height_m", 15.0), ("orientation_deg", 30.0),
                  ("metro_factor_k", 1.5)), False),
}


def _valid(cls, **changes):
    numbers, los = _NUMBER_FIELDS[cls]
    fields = dict(numbers, **({} if los is None else {"los": los}))
    return {**fields, **changes}


class TestConstructorFastPath:
    """RadioLink and WiGeometry skip the per-field finiteness check for
    plain finite floats; every other input takes it, and both paths store
    the same fields and report the same first failure."""

    @pytest.mark.parametrize("cls, changes, stored", [
        (RadioLink, {}, ((1900.0, float), (5000.0, float), (30.0, float), (3.0, float),
                         (100.0, float))),
        (RadioLink, dict(frequency_mhz=Fraction(3801, 2)),
         ((1900.5, float), (5000.0, float), (30.0, float), (3.0, float), (100.0, float))),
        (RadioLink, dict(distance_m=5000), ((1900.0, float), (5000, int), (30.0, float),
                                           (3.0, float), (100.0, float))),
        (RadioLink, dict(rx_height_m=True), ((1900.0, float), (5000.0, float), (30.0, float),
                                             (True, bool), (100.0, float))),
        # finite floats whose sum overflows to inf
        (RadioLink, dict(distance_m=1e308, bs_height_m=1e308, sui_reference_distance_m=1e308),
         ((1900.0, float), (1e308, float), (1e308, float), (3.0, float), (1e308, float))),
        (WiGeometry, {}, ((25.0, float), (50.0, float), (15.0, float), (30.0, float),
                          (1.5, float), (False, bool))),
        (WiGeometry, dict(roof_height_m=Fraction(1, 4)),
         ((25.0, float), (50.0, float), (0.25, float), (30.0, float), (1.5, float),
          (False, bool))),
        (WiGeometry, dict(orientation_deg=90), ((25.0, float), (50.0, float), (15.0, float),
                                                (90, int), (1.5, float), (False, bool))),
        (WiGeometry, dict(metro_factor_k=True), ((25.0, float), (50.0, float), (15.0, float),
                                                 (30.0, float), (True, bool), (False, bool))),
        (WiGeometry, dict(los=1), ((25.0, float), (50.0, float), (15.0, float), (30.0, float),
                                   (1.5, float), (1, int))),
        (WiGeometry, dict(street_width_m=1e308, building_separation_m=1e308,
                          roof_height_m=1e308, metro_factor_k=1e308),
         ((1e308, float), (1e308, float), (1e308, float), (30.0, float), (1e308, float),
          (False, bool))),
    ], ids=["RadioLink-floats", "RadioLink-Fraction", "RadioLink-int", "RadioLink-True",
            "RadioLink-sum-overflows", "WiGeometry-floats", "WiGeometry-Fraction",
            "WiGeometry-int", "WiGeometry-True", "WiGeometry-int-los",
            "WiGeometry-sum-overflows"])
    def test_stores_the_fields(self, cls, changes, stored):
        instance = cls(**_valid(cls, **changes))
        assert [(value, type(value)) for value in vars(instance).values()] == list(stored)

    @pytest.mark.parametrize("cls, changes, message", [
        *[(cls, {name: bad}, f"{name} must be finite")
          for cls, (numbers, _) in _NUMBER_FIELDS.items()
          for name, _ in numbers for bad in (math.nan, math.inf, -math.inf)],
        (RadioLink, dict(frequency_mhz=math.inf, distance_m=-math.inf),
         "frequency_mhz must be finite"),
        (RadioLink, dict(bs_height_m=10**400), "bs_height_m must be finite"),
        (WiGeometry, dict(orientation_deg=-(10**400)), "orientation_deg must be finite"),
        (RadioLink, {name: 1e308 for name, _ in _NUMBER_FIELDS[RadioLink][0]},
         "frequency 1e+308 MHz has no finite, nonzero wavelength"),
        (WiGeometry, {name: 1e308 for name, _ in _NUMBER_FIELDS[WiGeometry][0]},
         "street orientation must lie in [0, 90] degrees"),
        (RadioLink, dict(frequency_mhz=Fraction(-1, 2)), "frequency must be positive"),
        (WiGeometry, dict(roof_height_m=0), "roof height must be positive"),
        (WiGeometry, dict(orientation_deg=True, street_width_m=-1.0),
         "street width and building separation must be positive"),
    ])
    def test_first_failure(self, cls, changes, message):
        with pytest.raises(DomainError) as caught:
            cls(**_valid(cls, **changes))
        assert str(caught.value) == message

    @pytest.mark.parametrize("cls, changes", [
        (RadioLink, dict(frequency_mhz="1900")), (WiGeometry, dict(los=None)),
        (WiGeometry, dict(los="yes"))])
    def test_a_value_that_is_no_number_is_a_type_error(self, cls, changes):
        with pytest.raises(TypeError, match="must be real number"):
            cls(**_valid(cls, **changes))


class _Impostor:
    """Equal to every member, and hashed like ``Environment.URBAN``."""

    def __eq__(self, other):
        return True

    def __hash__(self):
        return hash(Environment.URBAN)

    def __repr__(self):
        return "<impostor>"


class TestEvaluate:
    def test_wi_rural_is_los(self):
        s = default_scenario(Environment.RURAL)
        result = evaluate(ModelId.WALFISCH_IKEGAMI, s)
        assert result.total_db == pytest.approx(126.38829213179307, abs=1e-9)
        assert result == wi_los(s.link)(s.link.distance_m)

    def test_wi_urban_is_nlos(self):
        s = default_scenario(Environment.URBAN)
        assert evaluate(ModelId.WALFISCH_IKEGAMI, s) == wi_nlos(
            s.wi_geometry, s.link, s.mode)(s.link.distance_m)

    def test_okumura_requires_curves(self):
        s = default_scenario(Environment.URBAN)
        with pytest.raises(DomainError, match="curve table required"):
            evaluate(ModelId.OKUMURA, s)

    def test_unknown_model_refused(self):
        with pytest.raises(DomainError, match="^unknown model 'sui'$"):
            scenario_module.bind("sui", default_scenario(Environment.URBAN))

    @pytest.mark.parametrize("defaults", [{}, dict(orientation_deg=30.0, metro_factor_k=1.5,
                                                   shadow_margin_db=10.6)])
    def test_unknown_environment_refused(self, defaults):
        with pytest.raises(DomainError, match="^unknown environment 'urban'$"):
            default_scenario("urban", **defaults)

    # Before, the strings gave a silently wrong loss (Hata's "urban" the
    # suburban 157.25 dB, "as_printed" the corrected formulas), a bare
    # KeyError (sui), an AttributeError (okumura's first point, garea_lookup,
    # compare) or a TypeError (an unhashable environment).
    @pytest.mark.parametrize("call, message", [
        (lambda link, t: sui(link, "urban"), "unknown environment 'urban'"),
        (lambda link, t: okumura(link, "urban", t), "unknown environment 'urban'"),
        (lambda link, t: cost231_hata(link, "urban"), "unknown environment 'urban'"),
        (lambda link, t: cost231_hata(link, Environment.SUBURBAN, "as_printed"),
         "unknown mode 'as_printed'"),
        (lambda link, t: wi_nlos(WiGeometry(), link, "as_printed"), "unknown mode 'as_printed'"),
        (lambda link, t: ericsson(link, EricssonCoefficients(), "as_printed"),
         "unknown mode 'as_printed'"),
        (lambda link, t: garea_lookup(t, 1900.0, "urban"), "unknown environment 'urban'"),
        (lambda link, t: default_scenario(Environment.URBAN, mode="as_printed"),
         "unknown mode 'as_printed'"),
        (lambda link, t: default_scenario(["urban"]), "unknown environment ['urban']"),
        (lambda link, t: scenario_module.bind(ModelId.SUI, dataclasses.replace(
            default_scenario(Environment.URBAN), environment="urban")),
         "unknown environment 'urban'"),
        (lambda link, t: compare_against_reference((), 0.5, t, "as_printed"),
         "unknown mode 'as_printed'"),
        # before, an AttributeError: 'str' object has no attribute 'value'
        (lambda link, t: load_reference_rows()[0].printed("urban"),
         "unknown environment 'urban'"),
        # a table lookup alone raises TypeError for the list, and takes the
        # impostor for Environment.URBAN
        (lambda link, t: sui(link, ["urban"]), "unknown environment ['urban']"),
        (lambda link, t: sui(link, _Impostor()), "unknown environment <impostor>"),
        (lambda link, t: default_scenario(_Impostor()), "unknown environment <impostor>"),
    ], ids=["sui", "okumura", "cost231_hata-environment", "cost231_hata-mode", "wi_nlos",
            "ericsson", "garea_lookup", "default_scenario-mode",
            "default_scenario-unhashable-environment", "bind", "compare_against_reference",
            "ReferenceRow.printed", "sui-unhashable-environment", "sui-impostor",
            "default_scenario-impostor"])
    def test_enum_argument_refuses_a_non_member(self, call, message, bundled_curves):
        link = RadioLink(1900.0, 5000.0, 30.0, 3.0)
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            call(link, bundled_curves)

    def test_shadow_margin_only_on_request(self):
        s = default_scenario(Environment.URBAN)
        base = evaluate(ModelId.SUI, s)
        assert all(label != "shadow_margin" for label, _ in base.components)
        with_margin = evaluate(ModelId.SUI, default_scenario(
            Environment.URBAN, apply_shadow_margin=True))
        assert with_margin.component("shadow_margin") == 10.6
        assert with_margin.total_db == pytest.approx(base.total_db + 10.6, abs=1e-9)

    def test_all_models_run_at_defaults(self, bundled_curves):
        s = default_scenario(Environment.SUBURBAN)
        for model in ModelId:
            result = evaluate(model, s, bundled_curves)
            assert result.total_db > 0

    def test_wi_rural_los_below_nlos_environments(self):
        # the only qualitative ordering of the printed comparison that the
        # formulas themselves reproduce
        rural = evaluate(ModelId.WALFISCH_IKEGAMI, default_scenario(Environment.RURAL))
        suburban = evaluate(ModelId.WALFISCH_IKEGAMI, default_scenario(Environment.SUBURBAN))
        urban = evaluate(ModelId.WALFISCH_IKEGAMI, default_scenario(Environment.URBAN))
        assert rural.total_db < suburban.total_db
        assert rural.total_db < urban.total_db


class TestSweep:
    def test_endpoints_only(self):
        s = default_scenario(Environment.RURAL)
        points = tuple(iter_sweep(ModelId.WALFISCH_IKEGAMI, s, 1000.0, 5000.0, steps=2))
        assert [d for d, _ in points] == [1000.0, 5000.0]
        assert points[0][1].total_db == pytest.approx(108.21507201905658, abs=1e-9)
        assert points[1][1].total_db == pytest.approx(126.38829213179307, abs=1e-9)

    def test_degenerate_span(self):
        s = default_scenario(Environment.RURAL)
        points = tuple(iter_sweep(ModelId.WALFISCH_IKEGAMI, s, 4999.99, 5000.0, steps=2))
        distances = [d for d, _ in points]
        assert distances == sorted(distances)
        assert distances[0] < distances[1]

    def test_precondition_violation_names_distance(self):
        s = default_scenario(Environment.URBAN)
        with pytest.raises(DomainError, match="50.00 m"):
            next(iter_sweep(ModelId.SUI, s, 50.0, 5000.0, steps=4))

    def test_log_spacing_default(self):
        s = default_scenario(Environment.RURAL)
        points = tuple(iter_sweep(ModelId.WALFISCH_IKEGAMI, s, 1000.0, 4000.0, steps=3))
        assert points[1][0] == pytest.approx(2000.0, rel=1e-12)

    def test_linear_spacing(self):
        s = default_scenario(Environment.RURAL)
        points = tuple(iter_sweep(ModelId.WALFISCH_IKEGAMI, s, 1000.0, 4000.0, steps=3,
                                  spacing="linear"))
        assert points[1][0] == pytest.approx(2500.0, rel=1e-12)

    def test_invalid_parameters(self):
        s = default_scenario(Environment.RURAL)
        with pytest.raises(DomainError):
            next(iter_sweep(ModelId.WALFISCH_IKEGAMI, s, 5000.0, 1000.0, steps=2))
        with pytest.raises(DomainError):
            next(iter_sweep(ModelId.WALFISCH_IKEGAMI, s, 1000.0, 5000.0, steps=1))
        with pytest.raises(DomainError,
                           match=r"^unknown spacing 'cubic' \(expected log or linear\)$"):
            flat_distances(1, 2, 3, "cubic")

    @pytest.mark.parametrize("d_min", [0.0, -1000.0, float("-inf")])
    def test_log_spacing_needs_positive_start(self, d_min):
        s = default_scenario(Environment.RURAL)
        with pytest.raises(DomainError, match="log spacing requires d_min > 0"):
            next(iter_sweep(ModelId.WALFISCH_IKEGAMI, s, d_min, 5000.0, steps=3))
        with pytest.raises(DomainError, match="bracket requires d_min > 0"):
            invert_cell_range(ModelId.WALFISCH_IKEGAMI, s, 120.0, d_min, 5000.0)

    def test_iter_sweep_yields_the_points_before_a_failure(self, bundled_curves):
        s = default_scenario(Environment.URBAN)
        seen = []
        with pytest.raises(DomainError, match="sweep aborted at 100071.35 m: distance 100.071 km"):
            for point in iter_sweep(ModelId.OKUMURA, s, 50_000.0, 150_000.0, 20,
                                    bundled_curves):
                seen.append(point)
        assert len(seen) == 12
        fresh = default_scenario(Environment.URBAN, distance_m=50_000.0)
        assert seen[0][1] == evaluate(ModelId.OKUMURA, fresh, bundled_curves)

    def test_default_range(self):
        s = default_scenario(Environment.RURAL)
        points = tuple(iter_sweep(ModelId.WALFISCH_IKEGAMI, s))
        assert (points[0][0], points[-1][0], len(points)) == (1000.0, 5000.0, 50)
        # the default bracket reaches past the default sweep end, to 10 km
        far = invert_cell_range(ModelId.WALFISCH_IKEGAMI, s, points[-1][1].total_db + 5.0)
        assert 5000.0 < far < 10000.0

    @pytest.mark.parametrize("steps", [10.0, "10", math.nan])
    def test_steps_must_be_an_integer(self, steps, monkeypatch):
        def no_binding(*args):
            raise AssertionError("a point was computed")
        monkeypatch.setattr(scenario_module, "bind", no_binding)
        s = default_scenario(Environment.URBAN)
        calls = [lambda: next(iter_sweep(ModelId.SUI, s, 1000.0, 5000.0, steps)),
                 lambda: next(scenario_module._sweep_totals(ModelId.SUI, s, 1000.0, 5000.0,
                                                            steps, None, "log")),
                 lambda: flat_distances(1000.0, 5000.0, steps)]
        for call in calls:
            with pytest.raises(DomainError, match=f"^sweep steps must be an integer, "
                                                  f"got {re.escape(repr(steps))}$"):
                call()

    def test_steps_have_a_maximum(self, monkeypatch):
        # no list can hold more than sys.maxsize points; a larger sweep ran until killed
        def no_binding(*args):
            raise AssertionError("a point was computed")
        monkeypatch.setattr(scenario_module, "bind", no_binding)
        s = default_scenario(Environment.URBAN)
        message = f"^sweep steps must be at most {sys.maxsize}$"
        for spacing in ("log", "linear"):
            with pytest.raises(DomainError, match=message):
                scenario_module._distance_chunks(200.0, 300.0, 10**20, spacing)
            with pytest.raises(DomainError, match=message):
                scenario_module._distance_chunks(200.0, 300.0, sys.maxsize + 1, spacing)
        with pytest.raises(DomainError, match=message):
            next(iter_sweep(ModelId.SUI, s, 200.0, 300.0, 10**20))
        # with no binding, a CLI sweep that is not refused fails fast here
        code, out, err = invoke_cli(["sweep", "--model", "sui", "--d-min-m", "200", "--d-max-m",
                                     "300", "--steps", "99999999999999999999"])
        assert (code, out, err) == (1, "", f"error: sweep steps must be at most {sys.maxsize}\n")
        # the maximum itself is a sweep, computed a chunk at a time
        chunk = next(scenario_module._distance_chunks(200.0, 300.0, sys.maxsize, "log"))
        assert (chunk[0], len(chunk)) == (200.0, scenario_module._SWEEP_CHUNK)

    @pytest.mark.parametrize("d_min, d_max", [(0.01, 1e307), (Fraction(1, 10**10), 10**308)],
                             ids=["floats", "fraction over int"])
    def test_log_ratio_must_not_overflow(self, d_min, d_max):
        with pytest.raises(DomainError, match=r"^log spacing ratio d_max / d_min overflows$"):
            flat_distances(d_min, d_max, 3)
        # two steps are the ends alone, and need no ratio
        assert flat_distances(d_min, d_max, 2) == [d_min, d_max]
        assert flat_distances(0.01, 1e306, 3) == [0.01, 1e152, 1e306]
        assert flat_distances(d_min, d_max, 3, "linear")[1] > 0

    def test_cli_log_ratio_overflow(self):
        argv = ["sweep", "--model", "cost231_hata", "--d-min-m", "0.01", "--steps", "3"]
        code, out, err = invoke_cli(argv + ["--d-max-m", "1e307"])
        assert (code, out, err) == (1, "", "error: log spacing ratio d_max / d_min overflows\n")
        code, out, _ = invoke_cli(argv + ["--d-max-m", "1e306"])
        assert code == 0 and len(out.splitlines()) == 4

    @pytest.mark.parametrize("d_min, d_max, steps", [(1e307, 1.7e308, 4), (-1.7e308, 1.7e308, 3)],
                             ids=["span times index", "span"])
    def test_linear_span_must_not_overflow(self, d_min, d_max, steps):
        with pytest.raises(DomainError, match=r"^linear spacing span \(d_max - d_min\) "
                                              r"\* \(steps - 2\) overflows$"):
            flat_distances(d_min, d_max, steps, "linear")
        # two steps are the ends alone, and need no span
        assert flat_distances(d_min, d_max, 2, "linear") == [d_min, d_max]
        assert flat_distances(1e307, 1.7e308, 3, "linear") == [1e307, 9e307, 1.7e308]
        # exact Fractions never overflow, however large span * (steps - 2) is
        lo, hi = Fraction(10**307), Fraction(17 * 10**307)
        assert flat_distances(lo, hi, 20, "linear") == [lo + (hi - lo) * i / 19 for i in range(20)]

    def test_cli_linear_span_overflow(self):
        argv = ["sweep", "--model", "cost231_hata", "--d-min-m", "1e307", "--d-max-m", "1.7e308",
                "--spacing", "linear", "--steps"]
        code, out, err = invoke_cli(argv + ["4"])
        assert (code, out, err) == (
            1, "", "error: linear spacing span (d_max - d_min) * (steps - 2) overflows\n")
        code, out, _ = invoke_cli(argv + ["3"])
        assert code == 0 and len(out.splitlines()) == 4


def _spelled_distances(d_min, d_max, steps, spacing):
    """A sweep's distances index by index: the ends as given, and between
    them d_min * (d_max / d_min) ** (i / (steps - 1)) for log spacing or
    d_min + (d_max - d_min) * i / (steps - 1) for linear."""
    def distance(i):
        if i == 0:
            return d_min
        if i == steps - 1:
            return d_max
        if spacing == "log":
            return d_min * (d_max / d_min) ** (i / (steps - 1))
        return d_min + (d_max - d_min) * i / (steps - 1)
    return [distance(i) for i in range(steps)]


class TestSweepDistances:
    """``_distance_chunks`` flattened, the points of ``iter_sweep`` (JSON
    sweeps) and the chunks of ``_sweep_totals`` (CSV and table sweeps) are
    the spelled distances hex for hex, on either side of the chunk size."""

    @pytest.mark.parametrize("spacing", ["log", "linear"])
    def test_every_path_gives_the_spelled_floats(self, spacing):
        chunk = scenario_module._SWEEP_CHUNK
        s = default_scenario(Environment.URBAN)
        for d_min, d_max in ((1000.0, 90_000.0), (123.4, 98_765.4)):
            for steps in (2, 3, chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
                expected = [d.hex() for d in _spelled_distances(d_min, d_max, steps, spacing)]
                distances = flat_distances(d_min, d_max, steps, spacing)
                assert [d.hex() for d in distances] == expected, steps
                chunks = [distances for distances, _ in scenario_module._sweep_totals(
                    ModelId.SUI, s, d_min, d_max, steps, None, spacing)]
                assert [len(c) for c in chunks[:-1]] == [chunk] * (len(chunks) - 1)
                assert 0 < len(chunks[-1]) <= chunk
                assert [d.hex() for c in chunks for d in c] == expected, steps
                points = iter_sweep(ModelId.SUI, s, d_min, d_max, steps, spacing=spacing)
                assert [d.hex() for d, _ in points] == expected, steps


# Walfisch-Ikegami geometries: LOS, NLOS with the BS above and below the
# roofs, and a wide street with a high mast whose diffraction sum is negative.
_WI_VARIANTS = [
    dict(wi_los=True),
    dict(wi_los=False),
    dict(wi_los=False, bs_height_m=12.0),
    dict(wi_los=False, frequency_mhz=150.0, bs_height_m=120.0, rx_height_m=1.0,
         roof_height_m=1.5, street_width_m=50.0, building_separation_m=100.0,
         orientation_deg=0.0),
]


@pytest.mark.parametrize("model", list(ModelId), ids=lambda m: m.value)
def test_sweep_points_equal_fresh_evaluation(model, bundled_curves):
    """Binding once must not change a single bit of any point."""
    d_min = 1000.0 if model is ModelId.OKUMURA else 150.0
    variants = _WI_VARIANTS if model is ModelId.WALFISCH_IKEGAMI else [{}]
    seen = set()
    for env in Environment:
        for mode in FidelityMode:
            for margin in (False, True):
                for variant in variants:
                    kwargs = dict(variant, mode=mode, apply_shadow_margin=margin)
                    points = iter_sweep(model, default_scenario(env, **kwargs), d_min,
                                        20_000.0, 41, bundled_curves)
                    for distance, result in points:
                        fresh = default_scenario(env, distance_m=distance, **kwargs)
                        assert result == evaluate(model, fresh, bundled_curves)
                        seen.update(label for label, _ in result.components)
                        seen.update(result.warnings)
    assert "shadow_margin" in seen
    if model is ModelId.WALFISCH_IKEGAMI:
        # all three garbled-branch warnings: the sweep crosses d = 0.5 km
        assert sum(str(item).startswith("garbled branch") for item in seen) == 3
        assert "diffraction_floor" in seen


class TestCompare:
    def test_ledger_shape(self, bundled_curves):
        rows = load_reference_rows()
        assert len(rows) == 19
        ledger = compare_against_reference(rows, 0.5, bundled_curves)
        assert len(ledger.entries) == 57
        assert ledger.summary == "matched 4/57 within 0.50 dB"

    def test_only_wi_rural_matches(self, bundled_curves):
        ledger = compare_against_reference(load_reference_rows(), 0.5, bundled_curves)
        matches = [e for e in ledger.entries if e.verdict == "match"]
        assert len(matches) == 4
        for entry in matches:
            assert entry.row.model is ModelId.WALFISCH_IKEGAMI
            assert entry.environment is Environment.RURAL
            assert abs(entry.delta_db) <= 0.5

    def test_sui_urban_delta(self, bundled_curves):
        ledger = compare_against_reference(load_reference_rows(), 0.5, bundled_curves)
        entry = next(e for e in ledger.entries
                     if e.row.model is ModelId.SUI and e.row.freq_mhz == 1900.0
                     and e.row.bs_m == 30.0 and e.environment is Environment.URBAN)
        assert entry.printed_db == 72.17
        assert entry.computed_db == pytest.approx(199.17828966578986, abs=1e-9)
        assert entry.delta_db == pytest.approx(127.0, abs=0.05)
        assert entry.verdict == "mismatch"

    def test_notes_quote_mode_and_anomalies(self, bundled_curves):
        ledger = compare_against_reference(load_reference_rows(), 0.5, bundled_curves,
                                           FidelityMode.AS_PRINTED)
        assert all("mode=as_printed" in e.notes for e in ledger.entries)
        ericsson = [e for e in ledger.entries if e.row.model is ModelId.ERICSSON9999]
        assert all(any("anomaly" in n for n in e.notes) for e in ericsson)

    def test_empty_reference(self, bundled_curves):
        ledger = compare_against_reference((), 0.5, bundled_curves)
        assert ledger.entries == ()
        assert ledger.summary == "matched 0/0 within 0.50 dB"

    def test_missing_curves_becomes_notes(self):
        ledger = compare_against_reference(load_reference_rows(), 0.5, curves=None)
        assert len(ledger.entries) == 57
        okumura = [e for e in ledger.entries if e.row.model is ModelId.OKUMURA]
        assert all(e.computed_db is None for e in okumura)
        assert all(any("evaluation failed" in n for n in e.notes) for e in okumura)
        assert ledger.matched == 4

    def test_tolerance_must_be_positive(self, bundled_curves):
        with pytest.raises(DomainError):
            compare_against_reference(load_reference_rows(), 0.0, bundled_curves)


def _ledger_groups(curves):
    """The default ledger's entries by (model, BS height), each group in
    ledger order: frequency, then environment."""
    groups = {}
    for entry in compare_against_reference(load_reference_rows(), 0.5, curves).entries:
        groups.setdefault((entry.row.model, entry.row.bs_m), []).append(entry)
    return groups


def _rounded_range(values, digits=2):
    return round(min(values), digits), round(max(values), digits)


class TestLedgerStructure:
    """What the 53 mismatched cells have in common, by model and BS height.
    Every printed cell is at 5 km with the receiver at 3 m."""

    def test_printed_cells_below_free_space(self, bundled_curves):
        entries = [e for group in _ledger_groups(bundled_curves).values() for e in group]
        assert {(e.row.dist_km, e.row.rx_m) for e in entries} == {(5.0, 3.0)}
        free_space = {f: oracle.okumura_free_space(f, 5000.0) for f in (1900.0, 2100.0)}
        assert {f: round(loss, 2) for f, loss in free_space.items()} == \
            {1900.0: 112.00, 2100.0: 112.87}
        below = Counter(e.row.model for e in entries if e.printed_db < free_space[e.row.freq_mhz])
        assert len(entries) == 57 and sum(below.values()) == 20
        assert dict(below) == {ModelId.SUI: 12, ModelId.OKUMURA: 8}
        per_model = Counter(e.row.model for e in entries)
        assert (per_model[ModelId.SUI], per_model[ModelId.OKUMURA]) == (12, 12)

    def test_sui_printed_values_ignore_bs_height(self, bundled_curves):
        groups = _ledger_groups(bundled_curves)
        pairs = list(zip(groups[ModelId.SUI, 30.0], groups[ModelId.SUI, 80.0], strict=True))
        assert len(pairs) == 6
        assert all((low.row.freq_mhz, low.environment) == (high.row.freq_mhz, high.environment)
                   for low, high in pairs)
        assert max(round(abs(low.printed_db - high.printed_db), 2) for low, high in pairs) == 0.04
        moves = [low.computed_db - high.computed_db for low, high in pairs]
        assert _rounded_range(moves, 1) == (10.8, 11.6)

    @pytest.mark.parametrize("model, bs_m, deltas", [
        (ModelId.COST231_HATA, 30.0, (-32.07, -32.06)),
        (ModelId.COST231_HATA, 80.0, (-29.53, -29.53)),
        (ModelId.OKUMURA, 30.0, (34.73, 35.83)),
        (ModelId.OKUMURA, 80.0, (45.83, 47.83)),
    ])
    def test_delta_nearly_flat_per_bs_height(self, model, bs_m, deltas, bundled_curves):
        group = _ledger_groups(bundled_curves)[model, bs_m]
        assert {e.environment for e in group} == set(Environment)
        assert _rounded_range([e.delta_db for e in group]) == deltas

    def test_ericsson_computed_loss_ignores_environment(self, bundled_curves):
        computed = {}
        for e in _ledger_groups(bundled_curves)[ModelId.ERICSSON9999, 30.0]:
            loss = round(e.computed_db, 2)
            computed.setdefault(e.row.freq_mhz, set()).add((e.environment, loss))
        assert computed == {f: {(env, loss) for env in Environment}
                            for f, loss in ((1900.0, 161.96), (2100.0, 162.53))}

    def test_matches_are_the_wi_los_cells(self, bundled_curves):
        matches = [e for group in _ledger_groups(bundled_curves).values() for e in group
                   if e.verdict == "match"]
        assert len(matches) == 4
        for entry in matches:
            assert (entry.row.model, entry.environment) == \
                (ModelId.WALFISCH_IKEGAMI, Environment.RURAL)
            assert default_scenario(entry.environment).wi_geometry.los
            assert abs(entry.delta_db) <= 0.05


def _dip_table(bundled):
    """The bundled A_mu surface on a grid with nodes at 4.5, 5 and 5.5 km, with
    8 dB taken off at 5 km, written as curve CSV and read back through the
    loader: the default urban Okumura loss falls from 160.76 dB at 4.5 km to
    154.31 dB at 5 km."""
    dist_km = (1.0, 2.0, 4.5, 5.0, 5.5) + tuple(d for d in bundled.dist_km if d >= 10.0)
    lines = ["AMU," + ",".join(map(repr, dist_km))]
    for f in bundled.freq_mhz:
        amu_at = amu_at_frequency(bundled, f)
        amu_db = (amu_at(d) - (8.0 if d == 5.0 else 0.0) for d in dist_km)
        lines.append(",".join(map(repr, (f, *amu_db))))
    lines.append("GAREA,freq_mhz,environment,gain_db")
    lines += [f"{f!r},{env.value},{gain!r}"
              for env, rows in bundled.garea.items() for f, gain in rows]
    lines.append("# source: bundled surface with a dip at 5 km")
    return load_curves("\n".join(lines))


_PRINTED_BRANCH_POINTS = (math.nextafter(500.0, 0.0), 500.0, math.nextafter(500.0, math.inf))


# Walfisch-Ikegami NLOS whose floor's kink lies at about 1,075.5 m
_WI_KINK_INSIDE_1_TO_10_KM = default_scenario(
    Environment.RURAL, frequency_mhz=150.0, bs_height_m=616.0603389, roof_height_m=25.0,
    wi_los=False)


def _wi_below_roofs(mode):
    """Urban Walfisch-Ikegami NLOS with the BS 15 m below the roofs."""
    return default_scenario(Environment.URBAN, bs_height_m=10.0, roof_height_m=25.0, mode=mode)


def _record_evaluations(monkeypatch):
    """Make every later binding record each (distance, loss) its ``at.loss``
    evaluates; the inversion reads the loss through nothing else."""
    seen = []
    bind = scenario_module.bind

    def recording_bind(*args):
        at = bind(*args)
        loss = at.loss

        def recorded(d):
            value = loss(d)
            seen.append((d, value))
            return value
        at.loss = recorded
        return at
    monkeypatch.setattr(scenario_module, "bind", recording_bind)
    return seen


class TestInvertCellRange:
    def test_round_trip_wi_los(self):
        s = default_scenario(Environment.RURAL)
        target = evaluate(ModelId.WALFISCH_IKEGAMI, s).total_db
        distance = invert_cell_range(ModelId.WALFISCH_IKEGAMI, s, target,
                                     1000.0, 10000.0)
        assert distance == pytest.approx(5000.0, abs=0.01)

    def test_bracket_violation(self):
        s = default_scenario(Environment.RURAL)
        low = evaluate(ModelId.WALFISCH_IKEGAMI, s).total_db
        with pytest.raises(BoundsError, match="outside bracket"):
            invert_cell_range(ModelId.WALFISCH_IKEGAMI, s, low - 50.0, 1000.0, 10000.0)

    def test_upper_boundary_fixed_point(self):
        s = default_scenario(Environment.RURAL)
        at_top = dataclasses.replace(s, link=dataclasses.replace(s.link, distance_m=10000.0))
        top = evaluate(ModelId.WALFISCH_IKEGAMI, at_top).total_db
        assert invert_cell_range(ModelId.WALFISCH_IKEGAMI, s, top, 1000.0, 10000.0) == 10000.0

    def test_secondary_stop_once_the_bracket_is_a_millimetre(self, monkeypatch):
        # 5e-7 dB above PL(d_min) is within 1e-6 dB of the target only at d_min,
        # so every midpoint lands above it and the bracket width ends the loop
        s = default_scenario(Environment.RURAL)
        at = scenario_module.bind(ModelId.WALFISCH_IKEGAMI, s)
        target = at.loss(1000.0) + 5e-7
        plain, midpoints = plain_bisection(at.loss, at.branch_points, target, 1000.0, 10000.0)
        before_last, last = midpoints[-2:]
        assert plain == 1000.0
        assert last - 1000.0 <= 1e-3 < before_last - 1000.0
        assert invert_cell_range(ModelId.WALFISCH_IKEGAMI, s, target, 1000.0, 10000.0) == plain

    def test_widest_bracket_that_resolves(self):
        assert invert_cell_range(ModelId.SUI, default_scenario(Environment.URBAN), 150.0,
                                 200.0, 1e20) == 471.36131487751226

    @pytest.mark.parametrize("d_max_m, unresolved", [
        (1e60, "[471.323, 471.946]"), (1e62, "[448.921, 511.151]"),
        (1e100, "[200, 6.22302e+39]"), (1e308, "[200, 6.22302e+247]")])
    def test_bracket_too_wide_to_resolve_is_refused(self, d_max_m, unresolved):
        # 200 halvings leave a float between lo and hi; lo was returned: 471.3235 m
        # (1.7e-3 dB under the target), 448.92 m (1.0 dB) and twice 200 m (17.85 dB)
        s = default_scenario(Environment.URBAN)
        message = (f"bracket [200, {d_max_m:g}] m too wide: 200 bisection steps left "
                   f"{unresolved} m unresolved")
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            invert_cell_range(ModelId.SUI, s, 150.0, 200.0, d_max_m)
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            plain_bisection(scenario_module.bind(ModelId.SUI, s).loss, (), 150.0, 200.0,
                            d_max_m)

    def test_step_between_adjacent_floats_still_returns_lo(self):
        # A_mu rises 50 dB between adjacent floats in km, so no distance lies
        # within 1e-6 dB of a target inside the step: 200 halvings end with lo
        # and hi adjacent, and lo is returned as before
        past_step_km = math.nextafter(1.0, 2.0)
        table = load_curves(
            f"AMU,0.5,1,{past_step_km!r},100\n100,0,0,50,50\n3000,0,0,50,50\n\n"
            "GAREA,freq_mhz,environment,gain_db\n100,urban,0\n3000,urban,0\n# source: step\n")
        s = default_scenario(Environment.URBAN)
        at = scenario_module.bind(ModelId.OKUMURA, s, table)
        target = at.loss(1000.0) + 25.0
        plain, midpoints = plain_bisection(at.loss, at.branch_points, target, 600.0, 50_000.0)
        assert len(midpoints) == 200
        assert at.loss(plain) < target < at.loss(math.nextafter(plain, math.inf))
        assert invert_cell_range(ModelId.OKUMURA, s, target, 600.0, 50_000.0, table) == plain

    def test_non_monotone_detected(self):
        # a very tall SUI mast drives the distance exponent negative
        s = default_scenario(Environment.URBAN, bs_height_m=800.0)
        with pytest.raises(DomainError, match="monotone"):
            invert_cell_range(ModelId.SUI, s, 150.0, 200.0, 5000.0)

    def test_dip_between_grid_nodes_detected(self, bundled_curves):
        # 17 log-spaced samples over 1-100 km all rise on this table, so a
        # sampled check passes it; the largest distance within 155 dB is
        # about 5034 m
        table = _dip_table(bundled_curves)
        s = default_scenario(Environment.URBAN)
        with pytest.raises(DomainError, match=r"PL\(4500.00 m\) = 160.7580 dB > "
                                              r"PL\(5000.00 m\) = 154.3130 dB"):
            invert_cell_range(ModelId.OKUMURA, s, 155.0, 1000.0, 100_000.0, table)

    def test_as_printed_wi_drop_above_500_m_detected(self):
        # below the roofs the printed k_A and k_D switch just above 500 m and
        # the loss drops about 1.8 dB; the corrected k_A is continuous there
        def scenario(mode):
            return default_scenario(Environment.SUBURBAN, bs_height_m=18.6,
                                    roof_height_m=19.9, mode=mode)
        at = scenario_module.bind(ModelId.WALFISCH_IKEGAMI, scenario(FidelityMode.AS_PRINTED))
        drop = at(500.0).total_db - at(_PRINTED_BRANCH_POINTS[2]).total_db
        assert drop == pytest.approx(1.8, abs=0.05)
        target = evaluate(ModelId.WALFISCH_IKEGAMI, scenario(FidelityMode.CORRECTED)).total_db
        with pytest.raises(DomainError, match=r"PL\(500.00 m\) = .* > PL\(500.00 m\)"):
            invert_cell_range(ModelId.WALFISCH_IKEGAMI, scenario(FidelityMode.AS_PRINTED),
                              target, 500.0, 8000.0)
        distance = invert_cell_range(ModelId.WALFISCH_IKEGAMI, scenario(FidelityMode.CORRECTED),
                                     target, 500.0, 8000.0)
        assert distance == pytest.approx(5000.0, abs=0.01)

    def test_every_binder_exposes_branch_points(self, bundled_curves):
        table = _dip_table(bundled_curves)
        link, at_roof = RadioLink(1900.0, 5000.0, 30.0, 3.0), RadioLink(1900.0, 5000.0, 40.0, 3.0)
        above, below = WiGeometry(roof_height_m=15.0), WiGeometry(roof_height_m=40.0)
        nodes = (1000.0, 2000.0, 4500.0, 5000.0, 5500.0, 10000.0, 20000.0, 30000.0,
                 50000.0, 70000.0, 100000.0)
        for env in Environment:
            assert sui(link, env).branch_points == ()
            assert okumura(link, env, table).branch_points == nodes
        assert wi_los(link).branch_points == ()
        for mode in FidelityMode:
            printed = mode is FidelityMode.AS_PRINTED
            for env in Environment:
                assert cost231_hata(link, env, mode).branch_points == ()
            assert ericsson(link, EricssonCoefficients(), mode).branch_points == ()
            assert wi_nlos(above, link, mode).branch_points == ()
            for bs_at_or_below_roofs in (link, at_roof):
                assert wi_nlos(below, bs_at_or_below_roofs, mode).branch_points == \
                    (_PRINTED_BRANCH_POINTS if printed else ())
        # the shadow-margin wrapper passes them on
        s = default_scenario(Environment.URBAN, apply_shadow_margin=True)
        assert scenario_module.bind(ModelId.OKUMURA, s, table).branch_points == nodes

    def test_affine_from_declared_by_every_model(self, bundled_curves):
        link = RadioLink(1900.0, 5000.0, 30.0, 3.0)
        for mode in FidelityMode:
            assert cost231_hata(link, Environment.URBAN, mode).affine_from_m == 1.0
            assert ericsson(link, EricssonCoefficients(), mode).affine_from_m == 1.0
        assert sui(link, Environment.URBAN).affine_from_m == 1.0
        assert wi_los(link).affine_from_m == 1.0
        assert okumura(link, Environment.URBAN, bundled_curves).affine_from_m == 1.0
        # WI NLOS below the roofs: from 500 m, where k_A stops being linear in
        # d, or from the first distance past the printed branches there
        below = WiGeometry(roof_height_m=40.0)
        assert wi_nlos(below, link).affine_from_m == 500.0
        assert wi_nlos(below, link, FidelityMode.AS_PRINTED).affine_from_m == \
            _PRINTED_BRANCH_POINTS[2]
        # above the roofs: from a relative 1e-9 past the floor's kink, here at
        # about 14.3 m (corrected) and 69.8 m (as printed, where k_d is steeper)
        for mode, kink_m in ((FidelityMode.CORRECTED, 14.278), (FidelityMode.AS_PRINTED, 69.838)):
            affine_from_m = wi_nlos(WiGeometry(), link, mode).affine_from_m
            assert affine_from_m == pytest.approx(kink_m, abs=1e-3)
        # a kink inside 1-10 km: the floor fires a relative 2e-9 before the
        # declared distance and not at it
        at = scenario_module.bind(ModelId.WALFISCH_IKEGAMI, _WI_KINK_INSIDE_1_TO_10_KM)
        assert at.affine_from_m == pytest.approx(1075.4968, abs=1e-4)
        labels = [label for label, _ in at(at.affine_from_m * (1.0 - 2e-9)).components]
        assert labels[-1] == "diffraction_floor"
        assert [label for label, _ in at(at.affine_from_m).components][-1] == "multiscreen"
        # the shadow-margin wrapper passes it on
        for env in (Environment.URBAN, Environment.RURAL):  # WI NLOS, then LOS
            unwrapped = scenario_module.bind(ModelId.WALFISCH_IKEGAMI, default_scenario(env))
            s = default_scenario(env, apply_shadow_margin=True)
            assert scenario_module.bind(ModelId.WALFISCH_IKEGAMI, s).affine_from_m == \
                unwrapped.affine_from_m

    def test_affine_only_while_terms_are_moderate(self, bundled_curves):
        # past 1e4 dB, a term rounds the loss too coarsely for its chord
        link = RadioLink(1900.0, 5000.0, 30.0, 3.0)
        assert ericsson(link, EricssonCoefficients(a0=1e4)).affine_from_m == 1.0
        assert ericsson(link, EricssonCoefficients(a0=1.0001e4)).affine_from_m == math.inf
        assert ericsson(link, EricssonCoefficients(a3=1e5)).affine_from_m == math.inf
        # SUI's slope 10*gamma holds c/h_b: 126,000 dB per decade at h_b = 1 mm
        assert sui(RadioLink(1900.0, 5000.0, 0.001, 0.0005),
                   Environment.URBAN).affine_from_m == math.inf
        # the misprinted suburban a(h_r) holds 1.58*f: about 3000 dB, and 1e4 dB
        # beyond 6300 MHz
        for freq, affine_from_m in ((1900.0, 1.0), (6400.0, math.inf)):
            at = cost231_hata(dataclasses.replace(link, frequency_mhz=freq),
                              Environment.SUBURBAN, FidelityMode.AS_PRINTED)
            assert at.affine_from_m == affine_from_m
        for margin_db, affine_from_m in ((-1e4, 1.0), (1.5e4, math.inf)):
            s = default_scenario(Environment.RURAL, apply_shadow_margin=True,
                                 shadow_margin_db=margin_db)
            assert scenario_module.bind(ModelId.WALFISCH_IKEGAMI, s).affine_from_m == \
                affine_from_m
        # A_mu climbs 11,300 dB per decade from 1 to 1.5 km on this table
        assert okumura(link, Environment.URBAN, bundled_curves).affine_from_m == 1.0
        steep = load_curves("AMU,1,1.5,100\n100,10,2000,2100\n3000,10,2000,2100\n"
                            "GAREA,freq_mhz,environment,gain_db\n100,urban,0\n"
                            "# source: steep\n")
        assert okumura(link, Environment.URBAN, steep).affine_from_m == math.inf
        # WI NLOS at 3500 MHz: metro k = 1e300 makes k_F*log f about 9.9e300 dB
        # and 1e308 makes it inf; -1000 keeps it at -9,880 dB, but puts the
        # floor's kink at 10**544 km, past every float.  Each binds without
        # raising, and evaluates to a finite total or to DomainError.
        for metro_k, evaluated in ((1e300, (9.865919150488606e+300, "multiscreen")),
                                   (1e308, None),
                                   (-1e3, (117.31076097372716, "diffraction_floor"))):
            s = default_scenario(Environment.URBAN, frequency_mhz=3500.0, metro_factor_k=metro_k)
            at = scenario_module.bind(ModelId.WALFISCH_IKEGAMI, s)
            assert at.affine_from_m == math.inf
            if evaluated is None:
                with pytest.raises(DomainError, match="path-loss total must be finite"):
                    at(5000.0)
                continue
            result = at(5000.0)
            assert (result.total_db, result.components[-1][0]) == evaluated
            assert at.loss(5000.0) == result.total_db

    def test_moderate_bounds(self):
        limit = 1e4
        assert _moderate() and _moderate(limit, -limit) and _moderate(0.0, -0.0, limit)
        for bad in (math.nextafter(limit, math.inf), math.nextafter(-limit, -math.inf),
                    math.nan, math.inf, -math.inf):
            assert not _moderate(bad)
            assert not _moderate(1.0, bad, limit)
            assert not _moderate(bad, math.nan)

    # urban Walfisch-Ikegami is NLOS above the roofs; then NLOS below them
    @pytest.mark.parametrize("model, s", [
        *(pytest.param(model, default_scenario(Environment.URBAN), id=str(model))
          for model in ModelId),
        *(pytest.param(ModelId.WALFISCH_IKEGAMI, _wi_below_roofs(mode),
                       id=f"wi_nlos_below-{mode.value}") for mode in FidelityMode)])
    @pytest.mark.parametrize("distance_m", [1000.5, 3210.0, 9999.0])
    def test_no_distance_evaluated_twice(self, model, s, distance_m, bundled_curves, monkeypatch):
        at = scenario_module.bind(model, s, bundled_curves)
        target = at.loss(distance_m)
        plain, midpoints = plain_bisection(at.loss, at.branch_points, target, 1000.0, 10000.0)
        seen = _record_evaluations(monkeypatch)
        found = invert_cell_range(model, s, target, 1000.0, 10000.0, bundled_curves)
        # d_min, the branch points inside the bracket and d_max come first;
        # every later evaluation is one of plain bisection's midpoints, in
        # order, and the others are decided without one
        checked = checked_points(at.branch_points, 1000.0, 10000.0)
        assert [d for d, _ in seen[:len(checked)]] == checked
        steps = iter(midpoints)
        assert all(d in steps for d, _ in seen[len(checked):])
        assert found == plain
        assert len(seen) == len({d for d, _ in seen})

    @pytest.mark.parametrize("d_min, d_max", [(1000.0, 10000.0), (2000.0, 50000.0)])
    def test_okumura_bracket_ends_on_grid_nodes(self, d_min, d_max, bundled_curves, monkeypatch):
        # Both ends are nodes of the bundled grid, so they are checked once,
        # as ends, and only the nodes strictly between them come in between
        s = default_scenario(Environment.SUBURBAN)
        at = scenario_module.bind(ModelId.OKUMURA, s, bundled_curves)
        checked = checked_points(at.branch_points, d_min, d_max)
        assert d_min in at.branch_points and d_max in at.branch_points and len(checked) > 3
        target = at.loss(math.sqrt(d_min * d_max))
        seen = _record_evaluations(monkeypatch)
        found = invert_cell_range(ModelId.OKUMURA, s, target, d_min, d_max, bundled_curves)
        assert [d for d, _ in seen[:len(checked)]] == checked
        assert found == plain_bisection(at.loss, at.branch_points, target, d_min, d_max)[0]

    # Printed Walfisch-Ikegami NLOS below the roofs has three branch points,
    # the last distance under 500 m, 500 m and the first over it; the loss
    # falls about 42 dB at 500 m and 21 dB just past it
    @pytest.mark.parametrize("d_min, d_max, refusal", [
        (math.nextafter(500.0, 0.0), 8000.0,
         "PL(500.00 m) = 202.9605 dB > PL(500.00 m) = 160.9605 dB"),
        (500.0, 8000.0, "PL(500.00 m) = 160.9605 dB > PL(500.00 m) = 139.6698 dB"),
        (math.nextafter(500.0, math.inf), 8000.0, None),
        (300.0, math.nextafter(500.0, 0.0), None),
        (300.0, 500.0, "PL(500.00 m) = 202.9605 dB > PL(500.00 m) = 160.9605 dB"),
        (300.0, math.nextafter(500.0, math.inf),
         "PL(500.00 m) = 202.9605 dB > PL(500.00 m) = 160.9605 dB"),
        (500.0, math.nextafter(500.0, math.inf),
         "PL(500.00 m) = 160.9605 dB > PL(500.00 m) = 139.6698 dB"),
    ], ids=["below-8000", "500-8000", "above-8000", "300-below", "300-500", "300-above",
            "500-above"])
    def test_wi_nlos_bracket_ends_on_branch_points(self, d_min, d_max, refusal, monkeypatch):
        s = _wi_below_roofs(FidelityMode.AS_PRINTED)
        at = scenario_module.bind(ModelId.WALFISCH_IKEGAMI, s)
        assert at.branch_points == (
            math.nextafter(500.0, 0.0), 500.0, math.nextafter(500.0, math.inf))
        checked = checked_points(at.branch_points, d_min, d_max)
        target = 0.5 * (at.loss(d_min) + at.loss(d_max))
        seen = _record_evaluations(monkeypatch)
        if refusal is None:
            found = invert_cell_range(ModelId.WALFISCH_IKEGAMI, s, target, d_min, d_max)
            assert found == plain_bisection(at.loss, at.branch_points, target, d_min, d_max)[0]
        else:
            with pytest.raises(DomainError) as refused:
                invert_cell_range(ModelId.WALFISCH_IKEGAMI, s, target, d_min, d_max)
            assert str(refused.value) == \
                f"loss is not monotone increasing over the bracket: {refusal}"
            assert len(seen) == len(checked)
        assert [d for d, _ in seen[:len(checked)]] == checked

    def test_chord_regions_order_on_the_equivalence_grid(self, bundled_curves, monkeypatch):
        # The bisection loop tests mid < below and mid > above before the
        # stop region; that order changes no step only while below <=
        # stop_from and stop_to <= above
        from test_equivalence import inversion_lines
        regions, chord_regions = [], scenario_module._chord_regions

        def recorded(*args):
            regions.append(chord_regions(*args))
            return regions[-1]
        monkeypatch.setattr(scenario_module, "_chord_regions", recorded)
        for _ in inversion_lines(bundled_curves):
            pass
        decided = [r for r in regions if r != scenario_module._UNDECIDED]
        assert len(decided) > 100 and len(regions) > len(decided)
        for below, stop_from, stop_to, above in regions:
            assert below <= stop_from and stop_to <= above

    def test_chord_regions_order_on_random_pieces(self):
        # Pieces from flat to steep, with targets at every depth into them:
        # near either end the stop levels' crossings clamp to the piece's end
        rng = random.Random(20261021)
        undecided = clamped = 0
        for _ in range(20_000):
            a = 10.0 ** rng.uniform(-1.0, 6.0)
            b = a * 10.0 ** rng.uniform(1e-9, 3.0)
            v_a = rng.uniform(-2e4, 2e4)
            v_b = v_a + 10.0 ** rng.uniform(-9.0, 3.0)
            if not v_a < v_b:
                continue
            depth = 10.0 ** rng.uniform(-10.0, 1.0)
            target = rng.choice((v_a + depth, v_b - depth, rng.uniform(v_a, v_b)))
            if not v_a < target < v_b:
                continue
            affine_from_m = rng.choice((1.0, a, b))
            below, stop_from, stop_to, above = scenario_module._chord_regions(
                [a, b], [v_a, v_b], target, affine_from_m)
            assert below <= stop_from and stop_to <= above
            undecided += (below, stop_from, stop_to, above) == scenario_module._UNDECIDED
            clamped += stop_from in (a * (1.0 + 1e-12), b * (1.0 + 1e-12)) \
                or stop_to in (a * (1.0 - 1e-12), b * (1.0 - 1e-12))
        assert undecided > 1000 and clamped > 1000

    @pytest.mark.parametrize("model, s, d_min, d_max", [
        (ModelId.SUI, default_scenario(Environment.URBAN), 1000.0, 10000.0),
        (ModelId.COST231_HATA, default_scenario(Environment.URBAN), 1000.0, 10000.0),
        (ModelId.WALFISCH_IKEGAMI, default_scenario(Environment.RURAL), 1000.0, 10000.0),
        (ModelId.ERICSSON9999, default_scenario(Environment.URBAN), 1000.0, 10000.0),
        (ModelId.WALFISCH_IKEGAMI, default_scenario(Environment.URBAN), 1000.0, 10000.0),
        (ModelId.WALFISCH_IKEGAMI, _wi_below_roofs(FidelityMode.CORRECTED), 600.0, 8000.0)],
        ids=["sui", "cost231_hata", "wi_los", "ericsson9999", "wi_nlos", "wi_nlos_below"])
    @pytest.mark.parametrize("share", [1e-4, 0.5, 0.9999])
    def test_closed_forms_evaluate_only_the_checked_points(self, model, s, d_min, d_max, share,
                                                           monkeypatch):
        # affine in log d over the whole bracket, which holds no branch point
        # (rural Walfisch-Ikegami is LOS; urban NLOS has its floor's kink
        # under 15 m, and below the roofs k_A is constant from 500 m): the
        # chord through PL(d_min) and PL(d_max) decides every midpoint
        at = scenario_module.bind(model, s)
        assert at.affine_from_m <= d_min and at.branch_points == ()
        target = at.loss(d_min * (d_max / d_min) ** share)
        seen = _record_evaluations(monkeypatch)
        found = invert_cell_range(model, s, target, d_min, d_max)
        assert [d for d, _ in seen] == [d_min, d_max]
        assert found == plain_bisection(at.loss, (), target, d_min, d_max)[0]

    def test_wi_nlos_evaluation_count(self, monkeypatch):
        # The at.loss evaluations of a fixed set of WI NLOS inversions, pinned
        # so that a fall-back to plain bisection fails here: 2 for each
        # bracket that starts at or beyond its affine_from_m, and plain
        # bisection's count for the one that holds the floor's kink
        cases = [(default_scenario(env, mode=mode, wi_los=False), 1000.0, 10000.0)
                 for env in Environment for mode in FidelityMode]
        cases += [(_wi_below_roofs(mode), 600.0, 8000.0) for mode in FidelityMode]
        cases.append((_WI_KINK_INSIDE_1_TO_10_KM, 1000.0, 10000.0))
        inversions = []
        for s, d_min, d_max in cases:
            loss = scenario_module.bind(ModelId.WALFISCH_IKEGAMI, s).loss
            for share in (0.1, 0.5, 0.9):
                target = loss(d_min * (d_max / d_min) ** share)
                plain = plain_bisection(loss, (), target, d_min, d_max)[0]
                inversions.append((s, target, d_min, d_max, plain))
        seen = _record_evaluations(monkeypatch)
        for s, target, d_min, d_max, plain in inversions:
            assert invert_cell_range(ModelId.WALFISCH_IKEGAMI, s, target, d_min, d_max) == plain
        assert len(seen) == 126  # 24 inversions at 2, three over the kink at 26

    def test_okumura_evaluation_count(self, bundled_curves, monkeypatch):
        # The at.loss evaluations of a fixed set of Okumura inversions on the
        # bundled grid, pinned so that neither the bisection loop nor the
        # A_mu lookup adds one.  Targets inside each bracket and 5e-7 dB
        # either side of the loss at its first inner grid node
        inversions = []
        for env in Environment:
            for frequency_mhz in (450.0, 1900.0):
                s = default_scenario(env, frequency_mhz=frequency_mhz)
                at = scenario_module.bind(ModelId.OKUMURA, s, bundled_curves)
                for d_min, d_max in ((1000.0, 10000.0), (1500.0, 40000.0), (3000.0, 100000.0)):
                    node_db = at.loss(next(d for d in at.branch_points if d > d_min))
                    for target in (*(at.loss(d_min * (d_max / d_min) ** share)
                                     for share in (0.1, 0.5, 0.9)),
                                   node_db + 5e-7, node_db - 5e-7):
                        plain = plain_bisection(at.loss, at.branch_points, target, d_min, d_max)[0]
                        inversions.append((s, target, d_min, d_max, plain))
        seen = _record_evaluations(monkeypatch)
        for s, target, d_min, d_max, plain in inversions:
            assert invert_cell_range(ModelId.OKUMURA, s, target, d_min, d_max,
                                     bundled_curves) == plain
        # 570 at the brackets' ends and the grid nodes inside them, 192 at
        # midpoints that close in on a node within 1e-6 dB of the target
        assert len(seen) == 762

    def test_safety_stop_only_on_d_min_loss(self, monkeypatch):
        # The secondary safety stop needs lo's loss within 1e-6 dB under the
        # target.  Here the target is 9e-7 dB over PL(d_min), and the loss
        # dips 2e-7 dB under PL(d_min) up to 5 km, which no model does by
        # more than rounding, then jumps over the target: the first midpoint
        # in the dip replaces d_min's loss, so the stop never fires and the
        # loop runs all its steps up to the last float under 5 km
        base = 120.0

        def loss(d):
            return base if d == 1000.0 else base - 2e-7 if d < 5000.0 else base + 1.0
        bind = scenario_module.bind

        def dipping_bind(*args):
            at = bind(*args)
            at.loss, at.branch_points, at.affine_from_m = loss, (), math.inf
            return at
        target = base + 9e-7
        expected, midpoints = plain_bisection(loss, (), target, 1000.0, 10000.0)
        assert expected == math.nextafter(5000.0, 0.0) and len(midpoints) == 200
        monkeypatch.setattr(scenario_module, "bind", dipping_bind)
        assert invert_cell_range(ModelId.SUI, default_scenario(Environment.URBAN), target,
                                 1000.0, 10000.0) == expected

    # d_min + d_max overflows, so the first midpoint is inf; or a later
    # lo + hi does, once lo has climbed past half the largest float
    @pytest.mark.parametrize("d_min, d_max, d_target", [
        (1e308, 1.7e308, 1.3e308), (1e307, 1.2e308, 1.1e308)])
    def test_overflowing_midpoint_raises_as_plain_bisection(self, d_min, d_max, d_target):
        # the ends lose about 8040 dB, inside the 1e4 dB a chord is trusted for
        s = default_scenario(Environment.RURAL)
        at = scenario_module.bind(ModelId.WALFISCH_IKEGAMI, s)
        assert at.affine_from_m == 1.0
        target = at.loss(d_target)
        with pytest.raises(DomainError, match="distance must be finite"):
            plain_bisection(at.loss, at.branch_points, target, d_min, d_max)
        with pytest.raises(DomainError, match="distance must be finite"):
            invert_cell_range(ModelId.WALFISCH_IKEGAMI, s, target, d_min, d_max)
