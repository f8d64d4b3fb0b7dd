import math
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from ionrabi import Scenario, barrier_eta, parse_scenario, runner, scenario_from_dict
from ionrabi.dynamics import coherent_required_n_max, thermal_required_n_max
from ionrabi.errors import SchemaError
from ionrabi.runner import _barrier_index, auto_n_max, simulate_scenario
from ionrabi.scenario import KHZ

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
GOLDEN_SCENARIOS = ["fig2a", "fig2b", "fig3", "fig4", "fig5", "fig6"]


def _minimal(**overrides):
    doc = {
        "schema_version": 1,
        "name": "test",
        "model": {"kind": "JC", "g": 45.24},
        "initial": {"kind": "fock", "n": 0, "qubit": "down"},
        "times": {"t_end": 1.0, "n_points": 11},
    }
    doc.update(overrides)
    return doc


def _to_yaml(sc: Scenario) -> str:
    return yaml.safe_dump(sc.to_dict(), sort_keys=False)


class TestGoldenFiles:
    def test_fig4_parameters(self):
        sc = parse_scenario(SCENARIO_DIR / "fig4.scenario")
        spec = sc.model_spec()
        assert sc.model["kind"] == "NonlinearQRM"
        assert spec.eta == 0.67898
        assert spec.omega0_R == 0.0
        assert spec.g / spec.omega_R == pytest.approx(4.0)
        assert sc.initial == {"kind": "fock", "n": 0, "qubit": "down"}

    def test_fig3_parameters(self):
        sc = parse_scenario(SCENARIO_DIR / "fig3.scenario")
        assert sc.model["kind"] == "NonlinearAntiJC"
        assert sc.model["eta"] == 0.4518
        assert sc.lindblad == {"gamma_ratio": 2.0}
        assert sc.initial["kind"] == "thermal"
        assert sc.initial["nbar"] == 1.0
        assert sc.times["t_end"] == 100.0

    def test_fig6_coupling_ratio(self):
        spec = parse_scenario(SCENARIO_DIR / "fig6.scenario").model_spec()
        assert spec.g / spec.omega_R == pytest.approx(3.7)

    @pytest.mark.parametrize("name", GOLDEN_SCENARIOS)
    def test_round_trip(self, name, tmp_path):
        sc = parse_scenario(SCENARIO_DIR / f"{name}.scenario")
        path = tmp_path / "row.yaml"
        path.write_text(_to_yaml(sc))
        assert parse_scenario(path) == sc


class TestUnits:
    def test_khz_conversion(self):
        sc = scenario_from_dict(_minimal())
        assert sc.model_spec().g == pytest.approx(45.24 * 2 * math.pi * 1e3)
        assert KHZ == pytest.approx(2 * math.pi * 1e3)

    def test_exponent_without_dot_is_a_number(self, tmp_path):
        # YAML 1.1 reads 1e1 as a string; scenario files follow YAML 1.2 here
        path = tmp_path / "exp.scenario"
        path.write_text(yaml.safe_dump(_minimal()).replace("45.24", "1e1"))
        assert parse_scenario(path).model["g"] == 10.0

    @pytest.mark.parametrize("model, extra", [
        ({"kind": "QRM", "g": 22.62, "omega_R": 11.31, "omega0_R": 0.0}, {}),
        ({"kind": "NonlinearAntiJC", "g": 45.24, "eta": 0.4518},
         {"lindblad": {"gamma_ratio": 2.0}}),
        ({"kind": "TwoTone", "eta": 0.5, "Omega": 8.0, "nu": 80.0, "delta_r": 0.25,
          "delta_b": -0.25}, {}),
    ], ids=["eigh", "lindblad", "two-tone"])
    def test_simulated_times_in_cycles(self, model, extra):
        # each evolver takes 1/H units; simulate_scenario hands back cycles of 2*pi/g
        sc = scenario_from_dict(_minimal(model=model, times={"t_end": 2.5, "n_points": 21},
                                         truncation=8, **extra))
        traj, _ = simulate_scenario(sc)
        assert np.abs(traj.times - np.linspace(0.0, 2.5, 21)).max() < 1e-12


# a minimal model of each kind, and the sorted keys its section allows
_MODEL_KEYS = [
    ({"kind": "JC", "g": 1.0}, "['g', 'kind']"),
    ({"kind": "AntiJC", "g": 1.0}, "['g', 'kind']"),
    ({"kind": "NonlinearJC", "g": 1.0, "eta": 0.5}, "['eta', 'g', 'kind']"),
    ({"kind": "NonlinearAntiJC", "g": 1.0, "eta": 0.5}, "['eta', 'g', 'kind']"),
    ({"kind": "QRM", "g": 1.0, "omega_R": 1.0, "omega0_R": 0.0},
     "['g', 'kind', 'omega0_R', 'omega_R']"),
    ({"kind": "NonlinearQRM", "g": 1.0, "eta": 0.5, "omega_R": 1.0, "omega0_R": 0.0},
     "['eta', 'g', 'kind', 'omega0_R', 'omega_R']"),
    ({"kind": "TwoTone", "eta": 0.1, "Omega": 133.26, "nu": 5000.0, "delta_r": 11.31,
      "delta_b": -11.31},
     "['Omega', 'delta_b', 'delta_r', 'eta', 'g', 'kind', 'nu', 'phi_b', 'phi_r']"),
]


class TestValidation:
    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.scenario"
        p.write_text("")
        with pytest.raises(SchemaError, match="empty"):
            parse_scenario(p)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(SchemaError, match="cannot read"):
            parse_scenario(tmp_path / "missing.scenario")

    def test_invalid_yaml(self, tmp_path):
        p = tmp_path / "broken.scenario"
        p.write_text("model: [unclosed")
        with pytest.raises(SchemaError, match="YAML"):
            parse_scenario(p)

    def test_unknown_top_level_key(self):
        with pytest.raises(SchemaError, match="unknown key"):
            scenario_from_dict(_minimal(extra=1))

    def test_unknown_model_key(self):
        doc = _minimal(model={"kind": "JC", "g": 1.0, "eta": 0.5})
        with pytest.raises(SchemaError, match="model.*unknown key"):
            scenario_from_dict(doc)

    def test_missing_required_key(self):
        doc = _minimal()
        del doc["times"]
        with pytest.raises(SchemaError, match="missing required"):
            scenario_from_dict(doc)

    def test_version_mismatch(self):
        with pytest.raises(SchemaError, match="version"):
            scenario_from_dict(_minimal(schema_version=2))

    def test_bad_kind(self):
        with pytest.raises(SchemaError, match="kind"):
            scenario_from_dict(_minimal(model={"kind": "Tavis", "g": 1.0}))

    def test_non_numeric_field(self):
        with pytest.raises(SchemaError, match="expected a number"):
            scenario_from_dict(_minimal(model={"kind": "JC", "g": "strong"}))

    def test_bool_rejected_as_number(self):
        with pytest.raises(SchemaError, match="expected a number"):
            scenario_from_dict(_minimal(model={"kind": "JC", "g": True}))

    def test_bad_initial(self):
        with pytest.raises(SchemaError, match="initial.kind"):
            scenario_from_dict(_minimal(initial={"kind": "squeezed", "r": 1.0}))
        with pytest.raises(SchemaError, match="qubit"):
            scenario_from_dict(_minimal(
                initial={"kind": "fock", "n": 0, "qubit": "sideways"}))
        with pytest.raises(SchemaError, match="must be >= 0"):
            scenario_from_dict(_minimal(initial={"kind": "thermal", "nbar": -1.0}))

    def test_bad_times(self):
        with pytest.raises(SchemaError, match="t_end"):
            scenario_from_dict(_minimal(times={"t_end": -1.0, "n_points": 5}))
        with pytest.raises(SchemaError, match="n_points"):
            scenario_from_dict(_minimal(times={"t_end": 1.0, "n_points": 1}))

    @pytest.mark.parametrize("overrides, match", [
        ({"name": 7}, r"\.name: expected a non-empty string"),
        ({"outputs": {"observables": "sigma_z"}}, r"\.observables: expected a non-empty list"),
        ({"outputs": {"snapshot_times": 0.5}}, r"\.snapshot_times: expected a list"),
    ], ids=["name-number", "observables-string", "snapshot_times-number"])
    def test_wrong_type(self, overrides, match):
        with pytest.raises(SchemaError, match=match):
            scenario_from_dict(_minimal(**overrides))

    @pytest.mark.parametrize("model, allowed", _MODEL_KEYS, ids=[m["kind"] for m, _ in _MODEL_KEYS])
    def test_model_keys_of_each_kind(self, model, allowed):
        # the required keys alone parse; a key more or less is named
        assert scenario_from_dict(_minimal(model=model)).model == model
        with pytest.raises(SchemaError, match=re.escape(
                f"<dict>.model: unknown key(s) ['x']; allowed: {allowed}")):
            scenario_from_dict(_minimal(model=dict(model, x=1.0)))
        for key in set(model) - {"kind"}:
            less = {k: v for k, v in model.items() if k != key}
            with pytest.raises(SchemaError, match=re.escape(
                    f"<dict>.model: missing required key(s) ['{key}']")):
                scenario_from_dict(_minimal(model=less))

    def test_unknown_observable(self):
        with pytest.raises(SchemaError, match="unknown observable"):
            scenario_from_dict(_minimal(outputs={"observables": ["parity"]}))

    def test_two_tone_lindblad_rejected(self):
        doc = _minimal(
            model={"kind": "TwoTone", "eta": 0.1, "Omega": 133.26, "nu": 5000.0,
                   "delta_r": 11.31, "delta_b": -11.31},
            lindblad={"gamma_ratio": 2.0},
        )
        with pytest.raises(SchemaError, match="two-tone"):
            scenario_from_dict(doc)

    def test_model_level_error_surfaces_at_parse(self):
        doc = _minimal(model={"kind": "TwoTone", "eta": 0.4, "Omega": 3.0,
                              "nu": 5000.0, "g": 100.0,
                              "delta_r": 11.31, "delta_b": -11.31})
        with pytest.raises(SchemaError, match=r"^<dict>\.model: .*inconsistent coupling"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("model", [
        {"kind": "QRM", "g": 0, "omega_R": 11.31, "omega0_R": 0.0},
        {"kind": "TwoTone", "eta": 0.4, "Omega": 0, "nu": 5000.0, "delta_r": 11.31,
         "delta_b": -11.31},
        {"kind": "TwoTone", "eta": 0.4, "Omega": -10.0, "nu": 5000.0, "delta_r": 11.31,
         "delta_b": -11.31},
    ], ids=["qrm-g-0", "twotone-omega-0", "twotone-omega-negative"])
    def test_coupling_must_be_positive(self, model):
        # ModelSpec takes these (a free QRM, an undriven TwoTone); a scenario's
        # times are in cycles of 2*pi/g
        with pytest.raises(SchemaError, match=r"^<dict>\.model: the coupling g must be > 0"):
            scenario_from_dict(_minimal(model=model))

    def test_negative_truncation(self):
        with pytest.raises(SchemaError, match="truncation"):
            scenario_from_dict(_minimal(truncation=0))


class TestDefaults:
    def test_outputs_default_to_all(self):
        sc = scenario_from_dict(_minimal())
        assert sc.outputs["observables"] == ["sigma_z", "fidelity", "n_mean", "phonons"]
        assert sc.outputs["snapshot_times"] == []

    def test_qubit_defaults_down(self):
        sc = scenario_from_dict(_minimal(initial={"kind": "fock", "n": 2}))
        assert sc.initial["qubit"] == "down"

    def test_round_trip_applies_normalization(self, tmp_path):
        sc = scenario_from_dict(_minimal(initial={"kind": "fock", "n": 2}))
        p = tmp_path / "s.yaml"
        p.write_text(_to_yaml(sc))
        again = parse_scenario(p)
        assert again == sc
        assert yaml.safe_load(_to_yaml(sc))["initial"]["qubit"] == "down"


class TestAutoTruncation:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 10, 17, 41, 60, 99])
    def test_barrier_index_at_root(self, n):
        assert _barrier_index(barrier_eta(n)) == n

    def test_barrier_index_first_sign_change(self):
        assert _barrier_index(0.9) == 4  # f1 goes from +0.061 at n = 3 to -0.033
        assert _barrier_index(0.05) is None  # f1 keeps its sign up to n = 200
        assert _barrier_index(0.0) is None

    @pytest.mark.parametrize("target", [3, 17, 41, 60])
    @pytest.mark.parametrize("nbar", [0, 1, 3])
    def test_fockprep_ladder_rule(self, target, nbar):
        # the ladder's own rule: headroom 2 target above the blockade, 40 at
        # least, and room for the thermal start
        sc = scenario_from_dict(_minimal(
            model={"kind": "NonlinearAntiJC", "g": 45.24, "eta": barrier_eta(target)},
            initial={"kind": "thermal", "nbar": nbar}, lindblad={"gamma_ratio": 2.0}))
        thermal = thermal_required_n_max(nbar) if nbar > 0 else 0
        assert auto_n_max(sc) == max(2 * target, 40, thermal)

    # ratio 14 displaces vacuum to radius 28, where exp(-|alpha|^2) underflows
    @pytest.mark.parametrize("ratio, alpha, expected", [(2, 1.0, 63), (4, 1.0, 144),
                                                        (4, 0.0, 121), (2, 3.0, 100),
                                                        (14, 0.0, 969)])
    def test_deep_strong_tail_bound(self, ratio, alpha, expected):
        # g/omega_R displaces the mode by 2 g/omega_R: the coherent start's
        # tail bound at that radius, not a fixed margin
        sc = scenario_from_dict(_minimal(
            model={"kind": "QRM", "g": 11.31 * ratio, "omega_R": 11.31, "omega0_R": 0.0},
            initial={"kind": "coherent", "alpha": alpha}))
        assert auto_n_max(sc) == coherent_required_n_max(alpha + 2.0 * ratio) == expected

    @pytest.mark.parametrize("n, expected", [(0, 40), (39, 40), (40, 41), (60, 61)])
    def test_fock_start_keeps_one_level_of_room(self, n, expected):
        # a sideband exchange from |n> reaches |n + 1>, which must be in the space
        sc = scenario_from_dict(_minimal(model={"kind": "AntiJC", "g": 10.0},
                                         initial={"kind": "fock", "n": n}))
        assert auto_n_max(sc) == expected


class TestWriteCsv:
    @pytest.mark.parametrize("n,m", [(2401, 1), (201, 400)], ids=["trajectory", "landscape"])
    def test_chunks_match_per_row_format(self, tmp_path, n, m):
        # neither table is a whole number of chunks; each file must equal one
        # % per row of the same format
        rng = np.random.default_rng(3)
        if m == 1:
            columns, row_fmt = [np.linspace(0.0, 3.0, n), rng.normal(size=n)], "%.17e,%.17e"
        else:
            columns = [np.arange(n), rng.normal(size=(n, m))]
            row_fmt = ",".join(["%d"] + ["%.17e"] * m)
        assert n % (runner._CSV_VALUES // (m + 1)) != 0
        header = ["c%d" % i for i in range(m + 1)]
        path = tmp_path / "table.csv"
        runner._write_csv(path, header, columns)
        rows = np.column_stack(columns).tolist()
        want = ",".join(header) + "\r\n" + "".join((row_fmt + "\r\n") % tuple(r) for r in rows)
        assert path.read_bytes() == want.encode()
