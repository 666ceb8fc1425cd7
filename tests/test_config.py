import json

import pytest

from microinject.config import MAX_STEPS, InvariantError, ParseError, parse_config
from microinject.control import ControllerVariant
from microinject.sim import TrajectoryKind


def base_config():
    return {
        "frame": {"alpha": 0.5, "dx": 0.5, "dy": 0.5, "fx": 2.0, "fy": 4.0},
        "masses": {"mx": 1.0, "my": 1.0, "mp": 1.0},
        "impedance": {"m": 1.0, "b": 20.0, "k": 100.0},
        "trajectory": {
            "kind": "Quintic",
            "start": [0.0, 0.0],
            "end": [1.5, 0.5],
            "duration": 3.0,
        },
        "membrane": {"stiffness": 50.0, "damping": 2.0, "contact_x": 1.0},
        "fed": [0.5, 0.0],
        "run": {"t_end": 5.0, "dt": 0.001, "variants": ["StageConsistent"]},
        "seed": 0,
    }


def dumps(cfg):
    return json.dumps(cfg)


class TestHappyPath:
    def test_minimal_document(self):
        cfg = parse_config(dumps(base_config()))
        assert cfg.frame.fx == 2.0
        assert cfg.masses.total_x == 3.0
        assert cfg.impedance.k == 100.0
        assert cfg.trajectory.kind is TrajectoryKind.QUINTIC
        assert cfg.membrane.contact_x == 1.0
        assert (cfg.fed.fex, cfg.fed.fey) == (0.5, 0.0)
        assert cfg.t_end == 5.0 and cfg.dt == 0.001
        assert cfg.variants == (ControllerVariant.STAGE_CONSISTENT,)
        assert cfg.seed == 0

    def test_sinusoid_document(self):
        doc = base_config()
        doc["trajectory"] = {
            "kind": "Sinusoid",
            "start": [0.0, 0.0],
            "duration": 4.0,
            "amplitude": [0.5, 0.2],
            "frequency": 0.5,
        }
        cfg = parse_config(dumps(doc))
        assert cfg.trajectory.kind is TrajectoryKind.SINUSOID
        assert cfg.trajectory.frequency == 0.5

    def test_all_variants_accepted(self):
        doc = base_config()
        doc["run"]["variants"] = ["Corrected", "SimPaper", "McPaper",
                                  "StageConsistent"]
        cfg = parse_config(dumps(doc))
        assert len(cfg.variants) == 4


class TestStructuralErrors:
    def test_invalid_json(self):
        with pytest.raises(ParseError, match="invalid JSON"):
            parse_config("{not json")

    def test_top_level_unknown_key(self):
        doc = base_config()
        doc["frames"] = doc.pop("frame")
        with pytest.raises(ParseError, match="unknown key 'frames'"):
            parse_config(dumps(doc))

    def test_nested_unknown_key(self):
        doc = base_config()
        doc["masses"]["mz"] = 1.0
        with pytest.raises(ParseError, match="unknown key 'masses.mz'"):
            parse_config(dumps(doc))

    def test_missing_key(self):
        doc = base_config()
        del doc["impedance"]
        with pytest.raises(ParseError, match="missing key 'impedance'"):
            parse_config(dumps(doc))

    def test_wrong_type(self):
        doc = base_config()
        doc["masses"]["mx"] = "heavy"
        with pytest.raises(ParseError, match="masses.mx must be a number"):
            parse_config(dumps(doc))

    def test_bool_is_not_a_number(self):
        doc = base_config()
        doc["frame"]["fx"] = True
        with pytest.raises(ParseError, match="frame.fx must be a number"):
            parse_config(dumps(doc))

    def test_fed_must_be_pair(self):
        doc = base_config()
        doc["fed"] = [1.0]
        with pytest.raises(ParseError, match="fed must be an array of two numbers"):
            parse_config(dumps(doc))

    def test_unknown_variant_name(self):
        doc = base_config()
        doc["run"]["variants"] = ["Corected"]
        with pytest.raises(ParseError, match=r"run.variants\[0\]"):
            parse_config(dumps(doc))

    def test_repeated_variant(self):
        doc = base_config()
        doc["run"]["variants"] = ["SimPaper", "Corrected", "SimPaper"]
        with pytest.raises(ParseError) as info:
            parse_config(dumps(doc))
        assert str(info.value) == (
            "run.variants[2] repeats 'SimPaper': each variant may appear once")

    @pytest.mark.parametrize("given, twice, key", [
        # json.loads alone keeps the last value, which passes k's rule
        ('"k": 100.0', '"k": -5.0, "k": 100.0', "k"),
        ('"seed": 0', '"seed": 0, "seed": 0', "seed"),
        ('"dt": 0.001', '"dt": 0.001, "dt": 0.002', "dt"),
    ])
    def test_repeated_key(self, given, twice, key):
        doc = dumps(base_config())
        assert doc.count(given) == 1
        with pytest.raises(ParseError) as info:
            parse_config(doc.replace(given, twice))
        assert str(info.value) == f"repeated key '{key}': each key may appear once"

    def test_unknown_trajectory_kind(self):
        doc = base_config()
        doc["trajectory"]["kind"] = "Cubic"
        with pytest.raises(ParseError, match="trajectory.kind"):
            parse_config(dumps(doc))

    def test_sinusoid_forbids_end(self):
        doc = base_config()
        doc["trajectory"] = {
            "kind": "Sinusoid", "start": [0, 0], "duration": 1.0,
            "amplitude": [1, 0], "frequency": 1.0, "end": [1, 1],
        }
        with pytest.raises(ParseError, match="trajectory.end"):
            parse_config(dumps(doc))

    def test_quintic_forbids_frequency(self):
        doc = base_config()
        doc["trajectory"]["frequency"] = 2.0
        with pytest.raises(ParseError, match="trajectory.frequency"):
            parse_config(dumps(doc))

    def test_seed_must_be_integer(self):
        doc = base_config()
        doc["seed"] = 1.5
        with pytest.raises(ParseError, match="seed must be an integer"):
            parse_config(dumps(doc))


class TestInvariantErrors:
    def test_negative_mass(self):
        doc = base_config()
        doc["masses"]["mx"] = -1.0
        with pytest.raises(InvariantError, match="masses.mx must be > 0"):
            parse_config(dumps(doc))

    @pytest.mark.parametrize("section,key", [
        ("frame", "dx"), ("frame", "dy"), ("frame", "fx"), ("frame", "fy"),
        ("impedance", "m"), ("impedance", "b"), ("impedance", "k"),
    ])
    def test_positivity_constraints(self, section, key):
        doc = base_config()
        doc[section][key] = 0.0
        with pytest.raises(InvariantError, match=f"{section}.{key} must be > 0"):
            parse_config(dumps(doc))

    def test_membrane_non_negative(self):
        doc = base_config()
        doc["membrane"]["stiffness"] = -2.0
        with pytest.raises(InvariantError, match="membrane.stiffness must be >= 0"):
            parse_config(dumps(doc))

    def test_run_steps_positive(self):
        doc = base_config()
        doc["run"]["dt"] = 0.0
        with pytest.raises(InvariantError, match="run.dt must be > 0"):
            parse_config(dumps(doc))

    def test_step_cap(self):
        doc = base_config()
        doc["run"]["t_end"] = 1.0
        doc["run"]["dt"] = 1.0 / MAX_STEPS
        assert parse_config(dumps(doc)).dt == 1.0 / MAX_STEPS
        for t_end, dt in ((1.0, 1e-9), (2.0, 1.0 / MAX_STEPS), (1e308, 1e-308)):
            doc["run"]["t_end"] = t_end
            doc["run"]["dt"] = dt
            with pytest.raises(InvariantError,
                               match=r"run\.t_end / run\.dt must be <="):
                parse_config(dumps(doc))

    @pytest.mark.parametrize("variants, rejected", [
        (["Corrected"], True),
        (["SimPaper", "McPaper"], True),
        (["SimPaper", "StageConsistent"], False),
    ])
    def test_frame_must_be_invertible_for_transform_weighted_variants(
        self, variants, rejected
    ):
        # fx, fy > 0 but T fails the inversion cutoff: det = 1 against 100
        doc = base_config()
        doc["frame"].update(alpha=0.0, fx=1e7, fy=1e-7)
        doc["run"]["variants"] = variants
        if not rejected:
            assert parse_config(dumps(doc)).frame.fx == 1e7
            return
        with pytest.raises(InvariantError, match=r"^frame: .*cannot be inverted"):
            parse_config(dumps(doc))

    @pytest.mark.parametrize("masses, det", [
        # masses > 0, but M fails the inversion cutoff every run goes
        # through: det 2e13 against 1e14, 6e-14 against 1e-12, and a
        # squared entry that overflows to inf
        ({"mx": 1e13, "my": 1.0, "mp": 1.0}, "2.000e+13"),
        ({"mx": 1e-7, "my": 1e-7, "mp": 1e-7}, "6.000e-14"),
        ({"mx": 1e200, "my": 1.0, "mp": 1.0}, "2.000e+200"),
    ])
    def test_mass_matrix_must_be_invertible_for_every_variant(self, masses, det):
        doc = base_config()
        doc["masses"] = masses
        doc["run"]["variants"] = ["StageConsistent"]
        with pytest.raises(InvariantError) as info:
            parse_config(dumps(doc))
        assert str(info.value) == (
            "masses: the mass matrix M cannot be inverted (matrix is singular "
            f"within tolerance (|det|={det}))")

    def test_empty_variants(self):
        doc = base_config()
        doc["run"]["variants"] = []
        with pytest.raises(InvariantError, match="no variants selected"):
            parse_config(dumps(doc))

    def test_negative_seed(self):
        doc = base_config()
        doc["seed"] = -1
        with pytest.raises(InvariantError, match="seed must be >= 0"):
            parse_config(dumps(doc))

    def test_non_finite_number(self):
        doc = base_config()
        text = dumps(doc).replace('"alpha": 0.5', '"alpha": Infinity')
        with pytest.raises(InvariantError, match="frame.alpha must be finite"):
            parse_config(text)
