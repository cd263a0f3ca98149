import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qmflow import (
    GlauberConfig,
    StepFunction,
    glauber_config_from_obj,
    glauber_config_to_obj,
    load_json,
    operator_from_obj,
    operator_to_obj,
    save_json,
    step_function_from_obj,
    step_function_to_obj,
    structure_maps_from_obj,
    structure_maps_to_obj,
    superop_from_obj,
    superop_to_obj,
)


class TestOperatorRoundtrip:
    def test_exact_roundtrip(self):
        rng = np.random.default_rng(80)
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        back = operator_from_obj(operator_to_obj(x))
        assert np.array_equal(back, x)

    def test_json_serializable(self):
        obj = operator_to_obj(np.eye(2, dtype=complex))
        json.dumps(obj)
        assert obj["dim"] == 2
        assert obj["re"] == [[1.0, 0.0], [0.0, 1.0]]
        assert obj["im"] == [[0.0, 0.0], [0.0, 0.0]]

    def test_rectangular_rejected(self):
        with pytest.raises(ValueError, match="square"):
            operator_to_obj(np.zeros((2, 3)))

    def test_missing_key(self):
        with pytest.raises(ValueError, match="missing key 'im'"):
            operator_from_obj({"dim": 1, "re": [[1.0]]})

    def test_bad_dim(self):
        with pytest.raises(ValueError, match="dim"):
            operator_from_obj({"dim": 0, "re": [[]], "im": [[]]})
        with pytest.raises(ValueError, match="dim"):
            operator_from_obj({"dim": "two", "re": [[1.0]], "im": [[0.0]]})

    def test_boolean_dim(self):
        with pytest.raises(ValueError, match=r"^operator: dim must be a positive integer, got True$"):
            operator_from_obj({"dim": True, "re": [[1.0]], "im": [[0.0]]})

    def test_wrong_shape(self):
        with pytest.raises(ValueError, match="must be 2x2"):
            operator_from_obj({"dim": 2, "re": [[1.0]], "im": [[0.0]]})

    def test_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            operator_from_obj({"dim": 1, "re": [[float("inf")]], "im": [[0.0]]})

    def test_not_an_object(self):
        with pytest.raises(ValueError, match="expected an object"):
            operator_from_obj([1, 2, 3])


class TestSuperopRoundtrip:
    def test_exact_roundtrip(self):
        rng = np.random.default_rng(81)
        s = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        assert np.array_equal(superop_from_obj(superop_to_obj(s)), s)

    @pytest.mark.parametrize("to_obj, what", [(operator_to_obj, "operator"),
                                              (superop_to_obj, "superoperator")])
    def test_zero_dimensional_array_refused(self, to_obj, what):
        with pytest.raises(ValueError, match=rf"^{what} must be square"):
            to_obj(np.array(1.0))

    def test_side_must_be_perfect_square(self):
        with pytest.raises(ValueError, match="square side"):
            superop_to_obj(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="perfect square"):
            superop_from_obj({"dim": 3, "re": np.zeros((3, 3)).tolist(),
                              "im": np.zeros((3, 3)).tolist()})


    def test_boolean_dim(self):
        with pytest.raises(ValueError, match=r"^superoperator: dim must be a positive integer, got True$"):
            superop_from_obj({"dim": True, "re": [[1.0]], "im": [[0.0]]})


class TestStructureMapsRoundtrip:
    def test_exact_roundtrip(self, qubit_sm):
        back = structure_maps_from_obj(structure_maps_to_obj(qubit_sm))
        assert back.dim == qubit_sm.dim
        assert np.array_equal(back.theta_minus, qubit_sm.theta_minus)
        assert np.array_equal(back.theta_zero, qubit_sm.theta_zero)
        assert np.array_equal(back.theta_plus, qubit_sm.theta_plus)
        assert back.ito.c_mp == qubit_sm.ito.c_mp
        assert back.ito.c_pm == qubit_sm.ito.c_pm

    def test_missing_block(self, qubit_sm):
        obj = structure_maps_to_obj(qubit_sm)
        del obj["theta_zero"]
        with pytest.raises(ValueError, match="missing key 'theta_zero'"):
            structure_maps_from_obj(obj)

    def test_dim_mismatch(self, qubit_sm):
        obj = structure_maps_to_obj(qubit_sm)
        obj["dim"] = 3
        with pytest.raises(ValueError, match="expected \\(9, 9\\)"):
            structure_maps_from_obj(obj)

    def test_boolean_dim(self):
        zero = superop_to_obj(np.zeros((1, 1)))
        obj = {"dim": 1, "theta_minus": zero, "theta_zero": zero, "theta_plus": zero,
               "ito": {"c_mp": [0.0, 0.0], "c_pm": [0.0, 0.0]}}
        assert structure_maps_from_obj(obj).dim == 1
        obj["dim"] = True
        with pytest.raises(ValueError, match=r"^structure maps: dim must be a positive integer, got True$"):
            structure_maps_from_obj(obj)

    def test_bad_ito_keys(self, qubit_sm):
        obj = structure_maps_to_obj(qubit_sm)
        obj["ito"] = {"c_mp": [2.0, 0.0]}
        with pytest.raises(ValueError, match="exactly the keys"):
            structure_maps_from_obj(obj)

    def test_bad_complex_pair(self, qubit_sm):
        obj = structure_maps_to_obj(qubit_sm)
        obj["ito"] = {"c_mp": [2.0], "c_pm": [0.0, 0.0]}
        with pytest.raises(ValueError, match=r"\[real, imag\] pair"):
            structure_maps_from_obj(obj)


class TestStepFunctionRoundtrip:
    def test_exact_roundtrip(self):
        f = StepFunction(pieces=((0.0, 1.0, 1 + 2j), (1.5, 2.0, -3.0)))
        obj = step_function_to_obj(f)
        assert obj == [[0.0, 1.0, 1.0, 2.0], [1.5, 2.0, -3.0, 0.0]]
        back = step_function_from_obj(obj)
        assert back == f

    def test_empty_function(self):
        assert step_function_from_obj([]) == StepFunction.zero()

    def test_not_a_list(self):
        with pytest.raises(ValueError, match="list of pieces"):
            step_function_from_obj({"a": 1})

    def test_bad_piece_arity(self):
        with pytest.raises(ValueError, match="start, end, re, im"):
            step_function_from_obj([[0.0, 1.0, 1.0]])

    def test_invalid_interval_propagates(self):
        with pytest.raises(ValueError, match="empty or reversed"):
            step_function_from_obj([[1.0, 0.5, 1.0, 0.0]])


class TestGlauberConfigRoundtrip:
    def test_exact_roundtrip(self):
        cfg = GlauberConfig.with_random_constants(sites=4, boundary="open", seed=11)
        back = glauber_config_from_obj(glauber_config_to_obj(cfg))
        assert back == cfg

    def test_defaults_filled_when_tables_absent(self):
        a = glauber_config_from_obj({"sites": 3}, seed=2)
        b = GlauberConfig.with_random_constants(sites=3, boundary="periodic", seed=2)
        assert a == b

    def test_one_sided_tables_rejected(self):
        obj = {"sites": 3, "gg_plus": {lab: [1.0, 0.0] for lab in
                                       ("pp", "pm", "mp", "mm")}}
        with pytest.raises(ValueError, match="come together"):
            glauber_config_from_obj(obj)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown keys"):
            glauber_config_from_obj({"sites": 3, "coupling": 1.0})

    def test_missing_sites(self):
        with pytest.raises(ValueError, match="sites"):
            glauber_config_from_obj({"boundary": "periodic"})

    def test_table_must_be_object(self):
        with pytest.raises(ValueError, match="must be an object"):
            glauber_config_from_obj({"sites": 3, "gg_plus": [1.0],
                                     "gg_minus": [1.0]})


HUGE = 10 ** 400  # a JSON integer too large for a float


class TestFiniteNumbers:
    """Parsers refuse booleans, non-finite numbers and integers too large
    for a float with a ValueError naming the field."""

    @staticmethod
    def _chain(pp):
        table = {lab: [0.5, 0.0] for lab in ("pp", "pm", "mp", "mm")}
        return {"sites": 3, "gg_plus": dict(table, pp=pp), "gg_minus": table}

    def test_chain_constants(self):
        for bad in ([HUGE, 0], [0.5, HUGE], [True, 0], [float("nan"), 0], ["1", 0]):
            with pytest.raises(ValueError, match=r"gg_plus\.pp must be a \[real, imag\] pair"):
                glauber_config_from_obj(self._chain(bad))

    def test_chain_integers_still_accepted(self):
        assert (glauber_config_from_obj(self._chain([1, 0]))
                == glauber_config_from_obj(self._chain([1.0, 0.0])))

    def test_ito_constants(self, qubit_sm):
        for bad in ([HUGE, 0], [False, 0.0]):
            obj = structure_maps_to_obj(qubit_sm)
            obj["ito"]["c_pm"] = bad
            with pytest.raises(ValueError, match="ito.c_pm"):
                structure_maps_from_obj(obj)

    def test_step_function_pieces(self):
        for bad in ([0, 1, HUGE, 0], [0, HUGE, 1, 0], [True, 1, 1, 0],
                    [0, 1, 0, float("inf")]):
            with pytest.raises(ValueError, match="piece 1 must be"):
                step_function_from_obj([[2, 3, 1, 0], bad])
        assert (step_function_from_obj([[0, 1, 2, -1]])
                == StepFunction(((0.0, 1.0, 2.0 - 1.0j),)))

    def test_operator_entries(self):
        with pytest.raises(ValueError, match="operator: entries must be finite"):
            operator_from_obj({"dim": 1, "re": [[HUGE]], "im": [[0]]})

    def test_structure_map_entries_name_the_map(self, qubit_sm):
        obj = structure_maps_to_obj(qubit_sm)
        obj["theta_zero"]["im"][0][0] = HUGE
        with pytest.raises(ValueError, match="theta_zero: superoperator: entries must be finite"):
            structure_maps_from_obj(obj)

    def test_operator_booleans(self):
        for re, im, key in (([[True]], [[0]], "re"), ([[1.0]], [[False]], "im"),
                            ([[1, 0], [0, True]], [[0, 0], [0, 0]], "re")):
            with pytest.raises(ValueError, match=f"operator: {key} entries must be numbers"):
                operator_from_obj({"dim": len(re), "re": re, "im": im})
        assert np.array_equal(operator_from_obj({"dim": 1, "re": [[1]], "im": [[0]]}),
                              np.array([[1 + 0j]]))

    def test_structure_map_booleans_name_the_map(self, qubit_sm):
        obj = structure_maps_to_obj(qubit_sm)
        obj["theta_plus"]["re"][2][3] = False
        with pytest.raises(ValueError, match="theta_plus: superoperator: re entries must be numbers"):
            structure_maps_from_obj(obj)


class TestFileHelpers:
    def test_save_is_sorted_and_newline_terminated(self, tmp_path):
        p = tmp_path / "x.json"
        save_json({"b": 1, "a": 2}, p)
        text = p.read_text()
        assert text == '{\n  "a": 2,\n  "b": 1\n}\n'
        assert load_json(p) == {"a": 2, "b": 1}

    def test_operator_file_roundtrip(self, tmp_path):
        rng = np.random.default_rng(82)
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        p = tmp_path / "op.json"
        save_json(operator_to_obj(x), p)
        assert_allclose(operator_from_obj(load_json(p)), x, atol=0)

    def test_byte_identical_rewrites(self, tmp_path, qubit_sm):
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_json(structure_maps_to_obj(qubit_sm), p1)
        save_json(structure_maps_to_obj(qubit_sm), p2)
        assert p1.read_bytes() == p2.read_bytes()
