"""scripts/same_outputs.py: how a differing output file is measured."""
import importlib.util
from pathlib import Path

import numpy as np

from emofuse.model import encode_array

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "same_outputs.py"
_SPEC = importlib.util.spec_from_file_location("same_outputs", _PATH)
same_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_outputs)


def test_encoded_arrays_are_compared_elementwise():
    a = {"params": {"w": encode_array(np.array([[0.5, 0.0], [-2.0, 3.0]]))}, "stage": 2}
    b = {"params": {"w": encode_array(np.array([[0.5, 1e-12], [-2.0, 3.0]]))}, "stage": 2}
    assert same_outputs.max_abs_diff(a, b) == 1e-12
    assert same_outputs.max_abs_diff(a, a) == 0.0


def test_encoded_arrays_of_other_shapes_differ_in_structure():
    a = encode_array(np.zeros((2, 2)))
    assert same_outputs.max_abs_diff(a, encode_array(np.zeros((1, 4)))) is None
    assert same_outputs.max_abs_diff(a, encode_array(np.zeros(3))) is None
    # an object with other keys is compared as plain JSON
    assert same_outputs.max_abs_diff({"shape": [1], "data": "x", "n": 1},
                                     {"shape": [1], "data": "y", "n": 1}) is None
