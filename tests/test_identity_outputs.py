"""``tools/identity_outputs.py --compare``: how two outputs of one label are classified."""
import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "identity_outputs.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("identity_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(value, error, omega):
    return f"({value!r}, np.float64({error!r}), 105, ContourOffsets(omega=({omega!r},)))"


def test_offsets_alone_do_not_make_a_line_outside(tool):
    before = result(0.5323, 1e-9, 5.0)
    assert tool._kind(before, before) == ("identical", False)
    assert tool._kind(before, result(0.5323 + 1e-9, 2e-9, 4.57)) == ("within", True)
    assert tool._kind(before, result(0.5323 + 1e-8, 2e-9, 4.57)) == ("outside", True)
    assert tool._kind(before, result(0.5323 + 1e-9, 2e-9, 5.0)) == ("within", False)


def test_any_other_text_difference_is_outside(tool):
    before = "NoConvergence " + result(0.5, 1e-6, 2.0) + " quadrature stalled at the 4096-node cap"
    after = "PricingError " + result(0.5, 1e-6, 2.0) + " quadrature stalled at the 4096-node cap"
    assert tool._kind(before, after) == ("outside", False)
    assert tool._kind(result(0.5, 1e-9, 2.0), "[" + result(0.5, 1e-9, 2.0) + "]")[0] == "outside"
    assert tool._kind(result(0.5, 1e-9, 2.0), "NoConvergence " + result(0.5, 1e-9, 2.5) + " stalled") == \
        ("new stall", True)
