import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import levyexotic
from levyexotic import (
    ForwardStart,
    MonitoringSchedule,
    PayoffParameterSet,
    price_contract,
)
from levyexotic.cli import main
from levyexotic.contracts import AsianGeometric, Compound, Digital
from levyexotic.errors import SchemaError
from levyexotic.serialization import (
    contract_from_dict,
    contract_to_dict,
    model_from_dict,
    model_to_dict,
    runspec_from_dict,
    runspec_to_dict,
)

NIG_MODEL = {"kind": "nig", "params": {"alpha": 8.0, "beta": -2.0, "delta": 0.3}, "r": 0.05}
GAUSS_MODEL = {"kind": "gaussian", "params": {"sigma": 0.2}, "r": 0.05}


def spec_file(tmp_path, payload, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def digital_contract():
    return {
        "type": "digital",
        "t": 0.0,
        "dates": [1.0],
        "gamma": [0.0],
        "k_log": [math.log(100.0)],
        "w": [1],
        "a": [[1.0]],
    }


class TestPriceCommand:
    def test_forward_start_happy_path(self, tmp_path, capsys):
        payload = {
            "model": GAUSS_MODEL,
            "spot": 100.0,
            "contract": {"type": "forward_start", "t1": 0.5, "t2": 1.0, "w": 1},
            "pricing": {"method": "fourier"},
        }
        rc = main(["price", "--spec", spec_file(tmp_path, payload)])
        out = capsys.readouterr().out
        assert rc == 0
        report = json.loads(out)
        direct = price_contract(ForwardStart(0.5, 1.0), model_from_dict(GAUSS_MODEL), 100.0)
        assert report["price"] == pytest.approx(direct.value, rel=1e-9)
        assert report["method"] == "fourier"
        assert "error_estimate" in report

    def test_cgmy_mc_pairing_rejected(self, tmp_path, capsys):
        payload = {
            "model": {"kind": "cgmy", "params": {"c": 1.0, "g": 5.0, "m": 5.0, "y": 0.5}, "r": 0.05},
            "spot": 100.0,
            "contract": digital_contract(),
            "pricing": {"method": "mc", "paths": 1000},
        }
        rc = main(["price", "--spec", spec_file(tmp_path, payload)])
        err = capsys.readouterr().err
        assert rc == 4
        assert "UnsupportedModel" in err

    def test_closed_form_requires_gaussian(self, tmp_path, capsys):
        payload = {
            "model": NIG_MODEL,
            "spot": 100.0,
            "contract": digital_contract(),
            "pricing": {"method": "closed_form"},
        }
        rc = main(["price", "--spec", spec_file(tmp_path, payload)])
        assert rc == 4

    def test_schema_error_names_field(self, tmp_path, capsys):
        payload = {"model": GAUSS_MODEL, "contract": digital_contract()}
        rc = main(["price", "--spec", spec_file(tmp_path, payload)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "spot" in err

    def test_pricing_error_exit_code(self, tmp_path, capsys):
        bad = digital_contract()
        bad["gamma"] = [11.0]  # outside the NIG strip for every offset
        payload = {"model": NIG_MODEL, "spot": 100.0, "contract": bad}
        rc = main(["price", "--spec", spec_file(tmp_path, payload)])
        err = capsys.readouterr().err
        assert rc == 3
        assert "NoFeasibleOffsets" in err

    def test_fourier_and_mc_agree(self, tmp_path, capsys):
        payload = {
            "model": NIG_MODEL,
            "spot": 100.0,
            "contract": digital_contract(),
            "pricing": {"method": "fourier"},
        }
        path = spec_file(tmp_path, payload)
        assert main(["price", "--spec", path]) == 0
        fourier = json.loads(capsys.readouterr().out)["price"]
        assert main(["price", "--spec", path, "--method", "mc",
                     "--paths", "200000", "--seed", "5"]) == 0
        mc_report = json.loads(capsys.readouterr().out)
        assert abs(fourier - mc_report["price"]) <= 3.0 * mc_report["stderr"]


class TestValidateCommand:
    def test_lemma1_smoke(self, capsys):
        rc = main(["validate", "lemma1", "--limit", "6"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["suite"] == "lemma1"
        assert out["passed"] == out["cases"] == 6

    def test_parity_suite(self, capsys):
        rc = main(["validate", "parity", "--limit", "2"])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["max_violation"] < 1e-5


class TestConvergenceCommand:
    def test_grid_axis_header_and_trend(self, tmp_path, capsys):
        payload = {"model": GAUSS_MODEL, "spot": 100.0, "contract": digital_contract()}
        rc = main(["convergence", "--spec", spec_file(tmp_path, payload), "--axis", "grid"])
        out = capsys.readouterr().out.strip().splitlines()
        assert rc == 0
        assert out[0] == "resolution,price,error,wall_time_ms"
        errors = [float(row.split(",")[2]) for row in out[2:] if row.split(",")[2]]
        # decreasing until the refinement bottoms out at machine noise
        assert all(b <= a * 1.01 or b < 1e-12 for a, b in zip(errors, errors[1:]))

    def test_paths_axis_stderr_shrinks(self, tmp_path, capsys):
        payload = {
            "model": GAUSS_MODEL,
            "spot": 100.0,
            "contract": {"type": "asian_geometric", "t": 0.0,
                         "dates": [0.5, 1.0], "strike": 100.0, "w": 1},
            "pricing": {"seed": 9},
        }
        rc = main(["convergence", "--spec", spec_file(tmp_path, payload), "--axis", "paths"])
        out = capsys.readouterr().out.strip().splitlines()
        assert rc == 0
        stderrs = [float(row.split(",")[2]) for row in out[1:]]
        # quadrupling paths should roughly halve the standard error
        for a, b in zip(stderrs, stderrs[1:]):
            assert b < a
            assert b > a / 4.0


class TestRoundTrip:
    def test_model_round_trip(self):
        for payload in (GAUSS_MODEL, NIG_MODEL,
                        {"kind": "cgmy", "params": {"c": 1.0, "g": 5.0, "m": 5.0, "y": 0.5}, "r": 0.0},
                        {"kind": "gaussian", "params": {"sigma": 0.2, "strip_proxy": 10.0}, "r": 0.05}):
            model = model_from_dict(payload)
            again = model_from_dict(model_to_dict(model))
            assert model_to_dict(model) == model_to_dict(again)
            assert again == model

    def test_contract_round_trip(self):
        sched = MonitoringSchedule(0.0, (0.5, 1.0))
        contracts = [
            Digital(sched, PayoffParameterSet((0.0, 1.0), (4.6,), (1,), ((0.5, 0.5),))),
            ForwardStart(0.5, 1.0, -1),
            AsianGeometric(sched, 90.0, 1, (1.0, 3.0)),
            Compound(((0.5, 5.0, 1), (1.0, 100.0, -1))),
        ]
        for contract in contracts:
            payload = contract_to_dict(contract)
            again = contract_from_dict(payload)
            assert contract_to_dict(again) == payload

    def test_runspec_round_trip(self):
        payload = {
            "model": NIG_MODEL,
            "spot": 100.0,
            "contract": {"type": "chooser", "t1": 0.5, "t_expiry": 1.0, "strike": 100.0},
            "pricing": {"method": "mc", "paths": 5000, "seed": 2, "tol": 1e-7},
        }
        spec = runspec_from_dict(payload)
        again = runspec_from_dict(runspec_to_dict(spec))
        assert runspec_to_dict(spec) == runspec_to_dict(again)

    def test_unknown_contract_type(self):
        with pytest.raises(SchemaError):
            contract_from_dict({"type": "swing"})


def test_import_does_not_load_scipy_signal():
    # scipy.signal costs about half a second to import; the chain rule's
    # convolutions use numpy.fft instead
    src = str(Path(levyexotic.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import levyexotic.cli; print('scipy.signal' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "False"
