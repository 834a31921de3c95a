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
from levyexotic.contracts import (
    AsianContinuous,
    AsianGeometric,
    BarrierDownOutCall,
    Chooser,
    Compound,
    Digital,
    LookbackFixed,
)
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


SCHED = MonitoringSchedule(0.25, (0.5, 1.0))

# contract_to_dict of each contract type, written out key by key: the JSON
# schema of spec files
SCHEMA = [
    (Digital(SCHED, PayoffParameterSet((0.0, 1.0), (4.6,), (1,), ((0.5, 0.5),))),
     {"type": "digital", "t": 0.25, "dates": [0.5, 1.0], "gamma": [0.0, 1.0],
      "k_log": [4.6], "w": [1], "a": [[0.5, 0.5]]}),
    (ForwardStart(0.5, 1.0, -1, 0.1),
     {"type": "forward_start", "t": 0.1, "t1": 0.5, "t2": 1.0, "w": -1}),
    (AsianGeometric(SCHED, 90.0, 1, (1.0, 3.0)),
     {"type": "asian_geometric", "t": 0.25, "dates": [0.5, 1.0], "strike": 90.0, "w": 1,
      "weights": [1.0, 3.0]}),
    (AsianGeometric(SCHED, 90.0, -1),
     {"type": "asian_geometric", "t": 0.25, "dates": [0.5, 1.0], "strike": 90.0, "w": -1}),
    (AsianGeometric(SCHED, 90.0, 1, ()),
     {"type": "asian_geometric", "t": 0.25, "dates": [0.5, 1.0], "strike": 90.0, "w": 1}),
    (AsianContinuous(0.5, 1.5, 95.0, -1),
     {"type": "asian_continuous", "t_start": 0.5, "t_end": 1.5, "strike": 95.0, "w": -1}),
    (LookbackFixed(SCHED, 105.0),
     {"type": "lookback_fixed", "t": 0.25, "dates": [0.5, 1.0], "strike": 105.0, "w": 1}),
    (Chooser(0.5, 1.0, 100.0, 0.2),
     {"type": "chooser", "t": 0.2, "t1": 0.5, "t_expiry": 1.0, "strike": 100.0}),
    (Compound(((0.5, 5.0, 1), (1.0, 100.0, -1)), 0.1),
     {"type": "compound", "t": 0.1,
      "legs": [{"t": 0.5, "strike": 5.0, "w": 1}, {"t": 1.0, "strike": 100.0, "w": -1}]}),
    (BarrierDownOutCall(SCHED, 80.0, 100.0),
     {"type": "barrier_down_out_call", "t": 0.25, "dates": [0.5, 1.0], "barrier": 80.0,
      "strike": 100.0}),
]


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

    @pytest.mark.parametrize("field, patch", [
        ("r", {"model": {**GAUSS_MODEL, "r": "five"}}),
        ("sigma", {"model": {**GAUSS_MODEL, "params": {"sigma": "wide"}}}),
        ("tol", {"pricing": {"tol": "tight"}}),
        ("paths", {"pricing": {"paths": "many"}}),
        ("paths", {"pricing": {"method": "mc", "paths": 0}}),
        ("seed", {"pricing": {"seed": "lucky"}}),
        ("seed", {"pricing": {"method": "mc", "seed": -1}}),
    ], ids=["r", "sigma", "tol", "paths", "paths-zero", "seed", "seed-negative"])
    def test_malformed_value_names_field(self, tmp_path, capsys, field, patch):
        payload = {"model": GAUSS_MODEL, "spot": 100.0, "contract": digital_contract(), **patch}
        rc = main(["price", "--spec", spec_file(tmp_path, payload)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: SchemaError:")
        assert f"'{field}'" in err

    @pytest.mark.parametrize("context, patch", [
        ("model.params (nig)", {"model": {**NIG_MODEL, "params": 8.0}}),
        ("pricing", {"pricing": "fast"}),
        ("contract.legs[]", {"contract": {"type": "compound", "legs": [5.0]}}),
    ], ids=["params", "pricing", "leg"])
    def test_non_object_rejected(self, tmp_path, capsys, context, patch):
        payload = {"model": GAUSS_MODEL, "spot": 100.0, "contract": digital_contract(), **patch}
        rc = main(["price", "--spec", spec_file(tmp_path, payload)])
        assert rc == 2
        assert f"{context} must be a JSON object" in capsys.readouterr().err

    def test_negative_paths_override_rejected(self, tmp_path, capsys):
        payload = {"model": GAUSS_MODEL, "spot": 100.0, "contract": digital_contract()}
        rc = main(["price", "--spec", spec_file(tmp_path, payload),
                   "--method", "mc", "--paths", "-5"])
        assert rc == 2
        assert "'paths'" in capsys.readouterr().err

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

    def test_grid_axis_solves_thresholds_at_the_price_tolerance(self, tmp_path, capsys,
                                                                  monkeypatch):
        from levyexotic import contracts
        from levyexotic.digitals import DEFAULT_TOL_ND

        seen = []
        solve = contracts.solve_compound_thresholds

        def recording(c, model, rel_tol=1e-10):
            seen.append(rel_tol)
            return solve(c, model, rel_tol=rel_tol)

        monkeypatch.setattr(contracts, "solve_compound_thresholds", recording)
        payload = {"model": GAUSS_MODEL, "spot": 100.0,
                   "contract": contract_to_dict(Compound(((0.5, 5.0, 1), (1.0, 100.0, 1))))}
        rc = main(["convergence", "--spec", spec_file(tmp_path, payload), "--axis", "grid"])
        assert rc == 0
        # one solve sizes the grid and serves every resolution
        assert len(capsys.readouterr().out.strip().splitlines()[1:]) == 5
        assert seen == [pytest.approx(0.01 * math.sqrt(DEFAULT_TOL_ND))]

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

    @pytest.mark.parametrize("contract, expected", SCHEMA,
                             ids=[f"{d['type']}-{i}" for i, (_, d) in enumerate(SCHEMA)])
    def test_contract_schema(self, contract, expected):
        assert contract_to_dict(contract) == expected

    def test_compound_leg_sign_defaults_to_call(self):
        payload = {"type": "compound", "legs": [{"t": 0.5, "strike": 5.0},
                                                {"t": 1.0, "strike": 100.0, "w": -1}]}
        contract = contract_from_dict(payload)
        assert contract == Compound(((0.5, 5.0, 1), (1.0, 100.0, -1)))
        assert contract_to_dict(contract)["legs"][0] == {"t": 0.5, "strike": 5.0, "w": 1}

    def test_contract_round_trip(self):
        assert len({d["type"] for _, d in SCHEMA}) == 8
        for contract, _ in SCHEMA:
            payload = contract_to_dict(contract)
            again = contract_from_dict(payload)
            assert contract_to_dict(again) == payload
            if getattr(contract, "weights", None) != ():  # empty weights read back as None
                assert again == contract

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

    @pytest.mark.parametrize("field, contract, pricing", [
        ("'w'", lambda v: {"type": "forward_start", "t1": 0.5, "t2": 1.0, "w": -v}, lambda v: {}),
        ("leg sign w", lambda v: {"type": "compound", "legs": [{"t": 0.5, "strike": 5.0, "w": v},
                                                               {"t": 1.0, "strike": 100.0}]},
         lambda v: {}),
        ("sign w", lambda v: {**digital_contract(), "w": [v]}, lambda v: {}),
        ("'paths'", lambda v: digital_contract(), lambda v: {"paths": 2 * v}),
        ("'seed'", lambda v: digital_contract(), lambda v: {"seed": v}),
    ], ids=["contract-w", "leg-w", "payoff-w", "paths", "seed"])
    def test_non_integral_integer_names_field(self, field, contract, pricing):
        def payload(v):
            return {"model": GAUSS_MODEL, "spot": 100.0, "contract": contract(v), "pricing": pricing(v)}

        with pytest.raises(SchemaError, match=f"{field}.*whole number"):
            runspec_from_dict(payload(1.35))
        runspec_from_dict(payload(1.0))  # a whole number written as a float is that integer

    def test_non_integral_signs_rejected_by_the_contracts(self):
        with pytest.raises(ValueError, match="leg sign w must be a whole number"):
            Compound(((0.5, 5.0, 1.9), (1.0, 100.0, 1)))
        with pytest.raises(ValueError, match="sign w must be a whole number"):
            PayoffParameterSet((0.0,), (4.6,), (0.5,), ((1.0,),))


def test_import_does_not_load_scipy_signal():
    # scipy.signal costs about half a second to import; the chain rule's
    # convolutions use numpy.fft instead
    src = str(Path(levyexotic.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import levyexotic.cli; print('scipy.signal' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_import_loads_no_scipy():
    # scipy is imported by the functions that use it (brentq, gamma, ndtr,
    # CubicSpline) on their first call, so a bare import pays none of it
    src = str(Path(levyexotic.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import levyexotic.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "[]"
