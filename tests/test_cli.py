"""Exit codes, artifacts, and determinism of the command-line driver."""
import importlib.util
import json
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from g2calc import catalog, cli, collapse, ehmetric, flow, forms, g2core
from g2calc.cli import build_suites, main
from g2calc.liecdga import model_to_dict
from g2calc.forms import KForm
from g2calc.rings import RAT, MixedRingError

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
VERIFY_IDS = [cid for checks in build_suites(0).values() for cid, _ in checks]


def run(argv):
    return main(argv)


@pytest.mark.parametrize("cid", VERIFY_IDS)
def test_verify_check(cid):
    # every verify check at seed 0, exactly as `g2calc verify` runs it
    ok, detail = dict(build_suites(0)[cid.split(".", 1)[0]])[cid]()
    assert ok, detail


def test_every_verdict_is_a_python_bool():
    # a runner that tests `ok is True` must read every verdict as it is:
    # a numpy.bool_ is not True
    for checks in build_suites(0).values():
        for cid, fn in checks:
            ok, detail = fn()
            assert type(ok) is bool, (cid, type(ok))


def test_registry_matches_the_benchmark_contract(monkeypatch):
    # the benchmark pins every check id, by suite and in report order; a new
    # check must be added there in the same change
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    suites = {name: tuple(cid for cid, _ in checks)
              for name, checks in build_suites(0).items()}
    assert list(suites.items()) == list(workloads.EXPECTED_CHECKS.items())
    assert [cid for cid, _ in cli.CHECKS] == [
        cid for ids in workloads.EXPECTED_CHECKS.values() for cid in ids]


# run in a fresh interpreter, as the tests in this one have filled the caches
IMPORT_BUILDS_NOTHING = """
import gc, json
import g2calc.cli
from g2calc import catalog, g2core
from g2calc.liecdga import StructureEqs
rows = sum(len(eqs._table) for eqs in gc.get_objects() if isinstance(eqs, StructureEqs))
built = {f.__name__: f.cache_info().currsize for f in (
    catalog._phi_basis, catalog._ch_data, catalog.nakamura_model, catalog.ffkm_model,
    g2core._cubic_table)}
print(json.dumps({"table_rows": rows, "built": built}))
"""


def _fresh_python(code, *args):
    """The stdout of `python -c code args` in a new interpreter that imports
    g2calc from this checkout's src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_importing_the_cli_builds_no_table_and_no_basis():
    out = _fresh_python(IMPORT_BUILDS_NOTHING)
    assert json.loads(out) == {"table_rows": 0, "built": {
        "_phi_basis": 0, "_ch_data": 0, "nakamura_model": 0, "ffkm_model": 0,
        "_cubic_table": 0}}


def test_importing_the_cli_loads_no_numpy():
    # numpy is most of a cold start; the modules read it through a lazy
    # handle, and every value built with it is built on first use
    out = _fresh_python('import sys, g2calc.cli; print("numpy" in sys.modules)')
    assert out.strip() == "False"


# commands in one fresh interpreter, one after another: after each, whether
# numpy has been loaded
COMMANDS_LOAD_NUMPY = """
import contextlib, io, json, sys
from g2calc import cli
loaded = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    loaded.append([code, "numpy" in sys.modules])
print(json.dumps(loaded))
"""


def _numpy_loaded_after(*commands):
    out = _fresh_python(COMMANDS_LOAD_NUMPY, json.dumps(commands))
    return json.loads(out.splitlines()[-1])


def test_the_exact_commands_never_load_numpy(tmp_path):
    # flow, scan and the exact suites make no array: numpy stays unloaded
    # through all of them
    exact = [["flow", "--out", str(tmp_path / "flow.csv")],
             ["scan", "--out", str(tmp_path / "scan.csv")]]
    exact += [["verify", "--suite", suite, "--out", str(tmp_path / f"{suite}.json")]
              for suite in ("forms", "liecdga", "g2core", "scaling", "flow")]
    assert _numpy_loaded_after(*exact) == [[0, False]] * len(exact)


@pytest.mark.parametrize("argv", [["eh", "--grid", "50"], ["verify", "--suite", "eh"]],
                         ids=["eh", "verify_eh"])
def test_a_float_command_loads_numpy_on_first_use(tmp_path, argv):
    # the handle does load numpy once a float kernel reads it, so the test
    # above cannot pass by a probe that never sees numpy
    assert _numpy_loaded_after(argv + ["--out", str(tmp_path / "out")]) == [[0, True]]


# a command in a fresh interpreter, as this one has loaded numpy.random
COMMAND_RUN = """
import contextlib, io, json, sys
from g2calc import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "numpy.random": "numpy.random" in sys.modules}))
"""


def test_eh_command_never_imports_numpy_random(tmp_path):
    # its witness directions come from the stdlib generator; importing
    # numpy.random is a large share of a cold eh pass
    out = _fresh_python(COMMAND_RUN, "eh", "--t", "0.1", "--grid", "50",
                        "--out", str(tmp_path / "eh"))
    assert json.loads(out.splitlines()[-1]) == {"code": 0, "numpy.random": False}


def test_verify_never_imports_numpy_random(tmp_path):
    # every sampled check draws from its random.Random(seed); numpy.random
    # would hold about 5 MiB of a verify pass's peak memory
    out = _fresh_python(COMMAND_RUN, "verify", "--seed", "3",
                        "--out", str(tmp_path / "verify.json"))
    assert json.loads(out.splitlines()[-1]) == {"code": 0, "numpy.random": False}
    assert json.loads((tmp_path / "verify.json").read_text())["passed"] == len(VERIFY_IDS)


def test_verify_single_suite_passes(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(["verify", "--suite", "flow", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["failed"] == 0
    assert all(r["status"] == "pass" for r in rep["checks"])


def test_verify_unknown_suite_is_usage_error(capsys):
    assert run(["verify", "--suite", "nope"]) == 2


def test_nonpositive_tolerance_is_usage_error():
    assert run(["flow", "--tol", "-1"]) == 2
    # verify has no --tol: no verify check reads a global tolerance
    with pytest.raises(SystemExit) as info:
        run(["verify", "--tol", "1e-10"])
    assert info.value.code == 2


def test_corrupted_model_fails_naming_the_check(tmp_path, capsys):
    bad = {"dim": 7, "generators": [f"t{i}" for i in range(1, 8)],
           "d": {"t3": [["1", [1, 2]]],
                 "t4": [["1", [1, 2]], ["1", [3, 4]]]}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code = run(["verify", "--suite", "forms", "--model", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "check_d_squared" in captured.out + captured.err


def _supplied_model_row(tmp_path, data):
    path, out = tmp_path / "model.json", tmp_path / "report.json"
    path.write_text(json.dumps(data))
    code = run(["verify", "--suite", "liecdga", "--model", str(path), "--out", str(out)])
    rows = {r["id"]: r for r in json.loads(out.read_text())["checks"]}
    return code, rows["liecdga.check_d_squared.custom_model"]


@pytest.mark.parametrize("data, pairs", [
    (model_to_dict(catalog.nakamura_model()), 127 ** 2),
    (model_to_dict(catalog.ffkm_model()), 127 ** 2),
    ({"dim": 3, "generators": ["a", "b", "c"], "d": {"c": [["1", [1, 2]]]}}, 7 ** 2),
], ids=["nakamura", "ffkm", "heisenberg3"])
def test_a_supplied_model_gets_d_squared_on_all_forms(tmp_path, data, pairs):
    # d^2 = 0 on the generators and the Leibniz rule on every pair of
    # nonempty masks below 1 << dim of the model's own d table
    code, row = _supplied_model_row(tmp_path, data)
    assert code == 0 and row["status"] == "pass"
    assert "d^2 = 0 on all forms" in row["detail"]
    assert f"all {pairs} basis pairs" in row["detail"]


def test_a_supplied_model_fails_the_leibniz_proof_on_a_wrong_sign_table(tmp_path,
                                                                       monkeypatch):
    data = model_to_dict(catalog.ffkm_model())
    monkeypatch.setattr(forms, "_SIGN", _negated_sign(0b111, 0b111000))
    code, row = _supplied_model_row(tmp_path, data)
    assert code == 1 and row["status"] == "fail"
    assert row["detail"].startswith("supplied model: d(e34 ^ e456) != ")


def test_a_model_with_a_negative_volume_fails_naming_the_key(tmp_path):
    data = model_to_dict(catalog.nakamura_model())
    data["domain_volume"] = "-3"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "report.json"
    code = run(["verify", "--suite", "liecdga", "--model", str(path), "--out", str(out)])
    assert code == 1
    rows = {r["id"]: r for r in json.loads(out.read_text())["checks"]}
    row = rows["liecdga.check_d_squared.custom_model"]
    assert row["status"] == "fail"
    assert "'domain_volume'" in row["detail"] and "'-3'" in row["detail"]
    assert all(r["status"] == "pass" for cid, r in rows.items() if cid != row["id"])


@pytest.mark.parametrize("data, problem", [
    ({"dim": 2, "generators": ["a", "b"], "d": {"a": [[True, [True, 2]]]}},
     "rationals must be strings or ints, got True"),
    ({"dim": 2, "generators": ["a", "b"], "d": {"zz": [["1", [1, 2]]]}},
     "'d' names generators ['zz']"),
    ({"generators": ["a", "b"]}, "ValueError: the model has no 'dim' entry"),
    ({"dim": 2}, "ValueError: the model has no 'generators' entry"),
    ({"dim": 2, "generators": ["a", "b"], "witnesses": {"w": {"primitive": [["1", [1]]]}}},
     "ValueError: witness 'w' has no 'target' entry"),
    ([{"dim": 2}], "ValueError: the model is a list, not a JSON object"),
    ({"dim": 2, "generators": ["a", "b"], "d": {"a": [["1"]]}},
     "ValueError: term ['1'] is not a [coefficient, index list] pair"),
    ({"dim": 2, "generators": "ab"},
     "ValueError: 'generators' must be a list of names, got 'ab'"),
    ({"dim": 2, "generators": ["a", "b"], "d": {"a": [["1", 12]]}},
     "ValueError: term ['1', 12] is not a [coefficient, index list] pair"),
], ids=["bool", "unknown_generator", "no_dim", "no_generators", "witness_without_target",
        "top_level_list", "one_element_term", "generators_string", "index_not_a_list"])
def test_malformed_model_fails_with_the_problem_named(tmp_path, data, problem):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "report.json"
    code = run(["verify", "--suite", "forms", "--model", str(path), "--out", str(out)])
    assert code == 1
    rows = {r["id"]: r for r in json.loads(out.read_text())["checks"]}
    row = rows["liecdga.check_d_squared.custom_model"]
    assert row["status"] == "fail"
    assert problem in row["detail"]


def test_scan_deterministic(tmp_path, capsys):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["scan", "--grid", "6", "--seed", "5", "--out", str(p1)]) == 0
    assert run(["scan", "--grid", "6", "--seed", "5", "--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header.startswith("lambda1,") and header.endswith("volume_factor,exact")


def test_flow_command_writes_trajectory(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = run(["flow", "--alpha", "1", "--lambda", "1",
                "--t-end", "1", "--steps", "2000", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,mu_numeric,mu_closed,abs_err"
    assert len(lines) == 2002
    assert max(float(l.split(",")[3]) for l in lines[1:]) < 1e-10


def test_flow_command_streams_its_trajectory(tmp_path, capsys):
    # each row is written as it is computed, so the traced peak stays far
    # under the ~17 MiB that a list of 10^5 row tuples holds
    out, ref = tmp_path / "traj.csv", tmp_path / "ref.csv"
    tracemalloc.start()
    try:
        assert run(["flow", "--steps", "100000", "--out", str(out)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert capsys.readouterr().out.startswith(f"wrote 100001 trajectory rows to {out};")
    flow.trajectory_to_csv(list(flow.flow_integrate(1.0, 1.0, 1.0, 100000)), ref)
    assert out.read_bytes() == ref.read_bytes()


def test_flow_has_no_beta_flag(tmp_path, capsys):
    # the flow line mu(t) does not depend on beta, so flow takes no --beta
    with pytest.raises(SystemExit) as info:
        run(["flow", "--beta", "2", "--out", str(tmp_path / "traj.csv")])
    assert info.value.code == 2
    assert list(tmp_path.iterdir()) == []


def test_eh_command_emits_profile_and_certificate(tmp_path, capsys):
    prefix = tmp_path / "eh"
    code = run(["eh", "--t", "0.1", "--R", "auto", "--c", "auto",
                "--grid", "100", "--out", str(prefix)])
    assert code == 0
    cert = json.loads((tmp_path / "eh_certificate.json").read_text())
    assert cert["min_margin"] < 1.0
    assert (tmp_path / "eh_profile.csv").exists()


def test_eh_command_is_the_same_on_a_cold_and_a_filled_shoulder_memo(
        tmp_path, monkeypatch):
    monkeypatch.setattr(ehmetric, "_SHOULDER_MEMO", {})
    for name in ("cold", "warm"):
        assert run(["eh", "--t", "0.1", "--grid", "60",
                    "--out", str(tmp_path / name)]) == 0
    for suffix in ("_profile.csv", "_certificate.json"):
        assert ((tmp_path / f"cold{suffix}").read_bytes()
                == (tmp_path / f"warm{suffix}").read_bytes())


@pytest.fixture
def steep_profiles(monkeypatch):
    """Every profile built from here on has three times the slope a', as
    in test_ehmetric, so its positivity certificate raises ConstructionFailed."""
    build = ehmetric.build_profile

    def steep_profile(*args):
        p = build(*args)
        slopes = p.slopes

        def steep(lam):
            k, h, ap, app = slopes(lam)
            return k, h, 3.0 * ap, app

        monkeypatch.setattr(p, "slopes", steep)
        return p

    monkeypatch.setattr(ehmetric, "build_profile", steep_profile)


def test_eh_command_fails_cleanly_when_positivity_fails(tmp_path, steep_profiles,
                                                      capsys):
    # a failed certificate must end the command with exit code 1
    prefix = tmp_path / "eh"
    assert run(["eh", "--t", "1", "--R", "4", "--grid", "50",
                "--out", str(prefix)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("certificate failed: positivity margin")
    assert not (tmp_path / "eh_certificate.json").exists()
    assert not (tmp_path / "eh_profile.csv").exists()


def test_eh_empty_grid_is_usage_error(tmp_path):
    # an empty grid certifies nothing
    assert run(["eh", "--grid", "0", "--out", str(tmp_path / "eh")]) == 2
    assert not (tmp_path / "eh_certificate.json").exists()


@pytest.mark.parametrize("argv", [
    ["collapse", "--mu", "0"], ["collapse", "--mu", "1,abc"],
    ["collapse", "--model", "ffkm", "--mu", "2"],
    # one mu has nothing to compare; on nakamura it once printed pass = true
    ["collapse", "--mu", "1"], ["collapse", "--mu", "2,2"],
    # past mu = 100 the ffkm chart gap sinks into float rounding
    ["collapse", "--model", "ffkm", "--mu", "2,1000"],
    ["collapse", "--mu", "inf"], ["collapse", "--model", "ffkm", "--mu", "2,inf"],
    ["flow", "--steps", "0"], ["flow", "--t-end", "-1"], ["flow", "--lambda", "1,x"],
    ["flow", "--lambda", "0,0"], ["flow", "--alpha", "0"], ["flow", "--alpha", "nan"],
    ["flow", "--alpha", "inf"], ["flow", "--t-end", "inf"], ["flow", "--tol", "inf"],
    ["eh", "--t", "0"], ["eh", "--c", "3"], ["eh", "--R", "abc"],
    ["scan", "--grid", "0"], ["verify", "--seed", "-1"], ["scan", "--seed", "-1"],
    ["eh", "--seed", "-1"],
    # finite values past the float range of the work: each once ended in an
    # OverflowError, ZeroDivisionError or ValueError traceback
    ["collapse", "--mu", "1e300"], ["collapse", "--model", "ffkm", "--mu", "2,1e300"],
    ["flow", "--alpha", "1e300"], ["flow", "--alpha", "1e-200"],
    ["flow", "--steps", "1", "--t-end", "1e300"], ["flow", "--lambda", "1e300"],
    ["eh", "--t", "1e300"], ["eh", "--t", "1e-300"], ["eh", "--R", "1e300"],
    ["eh", "--t", "1000", "--c", "1e-300"],
], ids=" ".join)
def test_out_of_domain_values_are_usage_errors(argv, tmp_path, capsys):
    # exit 2 with one stderr line naming the flag, and no output file
    assert run(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(argv[-2]), err
    assert list(tmp_path.iterdir()) == []


def test_collapse_command_reports_lambda_one(tmp_path, capsys):
    out = tmp_path / "col.json"
    code = run(["collapse", "--model", "nakamura",
                "--mu", "1,2,4,8,16", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["pass"] is True
    for lam in rep["lambdas"].values():
        assert abs(lam - 1.0) < 1e-6


def _hand_rolled_json(report):
    """The converter report_to_json once carried, as the reference."""
    def clean(obj):
        if isinstance(obj, dict):
            return {str(k): clean(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [clean(v) for v in obj]
        if isinstance(obj, (np.floating, np.integer)):
            return float(obj)
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        if isinstance(obj, np.bool_):
            return bool(obj)
        return obj
    return json.dumps(clean(report), indent=2).encode()


@pytest.mark.parametrize("model", ["nakamura", "ffkm"])
def test_collapse_report_json_matches_the_hand_rolled_converter(model, tmp_path,
                                                                monkeypatch):
    seen, real = [], collapse.report_to_json
    monkeypatch.setattr(collapse, "report_to_json",
                        lambda rep, path: seen.append(rep) or real(rep, path))
    out = tmp_path / "col.json"
    assert run(["collapse", "--model", model, "--out", str(out)]) == 0
    assert out.read_bytes() == _hand_rolled_json(seen[0])


def _one_entry_off(data, read):
    """`data` with one entry of its `read` ("metric", "sqrt_det" or
    "vol_cubed") off by 2^-80, which rounds to the same float."""
    value = getattr(data, read)
    if read == "metric":
        value = [row[:] for row in value]
        value[0][0] += Fraction(1, 2 ** 80)
    else:
        value += Fraction(1, 2 ** 80)
    setattr(data, read, value)
    return data


@pytest.mark.parametrize("check, read", [
    ("_check_standard_metric", "metric"), ("_check_su2_nu8", "metric"),
    ("_check_mu2_volume", "sqrt_det"), ("_check_mu4_hitchin", "vol_cubed")])
def test_exact_checks_fail_on_data_one_entry_off_by_2_to_the_minus_80(check, read,
                                                                       monkeypatch):
    # each check reads Fractions off G2Data: one that compared their floats
    # would pass on a metric entry 1 + 2^-80
    real = cli.is_g2_type
    monkeypatch.setattr(cli, "is_g2_type", lambda phi: _one_entry_off(real(phi), read))
    ok, _ = getattr(cli, check)(random.Random(0))
    assert not ok


def test_the_exactness_witness_check_names_the_mismatching_forms(monkeypatch):
    # a witness whose target is three times d(rho) fails through
    # verify_primitive, and the detail shows both forms
    m = catalog.nakamura_model()
    rho, target = m.witnesses["two_g1_wedge_omega"]
    wrong = catalog.InvariantModel(m.eqs, m.named_forms,
                                   witnesses={"two_g1_wedge_omega": (rho, 3 * target)},
                                   label=m.label)
    monkeypatch.setattr(catalog, "nakamura_model", lambda: wrong)
    ok, detail = cli._check_exactness_witness(random.Random(0))
    assert not ok
    assert detail == f"rho primitive: d(primitive) = {target}, expected {3 * target}"


def test_glued_definite_check_names_the_indefinite_point(monkeypatch):
    # -phi has det B < 0: flip the fifth of the first mu's ten points
    flip = np.ones((10, 1))
    flip[4] = -1.0
    batch = catalog.metric_batch
    monkeypatch.setattr(catalog, "metric_batch", lambda rows: batch(rows * flip))
    ok, detail = cli._check_glued_definite(random.Random(0))
    fifth = ehmetric.uniforms(random.Random(0), -0.05, 0.05, (10, 7))[4]
    assert not ok
    assert detail.startswith(f"not definite at mu=1, (y1={fifth[0]:.4g}, y2=")
    assert f"y7={fifth[6]:.4g}): det B = " in detail
    assert detail.endswith("<= 0 at sample 4")


def test_eh_certificate_check_fails_when_positivity_fails(tmp_path, steep_profiles,
                                                         capsys):
    # a failed certificate must fail the check rather than crash verify
    out = tmp_path / "report.json"
    assert run(["verify", "--suite", "eh", "--out", str(out)]) == 1
    status = {r["id"]: r for r in json.loads(out.read_text())["checks"]}
    row = status["eh.positivity_and_volume"]
    assert row["status"] == "fail"
    assert row["detail"].startswith("ConstructionFailed: positivity margin")


def test_random_invariant_forms_take_one_draw_per_index():
    # the forms (and the generator state after them) of one bulk draw are
    # those of one scalar draw per index, in index order
    from itertools import combinations
    for seed in range(5):
        scalar, batched = random.Random(seed), random.Random(seed)
        for k in (0, 1, 2, 3, 7, 4, 2):
            want = {}
            for idx in combinations(range(1, 8), k):
                c = scalar.choices(range(-4, 5))[0]
                if c:
                    want[idx] = c
            got = cli._rand_invariant_form(batched, k)
            assert got.coeffs == want and list(got.coeffs) == list(want)
        assert scalar.random() == batched.random()


#: the checks that run the exact Hodge star on sampled rational inputs
EXACT_STAR_CHECKS = ["_check_star_star", "_check_seven_vol", "_check_su2_random_nu"]


@pytest.mark.parametrize("seed", [4, 13, 88, 930])
@pytest.mark.parametrize("check", EXACT_STAR_CHECKS)
def test_exact_star_checks_pass_where_the_float_star_failed(check, seed):
    # the float star failed **a = a at seeds 4, 13 and 930 and 7 vol at
    # seed 88 of numpy's generator by conditioning; the exact checks have
    # no tolerance, and they pass at these seeds' draws
    ok, detail = getattr(cli, check)(random.Random(seed))
    assert ok, detail
    assert "exact" in detail and "false-pass bound per sample" in detail


@pytest.mark.parametrize("check", EXACT_STAR_CHECKS)
def test_exact_star_checks_reject_a_float_star_with_exact_values(check, monkeypatch):
    # a float 1.0 equals Fraction(1): a star whose coefficients are floats
    # must not pass, even where its values are right.  The exact star
    # refuses a float form (TypeError), a wedge refuses to mix rings
    # (MixedRingError), and a float form never equals a rational one
    real = cli.star_parts
    monkeypatch.setattr(cli, "star_parts",
                        lambda data, a: (lambda y, p: (y.in_ring("float"), p))(*real(data, a)))
    try:
        ok, detail = getattr(cli, check)(random.Random(0))
    except (TypeError, MixedRingError):
        return
    assert not ok, detail


@pytest.mark.parametrize("cid", ["g2core.star_star_identity", "g2core.phi_wedge_star_phi_7vol",
                                 "flow.laplacian_unit_point"])
def test_the_star_checks_fail_on_a_wrong_sign_in_the_star_kernel(cid, monkeypatch):
    # no tautology: the exact star's kernel reads its signs from
    # g2core._SIGN, and with the row of axis 4 negated every check that
    # stands on the star turns red at seed 0
    check = dict(cli.CHECKS)[cid]
    ok, detail = check(random.Random(0))
    assert ok, detail
    table = list(g2core._SIGN)
    table[1 << 3] = [-s for s in table[1 << 3]]
    monkeypatch.setattr(g2core, "_SIGN", tuple(table))
    ok, detail = check(random.Random(0))
    assert not ok, detail


def _negated_sign(a, b):
    """forms._SIGN with the sign of theta^A ^ theta^B negated in both orders,
    so that graded commutativity still holds."""
    table = [list(row) for row in forms._SIGN]
    table[b][a], table[a][b] = -table[b][a], -table[a][b]
    return tuple(table)


@pytest.fixture
def rebuilt_models():
    """The catalog's models, and the forms cached from them, are built
    afresh in this test and after it: table rows filled under a mutant must
    not reach another test."""
    caches = (catalog.nakamura_model, catalog.ffkm_model, catalog._phi_basis,
              catalog._ch_data, catalog._alpha_and_d)
    for f in caches:
        f.cache_clear()
    yield
    for f in caches:
        f.cache_clear()


#: sign-table mutants that keep graded commutativity: the masks of
#: theta^12345 ^ theta^7 and of theta^123 ^ theta^456
SIGN_MUTANTS = {"e12345^e7": (0b11111, 1 << 6), "e123^e456": (0b111, 0b111000)}


@pytest.mark.parametrize("mutant", SIGN_MUTANTS)
def test_the_algebra_checks_fail_on_a_wrong_sign_in_the_table(mutant, monkeypatch,
                                                              rebuilt_models):
    # when these checks sampled dense products, all 48 checks passed under
    # the first mutant at seeds 0-9, and only liecdga.leibniz caught the
    # second.  The table is not associative under either; the Leibniz rule
    # breaks on both models under the first, and under the second only on
    # the nilmanifold model, at e34 ^ e456, a pair that shares axis 4
    checks = dict(cli.CHECKS)
    red = ["forms.wedge_associativity", "liecdga.leibniz"]
    for cid in red:
        ok, detail = checks[cid](random.Random(0))
        assert ok, detail
    monkeypatch.setattr(forms, "_SIGN", _negated_sign(*SIGN_MUTANTS[mutant]))
    for seed in range(10):
        for cid in red:
            ok, detail = checks[cid](random.Random(seed))
            assert not ok, (cid, seed, detail)
        ok, detail = checks["forms.graded_commutativity"](random.Random(seed))
        assert ok, detail


def _overwriting_wedge(self, other):
    """KForm.wedge with each product written over the sum so far at its
    index instead of added to it."""
    deg = self.degree + other.degree
    if deg > self.dim:
        return KForm.zero(self.dim, self.dim)
    (a, da), (b, db) = self._ints(), other._ints()
    out = {}
    for i1, c1 in a.items():
        for i2, c2 in b.items():
            merged, sign = forms.merge_sign(forms._MASKS[i1], forms._MASKS[i2])
            if sign:
                out[merged] = sign * c1 * c2
    return KForm._trusted(self.dim, deg, RAT, out, da * db)


@pytest.mark.parametrize("cid", ["forms.graded_commutativity", "forms.wedge_associativity"])
def test_the_wedge_checks_fail_on_a_wedge_that_overwrites(cid, monkeypatch):
    # the table proofs cannot see how the kernel sums its products, and a
    # product of two basis monomials has one term: only the dense samples
    # catch it
    monkeypatch.setattr(KForm, "wedge", _overwriting_wedge)
    for seed in range(10):
        ok, detail = dict(cli.CHECKS)[cid](random.Random(seed))
        assert not ok and "not additive and homogeneous" in detail, (seed, detail)


@pytest.mark.parametrize("label, model", [("product model", "nakamura_model"),
                                          ("nilmanifold model", "ffkm_model")])
def test_the_leibniz_check_fails_on_one_integer_off_in_a_d_table_row(label, model,
                                                                     rebuilt_models):
    check = dict(cli.CHECKS)["liecdga.leibniz"]
    ok, detail = check(random.Random(0))
    assert ok, detail
    eqs = getattr(catalog, model)().eqs
    (idx, k), *rest = eqs._table[(4, 5)]
    eqs._table[(4, 5)] = ((idx, k + 1), *rest)
    ok, detail = check(random.Random(0))
    assert not ok and detail.startswith(f"{label}: d("), detail


def _with_r_cubed_times_8(real):
    """is_g2_type with r^3 (and so vol^3) multiplied by 8: wrong data that
    is still exact."""
    def wrong(phi):
        data = real(phi)
        data._r3 *= 8
        data.vol_cubed *= 8
        return data
    return wrong


@pytest.mark.parametrize("check", EXACT_STAR_CHECKS)
def test_exact_star_checks_fail_on_a_wrong_r_cubed(check, monkeypatch):
    # no tautology: r^3 times 8 scales **a by 1/8^3 and phi ^ *phi by 1/8^2
    monkeypatch.setattr(cli, "is_g2_type", _with_r_cubed_times_8(cli.is_g2_type))
    ok, detail = getattr(cli, check)(random.Random(0))
    assert not ok, detail


def test_flow_family_check_fails_on_a_wrong_r_cubed(monkeypatch):
    from g2calc import flow
    ok, detail = cli._check_flow_family(random.Random(0))
    assert ok and detail.endswith("relative gap of the cubes 0, exact")
    monkeypatch.setattr(flow, "is_g2_type", _with_r_cubed_times_8(flow.is_g2_type))
    ok, detail = cli._check_flow_family(random.Random(0))
    # Delta phi scales by 2 / 8^3, so its cube by 8 / 8^9 = 2^-24
    assert not ok and "relative gap of the cubes 16777215/16777216, exact" in detail


def test_one_verify_pass_measures_the_comparison_constants_once(monkeypatch):
    calls = []

    def counting(rng, real=collapse.measure_metric_comparison):
        calls.append(1)
        return real(rng)

    monkeypatch.setattr(collapse, "measure_metric_comparison", counting)
    ids = ("collapse.global_lower_bound", "collapse.metric_comparison_constants")
    checks = dict(build_suites(4)["collapse"])
    shared = [checks[cid]() for cid in ids]
    assert len(calls) == 1
    # each check alone, measuring for itself, reports the same
    assert [dict(build_suites(4)["collapse"])[cid]() for cid in ids] == shared
    assert len(calls) == 3
    # a generator that finds the measurement shared ends where the draws
    # leave one that made them: the comparison check's 30 pairs follow it
    made, shared_rng, direct = random.Random(4), random.Random(4), random.Random(4)
    cli._comparison_from.cache_clear()
    assert cli._metric_comparison(made) == cli._metric_comparison(shared_rng)
    counting(direct)
    assert len(calls) == 5
    assert made.getstate() == shared_rng.getstate() == direct.getstate()
