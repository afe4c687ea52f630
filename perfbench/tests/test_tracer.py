"""The tracer: self-time arithmetic, wrapping every imported copy, and
traced runs that neither change outputs nor vary in their counts."""
import inspect
import json
import time

import pytest

import run
import tracer as tr
from workloads import exact_inputs, exact_pass


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_a_synthetic_call_tree():
    clock = FakeClock()
    t = tr.Tracer(clock=clock)
    f = {}

    def leaf():
        clock.now += 5

    def mid():
        clock.now += 3
        f["leaf"]()

    def outer():
        clock.now += 1
        f["mid"]()
        clock.now += 2
        f["leaf"]()

    def rec(n):
        clock.now += 1
        if n:
            f["rec"](n - 1)

    def boom():
        clock.now += 4
        raise ValueError("boom")

    for name, fn in (("leaf", leaf), ("mid", mid), ("outer", outer), ("rec", rec),
                     ("boom", boom)):
        f[name] = t.wrap(f"m.{name}", fn)

    with t.span("top"):
        f["outer"]()                     # 1 + (3 + 5) + 2 + 5 = 16
        f["rec"](3)                      # four nested calls, 1 each
        with pytest.raises(ValueError):
            f["boom"]()
        clock.now += 7                   # top's own work

    s = t.summary()
    assert s["m.outer"] == {"calls": 1, "total_s": 16.0, "self_s": 3.0, "failed": 0}
    assert s["m.mid"] == {"calls": 1, "total_s": 8.0, "self_s": 3.0, "failed": 0}
    assert s["m.leaf"] == {"calls": 2, "total_s": 10.0, "self_s": 10.0, "failed": 0}
    assert s["m.rec"] == {"calls": 4, "total_s": 4 + 3 + 2 + 1, "self_s": 4.0,
                          "failed": 0}
    assert s["m.boom"] == {"calls": 1, "total_s": 4.0, "self_s": 4.0, "failed": 1}
    assert s["top"]["total_s"] == 16 + 4 + 4 + 7
    assert s["top"]["self_s"] == 7.0
    assert t.calls_under("m.leaf", "m.mid") == 1
    assert t.calls_under("m.leaf", "top") == 2
    assert t._stack == []


def test_count_only_helpers_get_no_span():
    t = tr.Tracer()
    merge = t.wrap("forms.merge_sign", lambda a, b: (a + b, 1))
    for _ in range(3):
        assert merge((1,), (2,)) == ((1, 2), 1)
    assert t.summary()["forms.merge_sign"] == {"calls": 3}
    assert len(t.start) == 0


# (module, attribute) pairs that are imported copies of another module's function
COPIES = {
    "g2core.is_g2_type": ["cli", "scaling", "catalog", "flow", "collapse"],
    "g2core.hodge_star": ["cli", "flow"],
    "g2core.metric_batch": ["collapse"],
    "catalog.glued_form_at": ["collapse"],
    "forms.merge_sign": ["g2core", "liecdga"],
}


def _snapshot(modules):
    """Identity of every attribute of the layer modules and their classes."""
    snap = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            snap[(layer, attr)] = obj
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for mattr, member in vars(obj).items():
                    snap[(layer, obj.__name__, mattr)] = member
    return snap


def test_install_wraps_every_imported_copy_and_uninstall_restores():
    import importlib
    modules = {layer: importlib.import_module(f"g2calc.{layer}") for layer in tr.LAYERS}
    before = _snapshot(modules)
    originals = {name: getattr(modules[name.split(".")[0]], name.split(".")[1])
                 for name in COPIES}
    t = tr.Tracer()
    t.install()
    try:
        for name, users in COPIES.items():
            layer, attr = name.split(".")
            wrapper = getattr(modules[layer], attr)
            assert wrapper is not originals[name]
            assert wrapper.__wrapped__ is originals[name]
            for user in users:
                assert getattr(modules[user], attr) is wrapper, f"{user}.{attr}"
        forms = modules["forms"]
        assert forms.KForm.wedge.__wrapped__ is before[("forms", "KForm", "wedge")]
        assert isinstance(vars(forms.KForm)["basis"], classmethod)
        e1 = forms.KForm.basis(7, (1,))
        assert e1.wedge(forms.KForm.basis(7, (2,))) == forms.KForm.basis(7, (1, 2))
        s = t.summary()
        assert s["forms.KForm.basis"]["calls"] == 3
        assert s["forms.KForm.wedge"]["calls"] == 1
        assert s["forms.merge_sign"]["calls"] >= 1
    finally:
        t.uninstall()
    after = _snapshot(modules)
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_exact_outputs_are_identical_with_and_without_tracing(tmp_path):
    full = exact_inputs(11)
    inputs = {"tuples": full["tuples"][:60], "grid": full["grid"][:12]}
    plain = exact_pass(11, tmp_path, inputs=inputs)
    t = tr.Tracer()
    t.install()
    try:
        traced = exact_pass(11, tmp_path, t, inputs=inputs)
    finally:
        t.uninstall()
    assert plain["failed"] == traced["failed"] == 0
    assert plain["outputs"] == traced["outputs"]
    assert t.summary()["scaling.hitchin_scaling_law"]["calls"] == 60
    assert t.summary()["flow.laplacian"]["calls"] == 12


def test_call_counts_repeat_across_two_traced_runs(tmp_path):
    counts = []
    for i in range(2):
        workdir = tmp_path / f"w{i}"
        workdir.mkdir()
        rec = run._run_child(
            ["--workload", "exact", "--seed", "5", "--workdir", str(workdir),
             "--spans", str(tmp_path / f"spans{i}.json.gz")],
            tmp_path / f"r{i}.json", deadline=time.monotonic() + 120)
        counts.append({k: v for k, v in rec["layers"].items()
                       if run.layer_unit(k) in ("count", "bytes", "ratio", "calls/radius")})
    assert counts[0] == counts[1]
    assert counts[0]["scaling.hitchin_scaling_law.calls"] == 600
    assert counts[0]["forms.merge_sign.calls"] > 0


def test_benchmark_json_names_every_emitted_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layer_names = list(tr.layer_metrics(tr.Tracer())) + ["trace.run_s", "trace.overhead_s"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: run.layer_unit(name) for name in layer_names}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
