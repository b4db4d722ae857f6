"""The benchmark's layer tracer (``perfbench/spans.py``) finds every name it
patches, so a library change that drops one fails here, not only in a traced
benchmark run."""

import sys

import pytest

# Module names the benchmark's scripts import or register; removed again after
# each test so that no other test sees them.
_BENCH_MODULES = ("run", "spans", "reference", "run_claim_audit")


@pytest.fixture
def perfbench(request, monkeypatch):
    monkeypatch.syspath_prepend(str(request.config.rootpath / "perfbench"))
    for name in _BENCH_MODULES:
        monkeypatch.delitem(sys.modules, name, raising=False)
    import run
    import spans

    yield run, spans
    for name in _BENCH_MODULES:
        sys.modules.pop(name, None)


def test_every_tracer_patch_resolves(perfbench):
    run, spans = perfbench
    modules = run.zinbielkit_modules(run._load_script())
    originals = {
        (module, attr): getattr(spans._resolve(modules, module), attr.partition(".")[0])
        for module, attr, _, _ in spans.PATCHES
    }
    tracer = spans.Tracer()
    tracer.install(modules)
    tracer.remove()
    assert tracer.incomplete == set()
    for (module, attr), original in originals.items():
        assert getattr(spans._resolve(modules, module), attr.partition(".")[0]) is original


def test_traced_json_audit_times_emission_in_its_own_layers(perfbench, capsys):
    run, spans = perfbench
    import zinbielkit.cli

    tracer = spans.Tracer()
    tracer.install(run.zinbielkit_modules(run._load_script()))
    try:
        argv = ["audit", "--model", "trunc-int:left:3", "--format", "json"]
        rc = tracer.run_command("cli.self", 0, run._invoke, zinbielkit.cli.main, argv)
    finally:
        tracer.remove()
    assert rc == 0
    assert capsys.readouterr().out.startswith("{\n")
    metrics = spans.layer_metrics(tracer.spans)
    # audit.json is the report built (audit_report_jsonable), then encoded
    # (json.dumps); both are timed there and not in cli.self.
    assert metrics["audit.json.calls"] == 2
    assert metrics["reports.format.calls"] > 0
    assert metrics["audit.evaluate_claim.calls"] == 12
