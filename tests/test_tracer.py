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
