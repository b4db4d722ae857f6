"""The golden files are exactly what scripts/regenerate_goldens.py writes.

``test_golden_bytes`` pins each CLI golden one command at a time; this test
reruns the whole generator and also pins the goldens no single command
produces, such as ``equivalence_quadruples.txt`` and ``claim_audit.json``.
"""

import importlib.util
import sys

from zinbielkit.fuzz import DEFAULT_SEED


def _load_generator(root, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "regenerate_goldens", root / "scripts" / "regenerate_goldens.py"
    )
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclass looks itself up
    spec.loader.exec_module(module)
    return module


def test_regenerated_goldens_match_bytes(request, goldens_dir, tmp_path, monkeypatch):
    root = request.config.rootpath
    generator = _load_generator(root, monkeypatch)
    monkeypatch.chdir(root)  # corpus paths inside goldens are repo-root relative
    out = tmp_path / "goldens"
    generator.write_goldens(out, DEFAULT_SEED)
    generator.verify_witnesses(out)

    written = sorted(p.name for p in out.iterdir())
    assert written == sorted(p.name for p in goldens_dir.iterdir())
    for name in written:
        assert (out / name).read_bytes() == (goldens_dir / name).read_bytes(), name
