"""The golden files are exactly what scripts/regenerate_goldens.py writes.

``test_golden_bytes`` pins each CLI golden one command at a time; this test
reruns the whole generator and also pins the goldens no single command
produces, such as ``equivalence_quadruples.txt`` and ``claim_audit.json``.
"""

import importlib.util
from pathlib import Path

from zinbielkit.fuzz import DEFAULT_SEED


def load_generator():
    """scripts/regenerate_goldens.py, loaded as a module."""
    spec = importlib.util.spec_from_file_location(
        "regenerate_goldens", Path(__file__).parents[1] / "scripts" / "regenerate_goldens.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_regenerated_goldens_match_bytes(request, goldens_dir, tmp_path, monkeypatch):
    root = request.config.rootpath
    generator = load_generator()
    monkeypatch.chdir(root)  # corpus paths inside goldens are repo-root relative
    out = tmp_path / "goldens"
    generator.write_goldens(out, DEFAULT_SEED)
    generator.verify_witnesses(out)

    written = sorted(p.name for p in out.iterdir())
    assert written == sorted(p.name for p in goldens_dir.iterdir())
    for name in written:
        assert (out / name).read_bytes() == (goldens_dir / name).read_bytes(), name
