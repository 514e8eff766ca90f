"""The committed kernel modules are exactly what tools/gen_kernels.py emits."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GENERATOR = ROOT / "tools" / "gen_kernels.py"


def _generator():
    spec = importlib.util.spec_from_file_location("gen_kernels", GENERATOR)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_committed_kernels_match_generator_byte_for_byte():
    rendered = _generator().render()
    assert sorted(p.name for p in rendered) == ["_kernels.py", "_reduce.py"]
    for path, text in rendered.items():
        assert path.read_bytes() == text.encode("utf-8"), f"{path.name} is stale"
