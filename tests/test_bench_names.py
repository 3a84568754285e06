"""The benchmark's traced runs wrap library functions by name; every name
they list must still exist, so a rename fails here first."""

import importlib
import importlib.util
from pathlib import Path

TRACED = Path(__file__).resolve().parent.parent / "bench" / "traced.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_name_exists():
    targets = [target for group in _targets().values() for target in group]
    assert targets
    for target in targets:
        owner = importlib.import_module(target[0])
        for attr in target[1:]:
            assert hasattr(owner, attr), ".".join(target)
            owner = getattr(owner, attr)
        assert callable(owner), ".".join(target)
