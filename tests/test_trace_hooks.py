"""The benchmark's span tracer must find every function it patches."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_patches():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCHES + module.UPDATE_CLOCK


def test_every_traced_attribute_resolves():
    # A renamed or removed attribute makes a traced benchmark run raise.
    missing = []
    for mod_name, attr, *_ in _load_patches():
        owner = importlib.import_module(mod_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
            if owner is None:
                missing.append(f"{mod_name}.{attr}")
                break
        else:
            assert callable(owner), f"{mod_name}.{attr} is not callable"
    assert not missing, f"traced attributes not found: {missing}"
