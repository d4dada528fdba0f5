"""The benchmark's tracer wraps darboux functions and methods by name and
reads a few jet-space tables; every name it needs must still resolve."""

import importlib
import importlib.util
from pathlib import Path

from darboux.jets import JetSpace

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves_as_install_resolves_it():
    """A dotted name is a method in its class's own ``__dict__``; a plain
    name is a module attribute."""
    missing = []
    for layer, targets in load_tracer().LAYERS.items():
        for module_name, attr in targets:
            owner = importlib.import_module(f"darboux.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                found = method in vars(getattr(owner, cls_name, object))
            else:
                found = hasattr(owner, attr)
            if not found:
                missing.append((layer, module_name, attr))
    assert not missing


def test_jet_space_keeps_the_tables_the_tracer_summary_reads():
    space = JetSpace(2, 3)
    degrees = space.degrees
    useful = degrees[space.mul_i] + degrees[space.mul_j] <= 2
    assert len(space.mul_i) == len(space.mul_j) == space.mul_end[-1] and useful.any()
