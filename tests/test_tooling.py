"""The benchmark's tracer (perfbench/layers.py) still finds what it wraps.

The tracer replaces package functions by name, so a rename or a deletion
in the package would silently leave a layer untraced.
"""

import importlib
import importlib.util
import os

import pytest

LAYERS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "layers.py")


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = _layers()


@pytest.mark.parametrize("metric, modname, attr, kind", layers.SPANS,
                         ids=[f"{m}:{a}" for _, m, a, _ in layers.SPANS])
def test_tracer_span_targets_resolve(metric, modname, attr, kind):
    module = importlib.import_module(modname)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert callable(getattr(module, cls_name).__dict__.get(meth))
    else:
        assert callable(getattr(module, attr, None))


def test_tracer_counts_have_spans():
    spans = {(modname, attr) for _, modname, attr, _ in layers.SPANS}
    assert set(layers.COUNTS) <= spans
