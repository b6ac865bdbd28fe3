"""The benchmark's layer tracer wraps names that exist.

``benchmarks/e2e/layers.py`` patches each ``TARGETS`` entry by name
while ``run.py --trace 1`` runs.  A renamed or deleted method would
only fail there, so this tier-1 check resolves every entry up front.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

_LAYERS = (
    Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "layers.py"
)


def _targets():
    spec = importlib.util.spec_from_file_location("e2e_layers", _LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.TARGETS


@pytest.mark.parametrize(
    "target", _targets(), ids=lambda t: ".".join(filter(None, t[1:4]))
)
def test_layer_target_resolves(target):
    _, module_name, owner, attr, _ = target
    scope = importlib.import_module(module_name)
    if owner is not None:
        scope = getattr(scope, owner)
    assert callable(getattr(scope, attr))
