"""The package export lists name only what exists."""
import importlib

import pytest


@pytest.mark.parametrize("module", ["lexner", "lexner.tagger"])
def test_star_import_resolves_every_export(module):
    namespace: dict = {}
    exec(f"from {module} import *", namespace)
    mod = importlib.import_module(module)
    exported = getattr(mod, "__all__", [n for n in vars(mod) if not n.startswith("_")])
    assert set(exported) <= set(namespace)
