"""The package namespace and the modules' `__all__` lists name the same functions.

Tooling that wraps the public calls walks each module's `__all__` and
rebinds the wrapped function wherever it is bound, the package namespace
included; a stale entry on either side would leave a call unwrapped.
"""
import types

import pytest

import otlab
from otlab import costs, measures, meshing, neumann, trajectories, transport

MODULES = (costs, measures, meshing, neumann, trajectories, transport)


def _functions(namespace, names):
    return {name: getattr(namespace, name) for name in names
            if isinstance(getattr(namespace, name), types.FunctionType)}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_functions_are_bound_on_the_package(module):
    for name, fn in _functions(module, module.__all__).items():
        assert fn.__module__ == module.__name__, name
        assert getattr(otlab, name, None) is fn, name


def test_package_functions_are_in_their_module_all():
    public = _functions(otlab, [n for n in vars(otlab) if not n.startswith("_")])
    assert public
    for name, fn in public.items():
        module = next(m for m in MODULES if m.__name__ == fn.__module__)
        assert name in module.__all__, name
