"""The package namespace re-exports each module's public names."""

import scottlab
from scottlab import coherent, numerics, scott, semiclassics, spectra, thomas_fermi

MODULES = (coherent, numerics, scott, semiclassics, spectra, thomas_fermi)


def test_all_is_the_union_of_the_module_lists():
    expected = {name for module in MODULES for name in module.__all__}
    assert set(scottlab.__all__) == expected | {"__version__"}
    assert len(scottlab.__all__) == len(set(scottlab.__all__))


def test_every_exported_name_resolves():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(scottlab, name) is getattr(module, name)
    assert isinstance(scottlab.__version__, str)
