"""The lazy export table of the package agrees with the module lists."""

import importlib

import liberlab

MODULES = sorted(set(liberlab._EXPORTS.values()))


def listed(module_name):
    module = importlib.import_module(f"liberlab.{module_name}")
    if module_name == "errors":
        # errors keeps no __all__; its public names are its two exceptions
        assert not hasattr(module, "__all__")
        return ["ValidationError", "NumericalError"]
    return module.__all__


def test_export_table_serves_every_listed_name():
    for module_name in MODULES:
        module = importlib.import_module(f"liberlab.{module_name}")
        for name in listed(module_name):
            assert liberlab._EXPORTS.get(name) == module_name, (module_name, name)
            assert getattr(liberlab, name) is getattr(module, name)


def test_export_table_lists_only_listed_names():
    for name, module_name in liberlab._EXPORTS.items():
        assert name in listed(module_name), (module_name, name)
    assert set(liberlab.__all__) == {"__version__", *liberlab._EXPORTS}
