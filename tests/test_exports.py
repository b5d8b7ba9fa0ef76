"""The package exports exactly the union of its modules' lists."""

import importlib
import re
from pathlib import Path

import liberlab
from liberlab import errors

MODULES = [
    importlib.import_module(f"liberlab.{name}")
    for name in ("densities", "ensemble", "entropy", "fisher", "grassmann", "laws", "liberation", "potentials")
]
EXCEPTIONS = {"NumericalError", "ValidationError"}


def test_module_lists_are_pairwise_disjoint():
    seen = set(EXCEPTIONS)
    for module in MODULES:
        listed = set(module.__all__)
        assert len(listed) == len(module.__all__), module.__name__
        assert not listed & seen, (module.__name__, listed & seen)
        seen |= listed


def test_every_listed_name_is_the_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(liberlab, name) is getattr(module, name), (module.__name__, name)
    for name in EXCEPTIONS:
        assert getattr(liberlab, name) is getattr(errors, name)


def test_package_list_is_the_union_of_the_module_lists():
    union = set().union(*(module.__all__ for module in MODULES))
    assert set(liberlab.__all__) == {"__version__", *EXCEPTIONS, *union}
    assert len(liberlab.__all__) == len(set(liberlab.__all__)) == 86


def test_readme_quick_start_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"```python\n(.*?)```", readme, re.DOTALL).group(1)
    assert "from liberlab import" in block
    exec(compile(block, "README.md", "exec"), {})
