"""Documentation gates: links, API-reference freshness, docstring coverage.

These run in the tier-1 suite so a broken internal link, a stale generated
API page, or a public ``sim``/``workloads``/``ftl``/``nand``/``fleet``/
``service`` object without a docstring fails the build -- the acceptance bar for the
docs site.
"""

import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO / "tools"))

import check_docs  # noqa: E402  (tools/ is not a package)
import gen_api_docs  # noqa: E402


def test_docs_tree_exists_with_expected_pages():
    docs = REPO / "docs"
    for page in (
        "index.md",
        "architecture.md",
        "run-specs.md",
        "trace-formats.md",
        "benchmarks.md",
        "examples.md",
        "faults.md",
        "fleet.md",
        "service.md",
        "ftl.md",
        "qos.md",
        "api/sim.md",
        "api/workloads.md",
        "api/experiments.md",
        "api/ftl.md",
        "api/fleet.md",
        "api/qos.md",
        "api/service.md",
    ):
        assert (docs / page).is_file(), f"missing docs page {page}"


def test_no_broken_internal_links():
    errors = check_docs.check(REPO)
    assert not errors, "\n".join(errors)


def test_api_reference_matches_docstrings():
    for page in gen_api_docs.PAGES:
        target = gen_api_docs.API_DIR / f"{page}.md"
        assert target.is_file(), f"missing generated page {target}"
        assert target.read_text(encoding="utf-8") == gen_api_docs.render_page(
            page
        ), (
            f"docs/api/{page}.md is stale; run "
            "PYTHONPATH=src python tools/gen_api_docs.py"
        )


# --------------------------------------------------------------------- #
# docstring coverage over the public repro.sim / repro.workloads /
# repro.ftl / repro.nand / repro.fleet / repro.service surface
# --------------------------------------------------------------------- #

def _public_surface(package_name):
    """Yield (qualified name, object) for every public module / class /
    function / method / property defined inside ``package_name`` (a plain
    module yields just its own surface)."""
    package = importlib.import_module(package_name)
    modules = [package_name]
    if hasattr(package, "__path__"):
        modules += [
            name
            for _, name, _ in pkgutil.walk_packages(
                package.__path__, package_name + "."
            )
        ]
    for module_name in modules:
        module = importlib.import_module(module_name)
        yield module_name, module
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue
            if getattr(obj, "__module__", None) != module_name:
                continue  # re-export: covered where defined
            yield f"{module_name}.{name}", obj
            if not inspect.isclass(obj):
                continue
            for attr, member in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if isinstance(member, property):
                    yield f"{module_name}.{name}.{attr}", member.fget
                elif inspect.isfunction(member):
                    yield f"{module_name}.{name}.{attr}", member
                elif isinstance(member, classmethod):
                    yield f"{module_name}.{name}.{attr}", member.__func__


@pytest.mark.parametrize(
    "package",
    ["repro.sim", "repro.workloads", "repro.ftl", "repro.nand", "repro.fleet",
     "repro.service", "repro.experiments.qos"],
)
def test_every_public_object_has_a_docstring(package):
    missing = [
        qualified
        for qualified, obj in _public_surface(package)
        if obj is None or not inspect.getdoc(obj)
    ]
    assert not missing, "missing docstrings:\n" + "\n".join(missing)
