#!/usr/bin/env python3
"""Generate the Markdown API reference under docs/api/ from live docstrings.

There is no Sphinx/mkdocs dependency in the image, so the reference pages
are plain Markdown rendered from the *imported* modules: what the docs say
is exactly what ``inspect.getdoc`` sees.  The pages are checked in;
``--check`` regenerates them to a scratch buffer and fails when the tree is
out of date, which CI and the tier-1 test suite run so docstring edits and
reference pages can never drift apart.

Usage:
    PYTHONPATH=src python tools/gen_api_docs.py           # (re)write docs/api/
    PYTHONPATH=src python tools/gen_api_docs.py --check   # verify, exit 1 on drift
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import sys
from pathlib import Path
from typing import Dict, List

REPO = Path(__file__).resolve().parent.parent
API_DIR = REPO / "docs" / "api"

#: Page name -> ordered module list.  Definition order inside each module is
#: preserved (CPython dicts iterate in insertion order), so the pages read
#: like the source files.
PAGES: Dict[str, List[str]] = {
    "sim": [
        "repro.sim.engine",
        "repro.sim.resources",
        "repro.sim.stats",
        "repro.sim.rng",
        "repro.sim.faults",
        "repro.sim.checkpoint",
        "repro.sim.convergence",
    ],
    "workloads": [
        "repro.workloads.trace",
        "repro.workloads.synthetic",
        "repro.workloads.catalog",
        "repro.workloads.mixes",
        "repro.workloads.replay",
        "repro.workloads.formats",
        "repro.workloads.formats.base",
        "repro.workloads.formats.msr",
        "repro.workloads.formats.fio",
        "repro.workloads.formats.blkparse",
        "repro.workloads.formats.venice_csv",
    ],
    "experiments": [
        "repro.experiments.spec",
        "repro.experiments.executor",
        "repro.experiments.store",
        "repro.experiments.queue",
        "repro.experiments.worker",
        "repro.experiments.ftl",
    ],
    "ftl": [
        "repro.ftl.mapping",
        "repro.ftl.allocator",
        "repro.ftl.gc",
        "repro.ftl.wear_leveling",
        "repro.ftl.ftl",
    ],
    "fleet": [
        "repro.fleet.placement",
        "repro.fleet.member",
        "repro.fleet.qos",
        "repro.fleet.spec",
        "repro.fleet.run",
    ],
    "qos": [
        "repro.fleet.qos",
        "repro.experiments.qos",
    ],
    "service": [
        "repro.service.schema",
        "repro.service.jobs",
        "repro.service.routes",
        "repro.service.server",
        "repro.service.dashboard",
    ],
}

PAGE_TITLES = {
    "sim": "API reference: simulation core (`repro.sim`)",
    "workloads": "API reference: workloads (`repro.workloads`)",
    "experiments": "API reference: experiment orchestration (`repro.experiments`)",
    "ftl": "API reference: the flash translation layer (`repro.ftl`)",
    "fleet": "API reference: fleet-scale simulation (`repro.fleet`)",
    "qos": "API reference: multi-tenant QoS (`repro.fleet.qos`, `repro.experiments.qos`)",
    "service": "API reference: the serve control plane (`repro.service`)",
}


def _doc_block(obj) -> List[str]:
    """Render an object's docstring as fenced plain text (verbatim)."""
    doc = inspect.getdoc(obj)
    if not doc:
        return ["*(no docstring)*", ""]
    return ["```text", *doc.splitlines(), "```", ""]


def _signature(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def _class_section(name: str, cls) -> List[str]:
    lines = [f"### class `{name}`", ""]
    lines += _doc_block(cls)
    members = []
    for attr, member in vars(cls).items():
        if attr.startswith("_"):
            continue
        if isinstance(member, property):
            summary = (inspect.getdoc(member.fget) or "").partition("\n")[0]
            members.append(f"- `{attr}` *(property)* — {summary}")
        elif inspect.isfunction(member):
            summary = (inspect.getdoc(member) or "").partition("\n")[0]
            members.append(f"- `{attr}{_signature(member)}` — {summary}")
        elif isinstance(member, classmethod):
            inner = member.__func__
            summary = (inspect.getdoc(inner) or "").partition("\n")[0]
            members.append(
                f"- `{attr}{_signature(inner)}` *(classmethod)* — {summary}"
            )
    if members:
        lines += ["Members:", "", *members, ""]
    return lines


def _module_section(module_name: str) -> List[str]:
    module = importlib.import_module(module_name)
    lines = [f"## `{module_name}`", ""]
    lines += _doc_block(module)
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if getattr(obj, "__module__", None) != module_name:
            continue  # re-export; documented where it is defined
        if inspect.isclass(obj):
            lines += _class_section(name, obj)
        elif inspect.isfunction(obj):
            lines += [f"### `{name}{_signature(obj)}`", ""]
            lines += _doc_block(obj)
    return lines


def render_page(page: str) -> str:
    """Render one docs/api/<page>.md document."""
    lines = [
        f"# {PAGE_TITLES[page]}",
        "",
        "<!-- GENERATED FILE: edit the docstrings, then run"
        " `PYTHONPATH=src python tools/gen_api_docs.py`. -->",
        "",
        "Rendered from the live docstrings by"
        " [tools/gen_api_docs.py](../../tools/gen_api_docs.py);"
        " `--check` runs in CI so this page cannot drift from the code.",
        "",
    ]
    for module_name in PAGES[page]:
        lines += _module_section(module_name)
    return "\n".join(lines).rstrip() + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify docs/api/ matches the docstrings; exit 1 on drift",
    )
    args = parser.parse_args(argv)
    stale = []
    for page in PAGES:
        target = API_DIR / f"{page}.md"
        rendered = render_page(page)
        if args.check:
            current = target.read_text(encoding="utf-8") if target.exists() else None
            if current != rendered:
                stale.append(target)
        else:
            API_DIR.mkdir(parents=True, exist_ok=True)
            target.write_text(rendered, encoding="utf-8")
            print(f"wrote {target.relative_to(REPO)}")
    if stale:
        names = ", ".join(str(path.relative_to(REPO)) for path in stale)
        print(
            f"API reference out of date: {names}\n"
            "run: PYTHONPATH=src python tools/gen_api_docs.py",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
