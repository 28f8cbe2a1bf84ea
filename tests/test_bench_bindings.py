"""The benchmark's tracer wraps package functions and methods by name, so
a rename or deletion in ``src/`` breaks the traced bench run. This pins
every name ``bench/tracer.py`` resolves when it installs."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _has(module: str, cls: str | None, attr: str) -> bool:
    """Whether the binding resolves as ``Tracer.install`` looks it up:
    a module attribute, or an attribute defined on the class itself."""
    owner = importlib.import_module(f"dietchain.{module}")
    if cls is None:
        return hasattr(owner, attr)
    owner = getattr(owner, cls, None)
    return owner is not None and attr in owner.__dict__


def test_every_binding_the_tracer_wraps_exists():
    tracer = _load_tracer()
    wanted = [(module, cls, attr) for module, cls, attr, _ in tracer.SPANS]
    wanted += [(module, None, attr) for module, attr, _ in tracer.COUNTED]
    wanted += [("chain", None, attr) for attr in tracer.CODEC_FUNCTIONS]
    wanted += [("crypto", "BloomFilter", attr) for attr in ("add", "may_contain")]
    missing = [".".join(p for p in ("dietchain", module, cls, attr) if p)
               for module, cls, attr in wanted if not _has(module, cls, attr)]
    assert not missing, f"bench/tracer.py wraps bindings the package lacks: {missing}"
