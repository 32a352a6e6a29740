from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Run in one fresh interpreter: each submodule is imported with no `avcmd`
# module loaded before it, so one that leans on an import made elsewhere fails.
_IMPORT_EACH = """
import importlib, pkgutil, sys, types
import avcmd
names = sorted(m.name for m in pkgutil.iter_modules(avcmd.__path__))
for name in names:
    for key in [k for k in sys.modules if k == "avcmd" or k.startswith("avcmd.")]:
        del sys.modules[key]
    importlib.import_module(f"avcmd.{name}")
    package = sys.modules["avcmd"]
    public = {attr: v for attr, v in vars(package).items() if not attr.startswith("_")}
    assert public.pop("mfcc") is sys.modules["avcmd.mfcc"].mfcc, name
    extra = sorted(attr for attr, v in public.items() if not isinstance(v, types.ModuleType))
    assert not extra, (name, extra)
print(" ".join(names))
"""


def test_each_module_imports_alone_and_the_package_exports_only_mfcc():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", _IMPORT_EACH], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == sorted(p.stem for p in (SRC / "avcmd").glob("*.py") if p.stem != "__init__")
