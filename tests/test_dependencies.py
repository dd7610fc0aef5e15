"""The package runs on the standard library alone: pyproject.toml lists no
dependencies, though other packages may be installed beside it."""

import subprocess
import sys

from helpers import child_env

# Imports the package and each submodule (but `__main__`, which runs the
# CLI and imports only `cli`) in a fresh interpreter, then prints the
# top-level names the imports added that are neither stdlib nor rainbowk.
# Modules loaded before the first import (site's start-up hooks) are not
# the package's.
CHECK = """
import importlib, pkgutil, sys
before = set(sys.modules)
import rainbowk
for info in pkgutil.iter_modules(rainbowk.__path__, "rainbowk."):
    if info.name != "rainbowk.__main__":
        importlib.import_module(info.name)
added = {name.partition(".")[0] for name in set(sys.modules) - before}
print(sorted(added - set(sys.stdlib_module_names) - {"rainbowk"}))
"""


def test_the_package_imports_only_the_standard_library():
    proc = subprocess.run([sys.executable, "-c", CHECK], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
