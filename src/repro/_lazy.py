"""PEP 562 package exports.

A package lists its public names in ``__all__`` (and imports them
under ``TYPE_CHECKING`` for the type checkers) but loads the submodule
that defines a name only when the name is first read.  Importing the
package therefore costs nothing it does not use: a process that only
analyzes never loads the simulated cloud behind ``repro.Cloud``.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]],
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The ``__getattr__`` and ``__dir__`` of ``package``.

    ``exports`` maps each defining module to the names the package
    re-exports from it.  A name read for the first time imports its
    module and is then stored in the package's namespace, so
    ``__getattr__`` runs at most once per name.
    """
    namespace = vars(sys.modules[package])
    where = {
        name: module for module, names in exports.items() for name in names
    }

    def getattr_(name: str) -> Any:
        module = where.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def dir_() -> List[str]:
        return sorted(set(namespace) | set(where))

    return getattr_, dir_
