"""``qfibound/__init__.py`` keeps two parallel name lists, its imports and
``__all__``; every exported name must resolve, and appear once."""
from __future__ import annotations

from collections import Counter

import qfibound


def test_every_export_resolves_once():
    missing = [name for name in qfibound.__all__ if not hasattr(qfibound, name)]
    assert not missing, f"names in __all__ that qfibound does not define: {missing}"
    repeated = sorted(name for name, count in Counter(qfibound.__all__).items() if count > 1)
    assert not repeated, f"names listed more than once in __all__: {repeated}"
