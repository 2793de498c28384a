"""Grade-3 multiplication tables: classification, obstructions, linkage, realization.

The package works with the induced multiplication on the degree-1/2/3
components of a length-3 free resolution (ranks ``n+1``, ``m+n-1``, ``m``
for a *format* ``(m, n)``).  It provides:

* exact classification of a table into the classes B, C(3), G(r), H(p,q), T
  from the ranks of its multiplication maps (:mod:`grade3.presentation`);
* a rulebook of necessary conditions on which (class, format) pairs can
  occur, with an atlas renderer (:mod:`grade3.permissible`);
* format-level linkage rules and a structure-constant engine that
  re-derives each rule's class claim from an explicit mapping cone
  (:mod:`grade3.linkrules`, :mod:`grade3.cone`);
* a planner that realizes targets as replayable derivation certificates
  rooted in published families (:mod:`grade3.planner`);
* a command-line interface (``grade3``) over all of the above.

All linear algebra is exact (fraction-free elimination over the integers);
no floating point is involved anywhere.

The package namespace is the union of the modules' ``__all__`` lists; each
public name is declared once, in the module that defines it.
"""

from __future__ import annotations

from .errors import *
from .exact import *
from .labels import *
from .presentation import *
from .permissible import *
from .linkrules import *
from .cone import *
from .planner import *
from . import cone, errors, exact, labels, linkrules, permissible, planner, presentation

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *exact.__all__,
    *labels.__all__,
    *presentation.__all__,
    *permissible.__all__,
    *linkrules.__all__,
    *cone.__all__,
    *planner.__all__,
]
