"""liepar: exact computational Lie theory at desk scale.

Subpackages cover root systems (`rootsys`), Weyl-group combinatorics
(`weyl`), torsion primes (`torsion`), character arithmetic (`characters`),
integer symmetric forms over Q and F_p (`intform`), symmetric-group /
nilpotent-orbit combinatorics (`schurweyl`), toric fans with affine pavings
(`toricpave`) and a unified CLI (`cli`).
"""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    BudgetError,
    ConfigError,
    InfeasibleError,
    InvalidTypeError,
    InvariantError,
    LieparError,
    NotMinimalError,
    ReducibleError,
)
from .rootsys import RootSystem, build_root_system  # noqa: F401
