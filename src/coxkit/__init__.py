"""coxkit: exact computations with Coxeter groups, Hecke algebras, the
antispherical module, light-leaf combinatorics and the localized matrix
calculus (including canonical-basis decompositions)."""

from .coxeter import CoxeterMatrix, Element, GroupBall, build_ball, INF
from .errors import (CapError, CoxkitError, NotFinitaryError, ResourceError,
                     RingParameterError, UnsupportedBraidError,
                     UnsupportedCharacteristicError, UsageError)
from .hecke import KLTable
from .laurent import LaurentPoly
from .leaves import (DecoratedSubexpr, char_of_word, decorate,
                     enumerate_subexprs, path_dom_leq)
from .localization import LocalCalculus, StdMatrix, relation_oracle
from .parabolic import (MElt, NElt, ParabolicKLTable, check_deodhar,
                        check_finitary, check_monotonicity)
from .polyring import Poly, PolyRing, QCoeff
from .scalars import PrimeFieldK, ScalarRing

__all__ = [
    "CoxeterMatrix", "Element", "GroupBall", "build_ball", "INF",
    "LaurentPoly", "PrimeFieldK", "ScalarRing",
    "KLTable",
    "MElt", "NElt", "ParabolicKLTable", "check_deodhar", "check_finitary",
    "check_monotonicity",
    "DecoratedSubexpr", "char_of_word", "decorate", "enumerate_subexprs",
    "path_dom_leq",
    "Poly", "PolyRing", "QCoeff",
    "LocalCalculus", "StdMatrix", "relation_oracle",
    "CapError", "CoxkitError", "NotFinitaryError", "ResourceError",
    "RingParameterError", "UnsupportedBraidError",
    "UnsupportedCharacteristicError", "UsageError",
]

__version__ = "0.1.0"
