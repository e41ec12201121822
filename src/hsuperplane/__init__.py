"""Exact symbolic engine for graded (super) algebras presented by rewrite rules.

The package provides:

* :mod:`hsuperplane.scalar` -- the exact coefficient field Q(i)(q) of rational
  functions in a parameter ``q`` over the Gaussian rationals.
* :mod:`hsuperplane.algebra` -- free graded associative algebras, rewrite-rule
  presentations, normal forms, confluence checking, morphisms, involutions.
* :mod:`hsuperplane.presentations` -- the catalogue of deformed superplane,
  supergroup, Heisenberg and oscillator algebras plus their verification
  suites and the q -> 1 contraction pipeline.
* :mod:`hsuperplane.rmatrix` -- graded tensor arithmetic: Yang-Baxter checks,
  RTT expansion, and regeneration of the calculus from an exchange matrix.
* :mod:`hsuperplane.differential` -- the exterior differential as a graded
  derivation, nilpotency/Leibniz/operator checks, and the curl of one-forms.
* :mod:`hsuperplane.expr` / :mod:`hsuperplane.cli` -- parser, printer and the
  ``hsuperplane`` command-line interface.
"""

__version__ = "0.1.0"

from .scalar import GaussianRational, PolyQ, ScalarQ, DivisionByZero, PoleAtOne, reset
from .algebra import (
    AlgebraError,
    AlgebraMorphism,
    ConfluenceReport,
    Element,
    Generator,
    InvolutionSpec,
    NonTerminatingError,
    Presentation,
    RewriteRule,
    RuleError,
    UnknownGeneratorError,
)
from .reports import ReportEntry, VerificationReport

__all__ = [
    "__version__",
    "GaussianRational",
    "PolyQ",
    "ScalarQ",
    "DivisionByZero",
    "PoleAtOne",
    "AlgebraError",
    "AlgebraMorphism",
    "ConfluenceReport",
    "Element",
    "Generator",
    "InvolutionSpec",
    "NonTerminatingError",
    "Presentation",
    "RewriteRule",
    "RuleError",
    "UnknownGeneratorError",
    "ReportEntry",
    "VerificationReport",
    "reset",
]
