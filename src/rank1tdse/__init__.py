"""Pseudo-spectral solver for the periodic Schrödinger equation on rank-1 lattices."""

from .antialias import AntiAliasingSet, build as build_antialiasing, cached_build
from .lattice import PRESETS, Rank1Lattice, cbc_construct, load_lattice
from .operators import (
    KineticTable,
    PotentialField,
    kinetic_apply,
    make_gaussian,
    make_kinetic,
    make_potential,
    potential_apply,
)
from .splitting import SplittingScheme, empirical_order, evolve, scheme
from .transform import (
    NodalValues,
    SpectralState,
    aliasing_oracle,
    evaluate_offlattice,
    forward,
    inverse,
)

__version__ = "0.1.0"
