"""Exact arithmetic for mod-p Wach modules and ramification bounds.

Layers, bottom up:

  gf         the coefficient fields F_{p^f}
  qring      k[[q-1]]/(q-1)^N with Frobenius q -> q^p and Galois q -> q^u
  tiltring   truncated characteristic-p valued rings (tilt / cyclotomic)
  wach       module data, height witnesses, Galois checks, specialization
  frobsolve  brute-force solution sets and contraction lifting
  ramify     Herbrand transition functions and mu invariants
  bounds     crystalline / semistable bound formulas
  cli        the ramlab command
"""

from .bounds import (
    BoundReport,
    alpha,
    bound_grid,
    crystalline_bound,
    semistable_bound,
    tate_exclusion,
)
from .frobsolve import (
    JcSet,
    LiftResult,
    PhiVector,
    SolverParams,
    TstarResult,
    character_of,
    compute_tstar,
    compute_tstar_untilted,
    contraction_lift,
    contraction_lift_untilted,
    enumerate_jc,
    galois_act_jc,
)
from .gf import FiniteFieldParams
from .qring import QPoly, frobenius_q, gamma_q, try_divide
from .ramify import (
    BreakData,
    HerbrandFn,
    cyclotomic_breaks,
    kummer_tate_breaks,
    mu,
    phi_fn,
    psi_fn,
    tower_mu,
)
from .tiltring import (
    RingSpec,
    ValuedTrunc,
    embed_q,
    formality_threshold,
    frobenius,
    galois_act,
    reduce_to,
    val,
)
from .wach import (
    GammaReport,
    HeightWitness,
    WachModuleModP,
    gamma_power_containment,
    load_module_file,
    make_rank1_module,
    specialize,
    verify_gamma,
    verify_height,
)

__version__ = "0.1.0"
