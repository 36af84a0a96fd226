"""Exact evaluation of double zeta values through differential-operator
solution bases, unit-circle moments, and fraction-free linear algebra, with
an independent arbitrary-precision numeric certification layer."""

from .circle import DivergentSum, basis_moment, log_moment, pi_moment, s_sum
from .identities import (FourierIdentity, IdentityRecord, InconsistentIdentity,
                         closed_sum, derive_identity, derive_identity_fast,
                         eval_basis_at, render_identity, toy_example)
from .numverify import (NumericReport, PrecisionUnreachable, alt_sum_num,
                        dzv_num, fourier_spot_check, verify_identity_numeric,
                        zeta_num)
from .pfseries import (ChartMismatch, LevelOutOfRange, LogSeries, PFOperator,
                       apply_operator, basis_coefficient, canonical_basis,
                       harmonic, pf_operator, pi_coefficient, pi_series)
from .symfield import (GaussianRational, SymNumber, Unknown, ZetaMonomial,
                       bernoulli, even_zeta_as_pi_power, render, zeta_value)
from .tausolver import (InconsistentSystem, MomentSystem, SingularSystem,
                        TauVector, assemble_system, check_conjecture,
                        fraction_free_solve, solve_tau_direct, solve_tau_fast)

__version__ = "0.1.0"
