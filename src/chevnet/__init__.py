"""chevnet: exact net-subgroup computations in adjoint Chevalley groups
over finite commutative rings, with theorem-level verification."""

from ._kernels import BACKEND
from .chevalg import (GeneratorTemplate, LieElement, LSigma, StructureConstants,
                      bracket, check_condition_star, compute_structure_constants,
                      in_L_sigma)
from .gauss import gauss_extract, gauss_rewrite, probe_table
from .grp import (AdjointGroup, BudgetExceeded, E_hat_relative, E_hat_sigma,
                  E_sigma, G_sigma, GroupElement, S_sigma, S_sigma_relative,
                  Subgroup, T_E_set, W_bar, W_bar_sigma, generate,
                  quotient_structure)
from .nets import (IdealFamily, Net, NetError, delta_prime, defining_primes,
                   full_net, net_close, net_image, net_intersect_ideal,
                   sigma_from_closed_set, validate_net, weyl_stabilizer)
from .ringkit import (FiniteRing, Ideal, RingConfigError, RingMap, is_field,
                      is_local, jacobson_radical, local_decomposition,
                      make_ring, polyquot, product, quotient_ring, unit_ideal,
                      zero_ideal, zmod)
from .rootsys import (ClosedRootSet, RootSystem, RootSystemError, Subsystem,
                      WeylElement, build_root_system, from_name,
                      irreducible_components, subsystem_closure, weyl_group)
from .verify import Scenario, ScenarioError, run_scenario, run_scenarios

__version__ = "0.1.0"
