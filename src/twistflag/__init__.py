"""twistflag: exact combinatorics of twisted Bruhat orders, totally
positive cells in SL_n flag and double-flag varieties, and the
poset-topological certificates (pure, thin, EL-shellable, sphere
homology) behind their regularity.
"""

from .cartan import (CartanMatrix, cartan_A, cartan_B2, cartan_G2,
                     cartan_affine_A1)
from .cells import (CellSample, ParamSampler, PinnedGroup, big_cell_test,
                    birkhoff_stratum, bruhat_stratum, canonical_flag,
                    canonical_flag_minus, double_bruhat_stratum,
                    double_minus_stratum, mixed_stratum, richardson_stratum,
                    sample_mr, sample_twisted_cell, sigma_factorize,
                    sigma_recompose, tnn_test, twisted_stratum)
from .doubleflag import (ThickenedCartan, TripleIndex, extend_cartan,
                         link_boundary_poset, link_face_poset, q_el_label,
                         q_interval_hat, q_leq, q_member, th_map,
                         triples_below, z_sample)
from .errors import (AmbiguousMinimum, BoundaryError, BudgetExceeded,
                     DecompositionFails,
                     Inconclusive, IncomparablePair, MissingReflection,
                     NonReducedWord, NotComparable, NotLeq, NotMember,
                     PatternViolation, StratumMismatch, TwistflagError)
from .homology import (ChainComplexZ, HomologyProfile, boundary_matrices,
                       euler_characteristic, is_sphere_signature,
                       reduced_homology, smith_normal_form, sphere_dimension)
from .posets import (EdgeLabel, FinitePoset, LabeledPoset, ReflectionOrder,
                     SimplicialComplex, assemble_QJ_interval, check_pure,
                     check_thin, el_label_qj_interval,
                     el_label_twisted_interval, order_complex,
                     poset_from_json, poset_to_dot, poset_to_json,
                     reflection_order_covering, reflection_order_from_word,
                     shelling_order, verify_el)
from .ratmat import RatMatrix, matrix_from_json, matrix_to_json
from .twisted import (TwistedIntervalPoset, circ_lJ, demazure_max_inverse,
                      demazure_min, j_interval, j_leq, j_length, minimal_c,
                      mr_positive_subexpression)
from .weyl import (ParabolicContext, WeylElement, WeylGroup, Word,
                   bruhat_leq, canonical_reduced_word, descents,
                   enumerate_ball, inversion_set, parabolic_decompose,
                   simple_reflection, weyl_group)

__version__ = "0.1.0"
