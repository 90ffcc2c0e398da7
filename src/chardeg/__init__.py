"""Exact character tables and average character degree invariants for
finite permutation groups, with a validated group catalogue and a
verification harness for the solvability thresholds 16/5 and 18/5."""

from .perms import Permutation, format_cycles, parse_cycles
from .groups import (Group, Subgroup, ClassData, Quotient,
                     conjugacy_classes, derived_series, center,
                     normal_closure, commutator_subgroup,
                     minimal_normal_subgroups, solvable_radical,
                     quotient_group, is_solvable, is_perfect, is_p_solvable,
                     class_fusion, DEFAULT_ELEMENT_BOUND)
from .cyclotomic import CycValue
from .chars import (Character, CharacterTable, TableData, character_table,
                    inner_product, tensor, restrict_character,
                    kernel_subgroup, kernel_classes_contain, extensions_of)
from .invariants import (DegreeFilter, RationalAverage, ALL, EVEN,
                         degrees, irr, irr_over, n_d, acd, acd_rel, acd_over,
                         theorem_A_inequality_equiv, format_rational,
                         gallagher_check)
from .constructions import (FiniteField, MatrixGroupSpec, CentralProduct,
                            perm_from_matrix_group, direct_product,
                            central_product, fiber_product)
from .corpusio import (GroupSpec, Catalogue, CatalogueEntry,
                       parse_group_file, serialize_group_spec,
                       default_corpus_path, CORPUS_ENV_VAR)
from .checks import Check, Report, paper_check_suite, theorem_scan
from .oracle import oracle_table

__version__ = "0.1.0"
