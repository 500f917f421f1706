"""
Tableau crystals of type A as edge-colored graded posets: generation from
the signature rule, interval and Mobius analytics, saturated-chain moves,
and the key map with its fibers and Demazure subcrystals.
"""

from .crystal import (
    CrystalGraph,
    apply_f,
    apply_word,
    check_stembridge_axioms,
    generate,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    highest,
    local_structure,
    string_table,
    tableau_from_string,
    tableau_to_string,
    weight,
)
from .keymap import (
    KeyTable,
    check_key_axioms,
    compute_keys,
    demazure,
    fiber,
    fiber_extremes,
    minimal_fiber_elements,
)
from .poset import (
    euler_mobius,
    free_interval,
    interval,
    interval_mobius,
    minimal_upper_bounds,
    mobius_from,
    move_class_summary,
    move_classes_from,
    non_stembridge_witness,
    saturated_chains,
    stembridge_components,
)
from .scenarios import Certificate, run_all
from .weyl import (
    left_multiply,
    left_weak_join,
    longest_parabolic,
    strong_bruhat_leq,
)

__version__ = "0.1.0"
