"""Linear-Algebraic Queueing Theory machinery (paper §3, §5.4).

Single-customer stage expansion (:class:`ServiceNetwork`), reduced-product
state spaces, station automata and the multi-customer level operators
``M_k, P_k, Q_k, R_k``.
"""

from repro.laqt.service import ServiceNetwork
from repro.laqt.states import (
    LevelRegistry,
    LevelSpace,
    build_spaces,
    reduced_product_count,
)
from repro.laqt.automata import (
    AutomatonTables,
    ExponentialAutomaton,
    DelayPHAutomaton,
    QueuedPHAutomaton,
    automaton_for,
)
from repro.laqt.operators import (
    LevelOperators,
    build_entrance,
    build_level,
)

__all__ = [
    "ServiceNetwork",
    "LevelRegistry",
    "LevelSpace",
    "build_spaces",
    "reduced_product_count",
    "AutomatonTables",
    "ExponentialAutomaton",
    "DelayPHAutomaton",
    "QueuedPHAutomaton",
    "automaton_for",
    "LevelOperators",
    "build_level",
    "build_entrance",
]
