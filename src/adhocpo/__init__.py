"""Ad hoc teamwork under partial observability.

Tabular models, point-based value iteration, Bayesian identification of the
teammate/task in play, baseline agents, benchmark domains, and a trial
harness with a command line front end.
"""
from adhocpo.pomdp import (
    Belief,
    TabularMmdp,
    TabularPomdp,
    belief_update,
    induced_mdp,
    sample_initial_state,
    simulate_step,
    validate,
)

__all__ = [
    "Belief",
    "TabularMmdp",
    "TabularPomdp",
    "belief_update",
    "induced_mdp",
    "sample_initial_state",
    "simulate_step",
    "validate",
]

__version__ = "0.1.0"
