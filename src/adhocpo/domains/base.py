"""Domain build results."""
from __future__ import annotations

import dataclasses

from adhocpo.solvers import SolverSettings


@dataclasses.dataclass
class DomainBuild:
    """A benchmark instance: candidate models plus evaluation settings.

    models[k] describes the environment when candidate k is the one in
    play; descriptions[k] says what k means in domain terms.  solver holds
    the reference settings used to produce the per-model policies.
    """

    name: str
    models: list
    descriptions: list
    horizon: int
    epsilon: float
    solver: SolverSettings

    @property
    def size(self) -> int:
        return len(self.models)

