"""Turn a declarative :class:`Scenario` into live simulation objects."""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..hw import build_world as _build_world
from .schema import Scenario

if TYPE_CHECKING:  # pragma: no cover
    from ..hw.topology import World

__all__ = ["build_world"]


def build_world(scenario: Scenario) -> "World":
    """Build the scenario's world: its nodes and their adapters.

    Channels, fault arming, and the virtual channel are the session's job —
    use :meth:`Session.from_scenario` for the whole stack, or build on the
    returned world by hand for custom harnesses.
    """
    return _build_world(scenario.topology.node_spec())
