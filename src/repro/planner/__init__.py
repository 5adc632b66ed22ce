"""Memory-budget-driven recomputation planning (paper Section 5)."""

from .planner import (
    FleetCapacity,
    choose_context_layout,
    enumerate_options,
    plan,
    plan_fleet_capacity,
    replan_after_shrink,
)

__all__ = ["FleetCapacity", "choose_context_layout",
           "enumerate_options", "plan", "plan_fleet_capacity",
           "replan_after_shrink"]
