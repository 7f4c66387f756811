"""Exact solver for the multi-stakeholder risk minimization problem.

Given stakeholders, threats, controls, protection criteria and protection
goals, the library computes overall impact residues, enumerates the reduced
residue search space, extracts the exact Pareto-optimal set of risk-management
policies, and recovers all mitigation mappings realizing each optimum.
"""

from .impact import assess, impact_level, ntc, objective, observation_weight
from .mapback import count_rmps, enumerate_rmps
from .model import ModelError, RiskModel, parse_model, render_model, validate_model
from .pareto import (ParetoFront, SolveConfig, dominates, evaluated_points, front,
                     solve, solve_direct_oracle)
from .residue import count_raw, count_reduced, residue_set, residue_space

__all__ = [
    "ModelError",
    "ParetoFront",
    "RiskModel",
    "SolveConfig",
    "assess",
    "count_raw",
    "count_reduced",
    "count_rmps",
    "dominates",
    "enumerate_rmps",
    "evaluated_points",
    "front",
    "impact_level",
    "ntc",
    "objective",
    "observation_weight",
    "parse_model",
    "render_model",
    "residue_set",
    "residue_space",
    "solve",
    "solve_direct_oracle",
    "validate_model",
]

__version__ = "0.1.0"
