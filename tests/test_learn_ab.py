"""A/B gate: rule-table policy vs the online-trained surrogate policy.

The scenario the online learning loop exists for: a *family* of matrices the
rule table can only treat generically.  Each member is a 2-D FD Laplacian
plus a strong skew-symmetric convection coupling — the skew part inflates the
off-diagonal row mass until the dominance heuristic drops below the fragile
threshold, so the cold-start rule prescribes MCMC preconditioning with the
paper's default parameters.  The symmetric part stays positive definite, so
every member is perfectly solvable; the *parameters* are what matters:
the rule default ``(alpha=2, eps=delta=0.25)`` costs ~50-70 GMRES
iterations per member while the family's sweet spot ``eps=delta=0.0625``
costs ~40, with a divergence cliff at low ``alpha`` / high ``eps``.

Arm A ("rule") decides with a bare :class:`PreconditionerPolicy` — no store,
no surrogate: the paper-default MCMC parameters.  Arm B ("surrogate") trains
a surrogate generation with the real :class:`SurrogateTrainer` on grid
measurements of *training* members, then decides through the same policy
ladder with the surrogate stage attached.  Both arms are evaluated on family
members the store has never seen; the gate asserts the surrogate's mean
iteration count beats the rule default by :data:`REQUIRED_WIN` iterations.

Deterministic end to end (seeded training, seeded proposals, exact iteration
counts — nothing is timed), which is why it is a tier-1 test and not a
benchmark.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import scipy.sparse as sp

from repro.core.evaluation import PerformanceRecord
from repro.krylov.solve import solve
from repro.learn import (
    LearnConfig,
    MatrixBank,
    ModelRegistry,
    SurrogatePolicy,
    SurrogateTrainer,
)
from repro.matrices.features import feature_vector, structural_flags
from repro.mcmc.parameters import MCMCParameters
from repro.mcmc.preconditioner import MCMCPreconditioner
from repro.server.policy import PreconditionerPolicy
from repro.service.ladder import ORIGIN_RULE, ORIGIN_SURROGATE
from repro.service.store import ObservationStore
from repro.sparse.fingerprint import matrix_fingerprint

#: Mean-iteration win (rule minus surrogate) the gate demands on the unseen
#: evaluation members.  The landscape gives the surrogate ~15-20 iterations
#: of headroom; 5.0 keeps the gate robust to fit and transfer noise.
REQUIRED_WIN = 5.0

RTOL = 1e-8
MAXITER = 3000

#: (grid, seed) members measured into the observation store.
TRAIN_MEMBERS = ((16, 0), (16, 1), (12, 2))
#: (grid, seed) members neither stored nor banked — truly unseen.
EVAL_MEMBERS = ((16, 7), (14, 5), (18, 6))

#: Measurement grid over the parameter space, straddling the divergence
#: cliff at low alpha/high eps so the surrogate learns to stay clear of it.
GRID_ALPHAS = (1.75, 2.0, 2.25, 2.5, 3.0, 3.5)
GRID_EPS_DELTA = ((0.0625, 0.0625), (0.125, 0.125), (0.25, 0.25), (0.5, 0.5))


def skew_laplacian(grid: int, seed: int, skew: float = 4.5) -> sp.csr_matrix:
    """One family member: 2-D Laplacian + skew-symmetric convection."""
    n = grid * grid
    rng = np.random.default_rng(seed)

    def node(i: int, j: int) -> int:
        return i * grid + j

    matrix = sp.lil_matrix((n, n))
    for i in range(grid):
        for j in range(grid):
            k = node(i, j)
            matrix[k, k] = 4.0 + 0.05 * rng.standard_normal()
            for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                ii, jj = i + di, j + dj
                if 0 <= ii < grid and 0 <= jj < grid:
                    matrix[k, node(ii, jj)] = -1.0
    for i in range(grid):
        for j in range(grid - 1):
            k, k2 = node(i, j), node(i, j + 1)
            coupling = skew * (1.0 + 0.05 * rng.random())
            matrix[k, k2] += coupling
            matrix[k2, k] -= coupling
    return matrix.tocsr()


def member_name(grid: int, seed: int) -> str:
    return f"skewlap_g{grid}_s{seed}"


def measure_iterations(matrix: sp.csr_matrix,
                       parameters: MCMCParameters) -> int:
    """GMRES iterations under an MCMC preconditioner (censored at MAXITER)."""
    rhs = np.ones(matrix.shape[0])
    try:
        preconditioner = MCMCPreconditioner(matrix, parameters, seed=0)
    except Exception:
        return MAXITER  # non-contractive walks: censored like a divergence
    return solve(matrix, rhs, solver="gmres", preconditioner=preconditioner,
                 rtol=RTOL, maxiter=MAXITER).measured_iterations


def seed_family_store(store_dir, bank: MatrixBank) -> ObservationStore:
    """Measure the parameter grid on the training members into a store."""
    store = ObservationStore(store_dir)
    for grid, seed in TRAIN_MEMBERS:
        matrix = skew_laplacian(grid, seed)
        name = member_name(grid, seed)
        bank.put(name, matrix)
        fingerprint = matrix_fingerprint(matrix)
        store.register_matrix(fingerprint, name, feature_vector(matrix))
        baseline = solve(matrix, np.ones(matrix.shape[0]), solver="gmres",
                         rtol=RTOL, maxiter=MAXITER)
        baseline_iterations = max(int(baseline.iterations), 1)
        # Censor divergent grid points at 1.5x the unpreconditioned baseline:
        # "clearly worse than no preconditioner at all".  Storing the raw
        # MAXITER count instead (y ~ 38 vs the real 0.4-0.55 landscape) lets
        # a handful of censored rows dominate the MSE and wreck the fit.
        censor_cap = int(1.5 * baseline_iterations)
        for alpha in GRID_ALPHAS:
            for eps, delta in GRID_EPS_DELTA:
                parameters = MCMCParameters(alpha=alpha, eps=eps, delta=delta)
                iterations = min(measure_iterations(matrix, parameters),
                                 censor_cap)
                store.put_record(fingerprint, PerformanceRecord(
                    parameters=parameters, matrix_name=name,
                    baseline_iterations=baseline_iterations,
                    preconditioned_iterations=[iterations],
                    y_values=[iterations / baseline_iterations]),
                    context="learn_ab")
    return store


def decide_and_measure(policy: PreconditionerPolicy,
                       matrix: sp.csr_matrix) -> tuple[str, dict, int]:
    """One policy decision + its measured iteration count."""
    fingerprint = matrix_fingerprint(matrix)
    decision = policy.decide(matrix, fingerprint)
    assert decision.family == "mcmc", (
        f"expected an mcmc decision on the fragile family, "
        f"got {decision.family} ({decision.origin}/{decision.rule})")
    iterations = measure_iterations(matrix, decision.mcmc_parameters())
    return decision.origin, dict(decision.params), iterations


def test_surrogate_beats_rule_table(tmp_path):
    """The trained surrogate must out-iterate the rule default on unseen
    family members by at least REQUIRED_WIN iterations on average."""
    bank = MatrixBank()
    store = seed_family_store(tmp_path / "store", bank)
    registry = ModelRegistry(tmp_path / "models")
    surrogate = SurrogatePolicy()
    # The alpha/eps interaction (low alpha is optimal *only* at low eps; the
    # divergence cliff sits at low alpha + high eps) needs a longer, gentler
    # fit than an incremental online generation: 60 epochs learns the main
    # effects but serves the interaction inverted.
    trainer = SurrogateTrainer(
        store, registry, bank=bank,
        config=LearnConfig(
            min_records=24, interval_s=60.0,
            training=replace(LearnConfig().training, epochs=600,
                             patience=600, learning_rate=8e-4)),
        on_publish=lambda model, dataset, version, meta:
            surrogate.update(model, dataset, version, meta))
    version = trainer.train_generation()

    rule_policy = PreconditionerPolicy()  # arm A: cold rule table
    surrogate_policy = PreconditionerPolicy(store, surrogate=surrogate)

    rule_iterations, surrogate_iterations = [], []
    for grid, seed in EVAL_MEMBERS:
        matrix = skew_laplacian(grid, seed)
        dominance = structural_flags(matrix)["dominance"]
        assert dominance < 0.5, (
            f"family drifted out of the fragile regime "
            f"(dominance {dominance:.3f})")
        rule_origin, rule_params, rule_iters = \
            decide_and_measure(rule_policy, matrix)
        surr_origin, surr_params, surr_iters = \
            decide_and_measure(surrogate_policy, matrix)
        assert rule_origin == ORIGIN_RULE, rule_origin
        assert surr_origin == ORIGIN_SURROGATE, (
            f"surrogate stage did not fire on {member_name(grid, seed)} "
            f"(origin {surr_origin})")
        rule_iterations.append(rule_iters)
        surrogate_iterations.append(surr_iters)
        print(f"{member_name(grid, seed)}: rule {rule_iters} iters "
              f"{rule_params} | surrogate {surr_iters} iters {surr_params}")

    rule_mean = float(np.mean(rule_iterations))
    surrogate_mean = float(np.mean(surrogate_iterations))
    margin = rule_mean - surrogate_mean
    print(f"\nmean iterations over {len(EVAL_MEMBERS)} unseen matrices: "
          f"rule {rule_mean:.1f}, surrogate {surrogate_mean:.1f} "
          f"-> margin {margin:+.1f} (model {version})")
    assert margin >= REQUIRED_WIN, (
        f"surrogate won by only {margin:+.1f} mean iterations "
        f"(required {REQUIRED_WIN}); rule {rule_mean:.1f}"
        f" vs surrogate {surrogate_mean:.1f}")
