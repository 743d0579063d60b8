"""Guard: ideas that were folded into one implementation stay in one place.

Several PRs each replaced parallel copies of one idea by a single definition
and checked the result with ``grep``.  This walks the syntax trees of
``src/repro`` instead, so a second copy cannot regrow unnoticed.  One guard
counts calls at run time instead: a fit embeds the graphs once per weight
state.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

from repro.core.surrogate import GraphNeuralSurrogate
from repro.core.training import Trainer, TrainingConfig
from repro.nn.optim import Adam
from repro.nn.tensor import is_grad_enabled

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


@pytest.fixture(scope="module")
def trees() -> dict[str, ast.Module]:
    return {str(path.relative_to(SRC)): ast.parse(path.read_text())
            for path in sorted(SRC.rglob("*.py"))}


def _where(trees: dict[str, ast.Module], matches) -> list[str]:
    """``file:line`` of every node, in any module, that ``matches``."""
    return [f"{name}:{node.lineno}"
            for name, tree in trees.items()
            for node in ast.walk(tree) if matches(node)]


def _defines(node: ast.AST, pattern: str) -> bool:
    return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and re.fullmatch(pattern, node.name) is not None)


def test_one_listener_lifecycle(trees):
    found = _where(trees, lambda node: _defines(node, "serve_forever"))
    assert len(found) == 1 and found[0].startswith("server/http.py:"), found


def test_one_acquisition_call(trees):
    def is_propose_call(node: ast.AST) -> bool:
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "propose"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "optimizer")

    found = _where(trees, is_propose_call)
    assert len(found) == 1 and found[0].startswith("service/ladder.py:"), found


def _names(node: ast.AST, name: str) -> bool:
    """``node`` is the variable ``name`` or an attribute ``<...>.name``."""
    return ((isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.Attribute) and node.attr == name))


def test_one_tuning_round(trees):
    """A tuning round grows a dataset in ``MCMCTuner.evaluate_candidates``;
    the figures' pipeline runs its own round."""
    def is_dataset_extend(node: ast.AST) -> bool:
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "extend"
                and _names(node.func.value, "dataset"))

    found = _where(trees, is_dataset_extend)
    assert sorted(place.split(":")[0] for place in found) == [
        "core/recommender.py", "experiments/pipeline.py"], found


def test_one_uniform_parameter_draw(trees):
    """Uniform parameter vectors are drawn by ``sample_parameters`` only."""
    def is_sampling_comprehension(node: ast.AST) -> bool:
        return (isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                                  ast.DictComp))
                and any(isinstance(inner, ast.Call)
                        and isinstance(inner.func, ast.Attribute)
                        and inner.func.attr == "sample"
                        and _names(inner.func.value, "bounds")
                        for inner in ast.walk(node)))

    found = _where(trees, is_sampling_comprehension)
    assert len(found) == 1 and found[0].startswith("mcmc/parameters.py:"), found


def test_one_label_codec(trees):
    """One escape / unescape pair and one label regex, in ``obs/metrics.py``."""
    def is_label_regex(node: ast.AST) -> bool:
        return (isinstance(node, ast.Assign)
                and any(isinstance(target, ast.Name)
                        and re.fullmatch(r"_LABEL(_ITEM)?_RE", target.id)
                        for target in node.targets))

    for what, matches in (
            ("escape", lambda node: _defines(node, r"_?escape\w*")),
            ("unescape", lambda node: _defines(node, r"_?unescape\w*")),
            ("label regex", is_label_regex)):
        found = _where(trees, matches)
        assert len(found) == 1 and found[0].startswith("obs/metrics.py:"), \
            (what, found)


def test_one_prometheus_encoder(trees):
    """Expositions are rendered from snapshots, never merged as text."""
    def mentions_text_merge(node: ast.AST) -> bool:
        names = {"merge_expositions", "_family_of"}
        return (_defines(node, "|".join(names))
                or isinstance(node, ast.Name) and node.id in names
                or isinstance(node, ast.Attribute) and node.attr in names
                or isinstance(node, ast.alias) and node.name in names)

    assert _where(trees, mentions_text_merge) == []
    found = _where(trees, lambda node: _defines(node, r"render_prometheus"))
    assert len(found) == 1 and found[0].startswith("obs/prometheus.py:"), found


def test_one_finished_job_eviction_loop(trees):
    """One function both asks jobs whether they are ``done()`` and deletes
    entries: the bounded job registry next to ``Job``."""
    def evicts_finished(node: ast.AST) -> bool:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return False
        inner = list(ast.walk(node))
        asks_done = any(isinstance(n, ast.Call)
                        and isinstance(n.func, ast.Attribute)
                        and n.func.attr == "done" for n in inner)
        deletes = any(isinstance(n, ast.Delete) for n in inner)
        return asks_done and deletes

    found = _where(trees, evicts_finished)
    assert len(found) == 1 and found[0].startswith("server/queue.py:"), found


def _calls(node: ast.AST, name: str) -> bool:
    """A call of ``name(...)`` or ``<anything>.name(...)``."""
    return (isinstance(node, ast.Call)
            and (isinstance(node.func, ast.Name) and node.func.id == name
                 or isinstance(node.func, ast.Attribute)
                 and node.func.attr == name))


def test_one_lru(trees):
    """``ArtifactCache`` is the only bounded LRU: no other module imports
    ``OrderedDict`` or reorders / evicts with ``move_to_end`` / ``popitem``.
    The router's FIFO job map (``del jobs[next(iter(jobs))]``) is no LRU."""
    def hand_rolled_lru(node: ast.AST) -> bool:
        return (isinstance(node, ast.alias) and node.name == "OrderedDict"
                or _calls(node, "move_to_end") or _calls(node, "popitem"))

    found = [place for place in _where(trees, hand_rolled_lru)
             if not place.startswith("service/cache.py:")]
    assert found == [], found


def test_one_request_canonicaliser(trees):
    """``validate_request`` returns the canonical request; the serving
    layer takes it as given.  No ``.strip().lower()`` or family helper
    under ``server/``, and neither the scheduler nor the policy
    canonicalises the matrix again."""
    def strip_lower(node: ast.AST) -> bool:
        return (_calls(node, "lower") and isinstance(node.func, ast.Attribute)
                and _calls(node.func.value, "strip"))

    def mentions(names: set[str]):
        return lambda node: (isinstance(node, ast.Name) and node.id in names
                             or isinstance(node, ast.Attribute)
                             and node.attr in names
                             or isinstance(node, ast.alias)
                             and node.name in names)

    server = {name: tree for name, tree in trees.items()
              if name.startswith("server/")}
    assert _where(server, strip_lower) == []
    assert _where(server, mentions({"requested_family"})) == []
    taken_as_given = {name: trees[name]
                      for name in ("server/scheduler.py", "server/policy.py")}
    assert _where(taken_as_given, mentions(
        {"validate_square", "ensure_csr", "requested_family"})) == []


def test_one_exit_from_every_krylov_solver(trees):
    """``SolveRun.finish`` is the only place a ``SolveResult`` is built and
    the only place a solve's phase timings are closed; the default budget
    and the paper's measurement (the count, saturated at ``maxiter`` when
    the solve did not converge) are each written once, next to it."""
    def mentions(node: ast.AST, name: str) -> bool:
        return (isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name)

    def is_default_budget(node: ast.AST) -> bool:
        # min(max(10 * n, 100), 5000)
        return (_calls(node, "min") and len(node.args) == 2
                and _calls(node.args[0], "max")
                and isinstance(node.args[1], ast.Constant)
                and node.args[1].value == 5000)

    def is_saturated_count(node: ast.AST) -> bool:
        # <iterations> if <converged> else <maxiter>
        return (isinstance(node, ast.IfExp)
                and any(mentions(n, "converged") for n in ast.walk(node.test))
                and any(mentions(n, "maxiter") or mentions(n, "MAXITER")
                        for n in ast.walk(node.orelse)))

    for what, matches in (
            ("SolveResult(", lambda node: _calls(node, "SolveResult")),
            ("finish_solve_phases(",
             lambda node: _calls(node, "finish_solve_phases")),
            ("default budget", is_default_budget),
            ("saturated count", is_saturated_count)):
        found = _where(trees, matches)
        assert len(found) == 1 and found[0].startswith("krylov/base.py:"), \
            (what, found)
    assert _where(trees, lambda node: _defines(node, "iteration_count")) == []
    # ... and the scripts that used to spell the measurement out read it.
    root = SRC.parents[1]
    for path in (*root.glob("examples/*.py"),
                 *root.glob("benchmarks/bench_*.py"),
                 root / "tests" / "test_learn_ab.py"):
        assert not any(is_saturated_count(node)
                       for node in ast.walk(ast.parse(path.read_text()))), path


def test_krylov_solvers_keep_no_matvec_counter(trees):
    """Applications of ``A`` are counted by the operator ``SolveRun`` binds:
    nothing under ``src/repro`` outside ``SolveRun`` writes a ``matvecs``."""
    def writes_matvecs(node: ast.AST) -> bool:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AugAssign)
                   else [])
        return any(isinstance(target, (ast.Name, ast.Attribute))
                   and (getattr(target, "id", None) == "matvecs"
                        or getattr(target, "attr", None) == "matvecs")
                   for target in targets)

    solve_run = next(node for node in ast.walk(trees["krylov/base.py"])
                     if isinstance(node, ast.ClassDef)
                     and node.name == "SolveRun")
    inside = [f"krylov/base.py:{node.lineno}"
              for node in ast.walk(solve_run) if writes_matvecs(node)]
    found = _where(trees, writes_matvecs)
    assert len(inside) == 2 and sorted(found) == sorted(inside), found


def test_no_executor_layer(trees):
    """Work runs as plain loops: the MCMC row blocks, the tuning batch and
    the scheduler's groups.  No class is an ``...Executor`` and nothing maps
    or settles tasks on one's behalf."""
    assert _where(trees, lambda node: isinstance(node, ast.ClassDef)
                  and node.name.endswith("Executor")) == []
    assert _where(trees, lambda node: _defines(
        node, "get_executor|map_tasks|run_settled")) == []


@pytest.mark.parametrize("knob", ["executor", "n_tasks", "n_threads",
                                  "n_processes", "ranks", "threads_per_rank"])
def test_no_function_takes_a_worker_count(trees, knob):
    """How many workers something claims cannot again decide how many
    blocks the inverse is built from: no function takes one of the options
    the executor layer had."""
    def takes_knob(node: ast.AST) -> bool:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return False
        arguments = node.args
        return knob in {arg.arg for arg in (*arguments.posonlyargs,
                                            *arguments.args,
                                            *arguments.kwonlyargs)}

    assert _where(trees, takes_knob) == []


def test_triangular_solves_are_prepared_once(trees):
    """IC(0) and ILU(0) apply through a plan prepared at construction;
    nothing calls ``spsolve_triangular``, which redoes that preparation on
    every call."""
    def mentions(node: ast.AST) -> bool:
        return (isinstance(node, ast.Name) and node.id == "spsolve_triangular"
                or isinstance(node, ast.Attribute)
                and node.attr == "spsolve_triangular"
                or isinstance(node, ast.alias)
                and node.name == "spsolve_triangular")

    assert _where(trees, mentions) == []


def _gmres_arnoldi_steps(trees) -> list[ast.For]:
    """GMRES's Arnoldi step: the ``for`` loop with a loop inside it."""
    steps = [node for node in ast.walk(trees["krylov/gmres.py"])
             if isinstance(node, ast.For)
             and any(isinstance(inner, ast.For)
                     for statement in node.body
                     for inner in ast.walk(statement))]
    assert steps
    return steps


def test_gmres_orthogonalises_with_whole_basis_products(trees):
    """CGS2: inside the Arnoldi step no loop walks the basis one row at a
    time (the Givens loop touches only the least-squares side)."""
    def loops_over_basis(node: ast.AST) -> bool:
        return (isinstance(node, (ast.For, ast.While))
                and any(isinstance(inner, ast.Name) and inner.id == "basis"
                        for statement in node.body
                        for inner in ast.walk(statement)))

    for step in _gmres_arnoldi_steps(trees):
        inner = [node.lineno for statement in step.body
                 for node in ast.walk(statement) if loops_over_basis(node)]
        assert inner == [], f"krylov/gmres.py:{inner}"


def test_gmres_rotates_the_new_column_on_python_floats(trees):
    """The Givens loop of the Arnoldi step rotates a Python-float copy of the
    new Hessenberg column, written back once per step: no ``hessenberg[...]``
    subscript (one numpy scalar per entry) appears inside it."""
    def subscripts_hessenberg(node: ast.AST) -> bool:
        return (isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name)
                and node.value.id == "hessenberg")

    rotation_loops = [inner for step in _gmres_arnoldi_steps(trees)
                      for statement in step.body
                      for inner in ast.walk(statement)
                      if isinstance(inner, ast.For)]
    assert rotation_loops
    found = [node.lineno for loop in rotation_loops
             for node in ast.walk(loop) if subscripts_hessenberg(node)]
    assert found == [], f"krylov/gmres.py:{found}"


def test_one_backward_engine(trees):
    """One autodiff engine ships: the only ``backward`` that seeds a pass
    with the root ``gradient`` is ``autograd.backward``, and
    ``Tensor.backward`` delegates to it.  (The seed closure engine is a test
    oracle under ``tests/oracles/``.)"""
    def seeds_a_pass(node: ast.AST) -> bool:
        return (_defines(node, "backward")
                and "gradient" in {arg.arg for arg in node.args.args})

    found = sorted(where.split(":")[0] for where in _where(trees, seeds_a_pass))
    assert found == ["nn/autograd.py", "nn/tensor.py"], found
    tensor_backward = next(node for node in ast.walk(trees["nn/tensor.py"])
                           if seeds_a_pass(node))
    assert any(_calls(node, "backward")
               for node in ast.walk(tensor_backward))


def test_one_multi_rhs_path(trees):
    """A same-matrix batch is one single-rhs solve per column: no block
    solver module, no name starting with ``block_`` defined or imported
    under ``src/repro``, and no request field that selects a batch mode."""
    from dataclasses import fields

    from repro.api import SolveRequestV1

    def block_name(node: ast.AST) -> bool:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            return any((alias.asname or alias.name).split(".")[-1]
                       .startswith("block_") for alias in node.names)
        return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                and node.name.startswith("block_"))

    assert _where(trees, block_name) == []
    assert not (SRC / "krylov" / "block.py").exists()
    assert "batch_mode" not in {field.name for field in fields(SolveRequestV1)}


def _function(tree: ast.Module, name: str) -> ast.FunctionDef:
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)


def _scatters_with_add_at(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "at"
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "add")


def test_walk_deposits_are_summed_sparsely(trees):
    """``WalkEngine.estimate_rows`` keeps its deposits as keys and weights
    and sums them with ``unique`` + ``bincount``: no ``np.add.at`` scatter
    and no two-dimensional ``np.zeros`` / ``np.empty`` buffer."""
    def scatters_or_buffers(node: ast.AST) -> bool:
        if _scatters_with_add_at(node):
            return True
        return ((_calls(node, "zeros") or _calls(node, "empty"))
                and bool(node.args) and isinstance(node.args[0], ast.Tuple))

    estimate_rows = _function(trees["mcmc/walks.py"], "estimate_rows")
    assert [node.lineno for node in ast.walk(estimate_rows)
            if scatters_or_buffers(node)] == []


def test_inverse_blocks_are_never_densified(trees):
    """``_estimate_block`` scales and drops the stored entries of the CSR
    the walk engine returns; it never re-sparsifies with ``csr_matrix``."""
    estimate_block = _function(trees["mcmc/inversion.py"], "_estimate_block")
    assert [node.lineno for node in ast.walk(estimate_block)
            if _calls(node, "csr_matrix")] == []


def test_one_mcmc_build_path(trees):
    """The row blocks and their streams live in ``mcmc/inversion.py``: there
    is no ``repro.parallel`` package, one ``SeedSequence(`` under
    ``src/repro``, and a ``TransitionTable`` is built only by the two
    estimators and by the one function that keys and builds the served and
    measured tables."""
    assert not (SRC / "parallel").exists()
    seeds = _where(trees, lambda node: _calls(node, "SeedSequence"))
    assert len(seeds) == 1 and seeds[0].startswith("mcmc/inversion.py:"), seeds

    def builds_table(node: ast.AST) -> bool:
        return _calls(node, "TransitionTable")

    cached = _function(trees["service/cache.py"], "cached_transition_table")
    inside = sum(builds_table(node) for node in ast.walk(cached))
    found = _where(trees, builds_table)
    assert sorted({where.split(":")[0] for where in found}) == [
        "mcmc/inversion.py", "mcmc/regenerative.py", "service/cache.py"], found
    assert inside == sum(where.startswith("service/cache.py:")
                         for where in found) == 1, found


def test_estimate_inverse_restates_no_parameter_default(trees):
    """Chain count and walk length come from ``MCMCParameters`` alone:
    ``estimate_inverse`` takes no cap of its own."""
    estimate = _function(trees["mcmc/inversion.py"], "estimate_inverse")
    assert [arg.arg for arg in estimate.args.kwonlyargs] == [
        "seed", "fill_multiple", "drop_tolerance", "transition_table",
        "return_report"]


@pytest.mark.parametrize("module, name", [("precond/ichol.py", "_ic0_factorise"),
                                          ("precond/ilu.py", "_ilu0_factorise")])
def test_incomplete_factorisations_run_on_the_csr_arrays(trees, module, name):
    """IC(0) and ILU(0) run over the CSR arrays with one scatter row: no
    ``lil`` round trip and no per-row ``{column: position}`` dict."""
    factorise = _function(trees[module], name)
    assert [node.lineno for node in ast.walk(factorise)
            if _calls(node, "tolil") or isinstance(node, ast.DictComp)] == []


def _method(tree: ast.Module, owner: str, name: str) -> ast.FunctionDef:
    cls = next(node for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) and node.name == owner)
    return _function(cls, name)


@pytest.mark.parametrize("owner, name", [("SegmentSum", "forward"),
                                         ("GatherRows", "backward")])
def test_segment_sums_use_the_incidence_product(trees, owner, name):
    """Segment sums and gather backwards multiply by a CSR incidence: no
    unbuffered ``np.add.at`` scatter."""
    method = _method(trees["nn/functional.py"], owner, name)
    assert [node.lineno for node in ast.walk(method)
            if _scatters_with_add_at(node)] == []


def test_core_does_not_import_scipy_stats(trees):
    """Expected Improvement calls ``ndtr`` and the closed-form density, not
    the ``scipy.stats`` distribution machinery."""
    def imports_stats(node: ast.AST) -> bool:
        if isinstance(node, ast.ImportFrom):
            return (node.module or "").startswith("scipy.stats") or (
                node.module == "scipy"
                and any(alias.name == "stats" for alias in node.names))
        return isinstance(node, ast.Import) and any(
            alias.name.startswith("scipy.stats") for alias in node.names)

    assert _where({name: tree for name, tree in trees.items()
                   if name.startswith("core/")}, imports_stats) == []


def test_acquisition_objective_builds_no_tape(trees):
    """Each (batched) objective call runs the surrogate's tape-free head: it
    constructs no ``Tensor`` and starts no ``.backward(`` pass."""
    objective = _method(trees["core/optimize.py"], "AcquisitionOptimizer",
                        "_ei_and_gradient_batch")

    def tapes(node: ast.AST) -> bool:
        return (isinstance(node, ast.Name) and node.id == "Tensor"
                or _calls(node, "backward"))

    assert [node.lineno for node in ast.walk(objective) if tapes(node)] == []


def test_one_acquisition_objective_and_no_minimize_loop(trees):
    """``core/optimize.py`` has one objective, the batched one, and runs its
    restarts through ``LockstepLBFGSB``, never ``scipy.optimize.minimize``."""
    tree = trees["core/optimize.py"]
    objectives = [node.name for node in ast.walk(tree)
                  if _defines(node, r"_ei_and_gradient\w*")]
    assert objectives == ["_ei_and_gradient_batch"]
    assert [node.lineno for node in ast.walk(tree)
            if _calls(node, "minimize") or _names(node, "minimize")] == []
    assert any(_calls(node, "LockstepLBFGSB") for node in ast.walk(tree))


@pytest.mark.parametrize("batches, epochs, start_epoch, stops_early", [
    (1, 6, 0, False), (3, 6, 0, False), (3, 6, 4, False), (1, 6, 4, False),
    (3, 40, 0, True)])
def test_a_fit_embeds_once_per_weight_state(monkeypatch, tiny_dataset,
                                            tiny_surrogate_config, batches,
                                            epochs, start_epoch, stops_early):
    """``Trainer.fit`` embeds the graphs optimiser steps + 1 times: once at
    the start and once after each step, validation sharing the embedding the
    next step trains on.  Every embedding is taped except the one after the
    last step of the last epoch, which no step consumes."""
    train_indices, validation_indices = tiny_dataset.split(0.2, seed=0)
    batch_size = -(-train_indices.size // batches)
    assert -(-train_indices.size // batch_size) == batches
    model = GraphNeuralSurrogate(tiny_surrogate_config)
    taped: list[bool] = []
    steps = []
    embed_graphs = model.embed_graphs
    adam_step = Adam.step

    def counting_embed(batch):
        taped.append(is_grad_enabled())
        return embed_graphs(batch)

    def counting_step(self):
        steps.append(len(taped))
        return adam_step(self)

    monkeypatch.setattr(model, "embed_graphs", counting_embed)
    monkeypatch.setattr(Adam, "step", counting_step)
    config = TrainingConfig(epochs=epochs, batch_size=batch_size,
                            learning_rate=0.5 if stops_early else 1e-3,
                            patience=1 if stops_early else 100, min_epochs=1)
    history = Trainer(config).fit(model, tiny_dataset,
                                  train_indices=train_indices,
                                  validation_indices=validation_indices,
                                  start_epoch=start_epoch)

    assert history.stopped_early == stops_early
    assert len(steps) == history.epochs_run * batches
    assert len(taped) == len(steps) + 1
    assert steps == list(range(1, len(steps) + 1))  # one embedding per step
    assert taped == [True] * len(steps) + [stops_early]


def _annotation_strings(tree: ast.Module):
    """The names inside string annotations (``"Path | None"``), which the
    syntax tree holds as constants."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            annotations = [argument.annotation for argument in (
                *arguments.posonlyargs, *arguments.args,
                *arguments.kwonlyargs, arguments.vararg, arguments.kwarg)
                if argument is not None] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        else:
            continue
        for annotation in filter(None, annotations):
            for constant in ast.walk(annotation):
                if (isinstance(constant, ast.Constant)
                        and isinstance(constant.value, str)):
                    yield from (name.id for name in ast.walk(
                        ast.parse(constant.value, mode="eval"))
                        if isinstance(name, ast.Name))


def test_no_unused_module_imports(trees):
    """Every module-level import of a module (packages' ``__init__`` files
    re-export by design) is referenced in it or listed in its ``__all__``."""
    unused = []
    for name, tree in trees.items():
        if name.endswith("__init__.py"):
            continue
        imported = {}
        for node in tree.body:
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    imported[bound] = node.lineno
        referenced = {node.id for node in ast.walk(tree)
                      if isinstance(node, ast.Name)}
        referenced.update(_annotation_strings(tree))
        for node in tree.body:
            if (isinstance(node, ast.Assign)
                    and any(_names(target, "__all__")
                            for target in node.targets)):
                referenced.update(ast.literal_eval(node.value))
        unused += [f"{name}:{line} {bound}"
                   for bound, line in imported.items()
                   if bound not in referenced]
    assert unused == [], unused
