"""Guard: ideas that were folded into one implementation stay in one place.

Several PRs each replaced parallel copies of one idea by a single definition
and checked the result with ``grep``.  This walks the syntax trees of
``src/repro`` instead, so a second copy cannot regrow unnoticed.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

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
    """Applications of ``A`` are counted by the operator ``SolveRun`` binds;
    the only other writes are the loop fallback charging an abandoned block
    attempt (``solve.py``)."""
    def writes_matvecs(node: ast.AST) -> bool:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AugAssign)
                   else [])
        return any(isinstance(target, (ast.Name, ast.Attribute))
                   and (getattr(target, "id", None) == "matvecs"
                        or getattr(target, "attr", None) == "matvecs")
                   for target in targets)

    found = [where for where in _where(trees, writes_matvecs)
             if where.startswith("krylov/")]
    assert sorted(where.split(":")[0] for where in found) == [
        "krylov/base.py", "krylov/base.py", "krylov/solve.py"], found


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


def test_gmres_orthogonalises_with_whole_basis_products(trees):
    """CGS2: inside the Arnoldi step no loop walks the basis one row at a
    time (the Givens loop touches only the Hessenberg)."""
    def loops_over_basis(node: ast.AST) -> bool:
        return (isinstance(node, (ast.For, ast.While))
                and any(isinstance(inner, ast.Name) and inner.id == "basis"
                        for statement in node.body
                        for inner in ast.walk(statement)))

    arnoldi_steps = [node for node in ast.walk(trees["krylov/gmres.py"])
                     if isinstance(node, ast.For)
                     and any(isinstance(inner, ast.For)
                             for statement in node.body
                             for inner in ast.walk(statement))]
    assert arnoldi_steps
    for step in arnoldi_steps:
        inner = [node.lineno for statement in step.body
                 for node in ast.walk(statement) if loops_over_basis(node)]
        assert inner == [], f"krylov/gmres.py:{inner}"


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


def test_block_cg_is_the_only_block_solver(trees):
    """Block mode is block CG: no ``block_gmres`` is defined, imported or
    named anywhere under ``src/repro``, and ``solve_many`` serves every
    other solver with the loop."""
    from repro.krylov import BLOCK_SOLVERS

    assert BLOCK_SOLVERS == ("cg",)
    assert [name for name in trees
            if "block_gmres" in (SRC / name).read_text()] == []
