"""Architectural layering lints for the algorithm and service layers.

The backend-agnostic refactor's contract: algorithms talk to the
execution frontend (:mod:`repro.exec`) and nothing below it.  Importing
kernels (:mod:`repro.ops`) or the simulated runtime
(:mod:`repro.runtime`) from an algorithm module would re-couple the
algorithms to one backend, so this AST lint fails the build on any such
import — with **no allowlist**: every algorithm module must comply.

The query service (:mod:`repro.service`, PR 10) sits *above* the
algorithms and gets the stricter whitelist treatment: it may import only
the execution frontend, the streaming engine, the observability layer
(``runtime.telemetry``), the mutation-epoch primitive (``runtime.epoch``
— what its result cache keys on), the two multi-source traversal cores
it batches queries into (``algorithms.bfs_levels_batch`` /
``algorithms.sssp_batch``), and — like the algorithm layer — the pure
math of :mod:`repro.algebra` / :mod:`repro.sparse`.  Anything else
(kernels, the machine model, any other algorithm) is a layering break:
the service must express traversals through the backend protocol or
those two cores, not by calling into siblings.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ALGO_DIR = Path(__file__).resolve().parent.parent / "src" / "repro" / "algorithms"

#: subpackages an algorithm module must not reach into
FORBIDDEN = ("ops", "runtime")

ALGO_MODULES = sorted(ALGO_DIR.glob("*.py"))


def _forbidden_target(node: ast.AST, module_parts: tuple[str, ...]) -> str | None:
    """The offending import target, or None if the node is clean.

    Handles every spelling: ``import repro.ops.x``, ``from repro.ops
    import x``, ``from ..ops import x``, ``from ..ops.spmv import y``,
    and ``from .. import ops``.
    """
    if isinstance(node, ast.Import):
        for alias in node.names:
            parts = alias.name.split(".")
            if parts[0] == "repro" and len(parts) > 1 and parts[1] in FORBIDDEN:
                return alias.name
        return None
    if isinstance(node, ast.ImportFrom):
        if node.level == 0:
            parts = (node.module or "").split(".")
            if parts and parts[0] == "repro" and len(parts) > 1 and parts[1] in FORBIDDEN:
                return node.module
        else:
            # relative: resolve against repro.algorithms.<module>
            base = module_parts[: len(module_parts) - node.level]
            parts = base + tuple((node.module or "").split(".")) if node.module else base
            if len(parts) > 1 and parts[0] == "repro" and parts[1] in FORBIDDEN:
                return ".".join(parts)
            # `from .. import ops` style: the forbidden name is in the alias list
            if parts == ("repro",):
                for alias in node.names:
                    if alias.name in FORBIDDEN:
                        return f"repro.{alias.name}"
        return None
    return None


def _violations(path: Path) -> list[str]:
    module_parts = ("repro", "algorithms", path.stem)
    tree = ast.parse(path.read_text(), filename=str(path))
    out = []
    for node in ast.walk(tree):
        target = _forbidden_target(node, module_parts)
        if target is not None:
            out.append(f"{path.name}:{node.lineno} imports {target}")
    return out


def test_algorithm_modules_exist():
    assert len(ALGO_MODULES) >= 15  # 14 algorithm modules + __init__


@pytest.mark.parametrize("path", ALGO_MODULES, ids=lambda p: p.stem)
def test_algorithms_import_only_the_frontend(path: Path):
    """algorithms/*.py must not import repro.ops.* or repro.runtime.*."""
    bad = _violations(path)
    assert not bad, (
        "algorithm modules must go through repro.exec, not the kernel/runtime "
        "layers:\n  " + "\n  ".join(bad)
    )


def test_lint_catches_absolute_import():
    tree_src = "import repro.ops.spmv\n"
    node = ast.parse(tree_src).body[0]
    assert _forbidden_target(node, ("repro", "algorithms", "x")) == "repro.ops.spmv"


def test_lint_catches_relative_import():
    node = ast.parse("from ..ops.spmv import spmv\n").body[0]
    assert _forbidden_target(node, ("repro", "algorithms", "x")) == "repro.ops.spmv"


def test_lint_catches_from_package_import():
    node = ast.parse("from .. import ops\n").body[0]
    assert _forbidden_target(node, ("repro", "algorithms", "x")) == "repro.ops"


def test_lint_allows_frontend_and_algebra():
    for src in ("from ..exec import ShmBackend\n", "from ..algebra.semiring import MIN_PLUS\n"):
        node = ast.parse(src).body[0]
        assert _forbidden_target(node, ("repro", "algorithms", "x")) is None


# ---------------------------------------------------------------------------
# service layer: whitelist lint
# ---------------------------------------------------------------------------

SERVICE_DIR = Path(__file__).resolve().parent.parent / "src" / "repro" / "service"

#: the only repro.* import roots a service module may use
SERVICE_ALLOWED = (
    "repro.exec",
    "repro.streaming",
    "repro.service",
    "repro.algebra",
    "repro.sparse",
    "repro.runtime.telemetry",
    "repro.runtime.epoch",
    "repro.algorithms.bfs_levels_batch",
    "repro.algorithms.sssp_batch",
)

SERVICE_MODULES = sorted(SERVICE_DIR.glob("*.py"))


def _within(target: str, allowed: str) -> bool:
    return target == allowed or target.startswith(allowed + ".")


def _service_violations_in(node: ast.AST, module_parts: tuple[str, ...]) -> list[str]:
    """Resolved ``repro.*`` import targets of ``node`` that fall outside
    the service whitelist (empty for clean or non-repro imports)."""

    def ok(target: str) -> bool:
        return any(_within(target, allowed) for allowed in SERVICE_ALLOWED)

    bad: list[str] = []
    if isinstance(node, ast.Import):
        for alias in node.names:
            if alias.name.split(".")[0] == "repro" and not ok(alias.name):
                bad.append(alias.name)
        return bad
    if not isinstance(node, ast.ImportFrom):
        return bad
    if node.level == 0:
        base = tuple((node.module or "").split("."))
    else:
        base = module_parts[: len(module_parts) - node.level]
        if node.module:
            base = base + tuple(node.module.split("."))
    if not base or base[0] != "repro":
        return bad
    base_target = ".".join(base)
    for alias in node.names:
        # `from repro.runtime import epoch` is fine, `... import locale`
        # is not: judge each bound name at its fully resolved path
        full = f"{base_target}.{alias.name}"
        if not (ok(base_target) or ok(full)):
            bad.append(full)
    return bad


def _service_file_violations(path: Path) -> list[str]:
    module_parts = ("repro", "service", path.stem)
    tree = ast.parse(path.read_text(), filename=str(path))
    out = []
    for node in ast.walk(tree):
        for target in _service_violations_in(node, module_parts):
            out.append(f"{path.name}:{node.lineno} imports {target}")
    return out


def test_service_modules_exist():
    assert len(SERVICE_MODULES) >= 5  # scheduler, quota, cache, queries, service


@pytest.mark.parametrize("path", SERVICE_MODULES, ids=lambda p: p.stem)
def test_service_imports_only_whitelisted_layers(path: Path):
    """service/*.py may import only exec, streaming, algebra, sparse,
    runtime.telemetry, runtime.epoch, and the two multi-source cores."""
    bad = _service_file_violations(path)
    assert not bad, (
        "service modules are whitelisted to "
        + ", ".join(SERVICE_ALLOWED)
        + ":\n  "
        + "\n  ".join(bad)
    )


def test_service_lint_catches_runtime_machine_import():
    node = ast.parse("from ..runtime import Machine\n").body[0]
    assert _service_violations_in(node, ("repro", "service", "x")) == [
        "repro.runtime.Machine"
    ]


def test_service_lint_catches_algorithms_import():
    node = ast.parse("from ..algorithms import bfs_levels\n").body[0]
    assert _service_violations_in(node, ("repro", "service", "x")) == [
        "repro.algorithms.bfs_levels"
    ]


def test_service_lint_catches_ops_import():
    node = ast.parse("import repro.ops.dispatch\n").body[0]
    assert _service_violations_in(node, ("repro", "service", "x")) == [
        "repro.ops.dispatch"
    ]


def test_service_lint_allows_whitelisted_spellings():
    for src in (
        "from ..exec.backend import IterationScope\n",
        "from ..streaming import GraphStream\n",
        "from ..runtime.telemetry import registry\n",
        "from ..runtime.epoch import epoch_of\n",
        "from ..runtime import epoch\n",
        "from ..algebra.semiring import MIN_PLUS\n",
        "from ..sparse.csr import CSRMatrix\n",
        "from .cache import ResultCache\n",
        "from ..algorithms import bfs_levels_batch, sssp_batch\n",
        "import numpy as np\n",
    ):
        node = ast.parse(src).body[0]
        assert _service_violations_in(node, ("repro", "service", "x")) == [], src


# ---------------------------------------------------------------------------
# sparse layer: one module decides how (row, col) triples are ordered, and
# how integer keys are deduplicated
# ---------------------------------------------------------------------------

SRC_DIR = Path(__file__).resolve().parent.parent / "src" / "repro"

#: the only module that may call ``lexsort`` (``sparse.sort.row_major_order``
#: and its reference fallback)
LEXSORT_HOME = SRC_DIR / "sparse" / "sort.py"


def _lexsort_calls(tree: ast.AST) -> list[int]:
    """Line numbers of ``np.lexsort(...)`` / ``numpy.lexsort(...)`` /
    bare ``lexsort(...)`` calls."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
        if name == "lexsort":
            lines.append(node.lineno)
    return lines


def test_lexsort_only_in_sparse_sort():
    """Every (row, col) ordering goes through ``row_major_order``."""
    bad = [
        f"{path.relative_to(SRC_DIR)}:{line}"
        for path in sorted(SRC_DIR.rglob("*.py"))
        if path != LEXSORT_HOME
        for line in _lexsort_calls(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not bad, "call sparse.sort.row_major_order instead of lexsort:\n  " + "\n  ".join(bad)
    assert _lexsort_calls(ast.parse(LEXSORT_HOME.read_text()))


def test_lexsort_lint_catches_every_spelling():
    for src in ("np.lexsort((c, r))\n", "numpy.lexsort((c, r))\n", "lexsort((c, r))\n"):
        assert _lexsort_calls(ast.parse(src)) == [1], src
    assert _lexsort_calls(ast.parse("np.argsort(k, kind='stable')\n")) == []


#: the keywords that make ``np.unique`` more than a dedup
UNIQUE_EXTRAS = {"return_index", "return_inverse", "return_counts"}


def _plain_unique_calls(tree: ast.AST) -> list[int]:
    """Line numbers of ``np.unique(...)`` / ``numpy.unique(...)`` calls that
    ask for no ``return_index``/``return_inverse``/``return_counts`` —
    numpy 2's hash-based path, where ``sparse.sort.unique_sorted`` is one
    sort."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        if not (
            isinstance(fn, ast.Attribute)
            and fn.attr == "unique"
            and isinstance(fn.value, ast.Name)
            and fn.value.id in ("np", "numpy")
        ):
            continue
        if not {kw.arg for kw in node.keywords} & UNIQUE_EXTRAS:
            lines.append(node.lineno)
    return lines


def test_no_plain_np_unique_in_src():
    """Plain dedups go through ``sparse.sort.unique_sorted``."""
    bad = [
        f"{path.relative_to(SRC_DIR)}:{line}"
        for path in sorted(SRC_DIR.rglob("*.py"))
        for line in _plain_unique_calls(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not bad, "call sparse.sort.unique_sorted instead of np.unique:\n  " + "\n  ".join(bad)


def test_unique_lint_catches_every_spelling():
    for src in ("np.unique(k)\n", "numpy.unique(np.concatenate([a, b]))\n"):
        assert _plain_unique_calls(ast.parse(src)) == [1], src
    for src in (
        "np.unique(k, return_index=True)\n",
        "np.unique(k, return_inverse=True)\n",
        "numpy.unique(k, return_counts=True)\n",
        "unique_sorted(k)\n",
    ):
        assert _plain_unique_calls(ast.parse(src)) == [], src


# ---------------------------------------------------------------------------
# dispatch: distributed pricing evaluates the kernels' bills, it writes none
# ---------------------------------------------------------------------------

#: the runtime cost primitives a bill is made of
COST_PRIMITIVES = frozenset(
    {
        "bulk", "flush_cost", "flush_startup", "overlap_exposed", "parallel_time",
        "coforall_spawn", "fine_grained", "gather_parts_fine", "gather_agg", "sort_time",
        "exchange", "two_hop_estimate", "bulk_scatter_cost", "spmspv_shm_cost",
    }
)

#: the dispatcher's SpGEMM pricing path: predict statistics, then evaluate
#: ``SummaSchedule`` / ``gathered_bill``
SPGEMM_PRICING = ("estimate_mxm_dist", "_mxm_dist_stats")

#: the dispatcher's SpMSpV pricing path: predict statistics, then evaluate
#: ``SpmspvBill``
SPMSPV_PRICING = ("estimate_vxm_dist", "_vxm_dist_stats")

DIST_PRICING = SPGEMM_PRICING + SPMSPV_PRICING


def _primitive_calls(tree: ast.AST) -> list[str]:
    """``name:line`` of every call to a cost primitive, however spelled."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
        if name in COST_PRIMITIVES:
            found.append(f"{name}:{node.lineno}")
    return found


def _method(tree: ast.AST, cls: str, name: str) -> ast.FunctionDef:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == cls:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == name:
                    return item
    raise AssertionError(f"{cls}.{name} not found")


def _pricing_violations(tree: ast.AST, names=DIST_PRICING) -> list[str]:
    return [
        f"Dispatcher.{name} calls {call}"
        for name in names
        for call in _primitive_calls(_method(tree, "Dispatcher", name))
    ]


def test_spgemm_pricing_calls_no_cost_primitive():
    """One SpGEMM cost formula: the estimate is the kernels' own bill."""
    tree = ast.parse((SRC_DIR / "ops" / "dispatch.py").read_text())
    bad = _pricing_violations(tree, SPGEMM_PRICING)
    assert not bad, "price through ops.mxm_dist / ops.matrix_dist bills:\n  " + "\n  ".join(bad)


def test_spmspv_pricing_calls_no_cost_primitive():
    """One SpMSpV cost formula: the estimate is the kernel's own bill."""
    tree = ast.parse((SRC_DIR / "ops" / "dispatch.py").read_text())
    bad = _pricing_violations(tree, SPMSPV_PRICING)
    assert not bad, "price through the ops.spmspv bill:\n  " + "\n  ".join(bad)


def _planted(**bodies: str) -> str:
    """A ``Dispatcher`` whose pricing methods return the given bodies."""
    methods = "".join(
        f"    def {name}(self):\n        return {bodies.get(name, 'None')}\n"
        for name in DIST_PRICING
    )
    return "class Dispatcher:\n" + methods


def test_pricing_lint_catches_a_planted_call():
    for name in DIST_PRICING:
        for call in (
            "bulk(cfg, n)",
            "aggregation.flush_cost(cfg, n)",
            "parallel_time(cfg, w, t)",
            "spmspv_shm_cost(m, row_nnzs=r, out_nnz=1, ncols=4)",
            "aggregation.exchange(cfg, grid, counts)",
            "sort_time(cfg, n, t)",
        ):
            planted = _planted(**{name: call})
            assert len(_pricing_violations(ast.parse(planted))) == 1, (name, call)
    clean = _planted(
        estimate_mxm_dist="SummaSchedule(m, s).bill('bulk').total",
        _mxm_dist_stats="_expected_out_nnz(4, 2)",
        estimate_vxm_dist="SpmspvBill(m, s).gather('agg')[0]",
        _vxm_dist_stats="chunk_sizes(8, 4) * 2.0",
    )
    assert _pricing_violations(ast.parse(clean)) == []
