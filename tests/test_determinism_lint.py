"""The determinism lint: three AST rules over the package the suite imports.

Bitwise determinism is the conformance contract — seeded generators, pure
kernels, and concurrency the race checker can see.  Three source habits
quietly break it, and each is visible in the AST:

* ``D001`` — an unseeded generator: ``random.Random()`` or a numpy
  generator (``default_rng``, ``RandomState``, a bit generator) built with
  no seed or a literal ``None`` seed, or a module-level ``random.*`` /
  ``np.random.*`` call (shared hidden state).  ``random.SystemRandom``
  never claims reproducibility and is exempt;
* ``D002`` — a wall-clock read (``time.time`` / ``perf_counter`` /
  ``monotonic``) in kernel scope: a function named ``compute*`` /
  ``kernel*``, or any function in a module whose name contains
  ``kernels``.  ``run_kernel`` / ``invoke_kernel`` are the harness, where
  span timing belongs;
* ``D003`` — a bare ``threading.Lock()`` / ``RLock()`` in ``repro/stm``
  outside an ``if`` on ``analysis``: channel-adjacent mutexes come from
  ``RaceChecker.tracked_lock`` when a checker is attached.  The exceptions
  are :data:`ALLOWED_LOCKS`, keyed by file and enclosing qualname, each
  with its reason; an entry that matches nothing fails.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path
from typing import NamedTuple, Optional

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent

WALLCLOCK = {"time", "perf_counter", "monotonic", "perf_counter_ns", "time_ns"}

ALLOWED_LOCKS = {
    ("repro/stm/process.py", "ChannelBroker.__init__"):
        "the broker's mutex guards cross-process queues the vector-clock "
        "checker cannot observe; per-process channel state is single-threaded",
    ("repro/stm/process.py", "WorkerLink.__init__"):
        "the worker's reply-client mutex pairs a queue with an Event across "
        "the process boundary; no STM connection state crosses it",
}


class Finding(NamedTuple):
    rule: str
    path: str
    scope: str  # enclosing qualname, "" at module level
    line: int


def _imports(tree: ast.AST) -> dict[str, str]:
    """Local name -> the dotted module or member it is bound to."""
    names: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.asname:
                    names[a.asname] = a.name
                else:
                    root = a.name.split(".")[0]
                    names[root] = root
        elif isinstance(node, ast.ImportFrom) and node.module:
            for a in node.names:
                names[a.asname or a.name] = f"{node.module}.{a.name}"
    return names


def _dotted(func: ast.AST, names: dict[str, str]) -> Optional[str]:
    parts: list[str] = []
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    if not isinstance(func, ast.Name) or func.id not in names:
        return None
    return ".".join([names[func.id], *reversed(parts)])


def _unseeded(call: ast.Call) -> bool:
    seeds = call.args[:1] + [k.value for k in call.keywords]
    return all(isinstance(a, ast.Constant) and a.value is None for a in seeds)


def lint(source: str, path: str) -> list[Finding]:
    """The D findings of one module; ``path`` is relative to ``src/``."""
    tree = ast.parse(source)
    names = _imports(tree)
    kernels_module = "kernels" in Path(path).stem
    in_stm = path.startswith("repro/stm/")
    out: list[Finding] = []

    def check(call: ast.Call, scope: tuple, func: Optional[str], guarded: bool):
        name = _dotted(call.func, names)
        if name is None or "." not in name:
            return
        module, attr = name.rsplit(".", 1)
        rule = None
        if module in ("random", "numpy.random") and attr != "SystemRandom":
            if not (attr[0].isupper() or attr == "default_rng") or _unseeded(call):
                rule = "D001"
        elif module == "time" and attr in WALLCLOCK and func is not None:
            if kernels_module or func.startswith(("compute", "kernel")):
                rule = "D002"
        elif module == "threading" and attr in ("Lock", "RLock"):
            if in_stm and not guarded:
                rule = "D003"
        if rule is not None:
            out.append(Finding(rule, path, ".".join(scope), call.lineno))

    def visit(node: ast.AST, scope: tuple, func: Optional[str], guarded: bool):
        if isinstance(node, ast.Call):
            check(node, scope, func, guarded)
        for child in ast.iter_child_nodes(node):
            c_scope, c_func, c_guarded = scope, func, guarded
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                c_scope, c_func = scope + (child.name,), child.name
            elif isinstance(child, ast.ClassDef):
                c_scope = scope + (child.name,)
            elif isinstance(child, ast.If):
                c_guarded = guarded or any(
                    isinstance(n, ast.Name) and "analysis" in n.id
                    for n in ast.walk(child.test)
                )
            visit(child, c_scope, c_func, c_guarded)

    visit(tree, (), None, False)
    return out


@pytest.fixture(scope="module")
def src_findings() -> list[Finding]:
    found: list[Finding] = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC.parent).as_posix()
        found.extend(lint(path.read_text(encoding="utf-8"), rel))
    return found


def test_src_is_clean(src_findings):
    gating = [
        f for f in src_findings
        if not (f.rule == "D003" and (f.path, f.scope) in ALLOWED_LOCKS)
    ]
    assert gating == []


def test_every_allowed_lock_is_found(src_findings):
    found = {(f.path, f.scope) for f in src_findings if f.rule == "D003"}
    stale = [key for key in ALLOWED_LOCKS if key not in found]
    assert stale == [], "allow-list entries that match no lock"
    assert all(reason for reason in ALLOWED_LOCKS.values())


def test_syntax_error_propagates():
    # A module the lint cannot parse fails it rather than escaping it.
    with pytest.raises(SyntaxError):
        lint("def f(:\n", "mod.py")


SNIPPETS = {
    # -- D001 ---------------------------------------------------------------
    "unseeded_random_constructor": (
        "mod.py", "import random\nrng = random.Random()\n", ["D001"]),
    "none_seed": (
        "mod.py", "import random\nrng = random.Random(None)\n", ["D001"]),
    "seeded_constructor": (
        "mod.py", "import random\nrng = random.Random(7)\n", []),
    "module_level_functions": (
        "mod.py", "import random\nx = random.randint(0, 3)\n", ["D001"]),
    "from_import_and_alias": (
        "mod.py", "from random import Random as R\nrng = R()\n", ["D001"]),
    "system_random": (
        "mod.py", "import random\nrng = random.SystemRandom()\n", []),
    "numpy_generators_unseeded": (
        "mod.py",
        """
        import numpy as np
        a = np.random.default_rng()
        b = np.random.RandomState()
        c = np.random.default_rng(seed=None)
        d = np.random.Generator(np.random.PCG64())
        """,
        ["D001"] * 4),
    "numpy_generators_seeded": (
        "mod.py",
        """
        import numpy as np
        a = np.random.default_rng(5)
        b = np.random.RandomState(seed=5)
        c = np.random.default_rng((5, 6))
        d = np.random.Generator(np.random.PCG64(5))
        """,
        []),
    "numpy_module_level_functions": (
        "mod.py",
        """
        import numpy.random as npr
        from numpy import random as nr
        x = npr.rand(3)
        y = nr.normal()
        """,
        ["D001", "D001"]),
    "numpy_from_import": (
        "mod.py", "from numpy.random import default_rng\nrng = default_rng()\n",
        ["D001"]),
    "every_d001_form_in_a_kernel": (
        "mod.py",
        """
        import random
        import numpy as np
        def compute(state, inputs):
            a = np.random.default_rng()
            b = np.random.rand(3)
            c = np.random.RandomState()
            d = random.Random(None)
            return {"out": (a, b, c, d)}
        """,
        ["D001"] * 4),
    # -- D002 ---------------------------------------------------------------
    "wallclock_in_compute_function": (
        "mod.py",
        """
        import time
        def compute(state, inputs):
            return {"out": time.perf_counter()}
        """,
        ["D002"]),
    "wallclock_in_kernels_module": (
        "app_kernels.py",
        """
        from time import time as now
        def helper():
            return now()
        """,
        ["D002"]),
    "harness_timing_is_not_kernel_scope": (
        "mod.py",
        """
        import time
        def run_kernel(task):
            return time.perf_counter()
        def invoke_kernel(task):
            return time.monotonic()
        """,
        []),
    "module_level_wallclock_is_fine": (
        "mod.py", "import time\nT0 = time.time()\n", []),
    # -- D003 ---------------------------------------------------------------
    "bare_lock_in_stm": (
        "repro/stm/guard.py", "import threading\nlock = threading.Lock()\n",
        ["D003"]),
    "rlock_flagged_too": (
        "repro/stm/guard.py", "import threading\nlock = threading.RLock()\n",
        ["D003"]),
    "analysis_none_branch_is_sanctioned": (
        "repro/stm/guard.py",
        """
        import threading
        def make_lock(analysis):
            if analysis is None:
                return threading.Lock()
            return analysis.tracked_lock("ch")
        """,
        []),
    "outside_stm_is_fine": (
        "repro/runtime/guard.py", "import threading\nlock = threading.Lock()\n",
        []),
}


@pytest.mark.parametrize("case", sorted(SNIPPETS))
def test_snippet(case):
    path, source, want = SNIPPETS[case]
    assert [f.rule for f in lint(textwrap.dedent(source), path)] == want
