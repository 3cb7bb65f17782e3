"""Tests for the project-level lint layer (repro.lint.project): module
naming, call-graph resolution (aliased imports, self/attr methods,
cycles), the effect fixpoint, the six cross-module rules against
violating / clean / suppressed fixtures (the violating hook-ordering,
modeled-time-purity and worker-queue-discipline fixtures span two
files), decorator-line
suppressions, and the --stats row."""

import ast
import json
from pathlib import Path

from repro.lint import (
    get_rules,
    lint_paths,
    lint_project,
    lint_project_sources,
    rule_ids,
)
from repro.lint.project import ProjectIndex, analyze_file
from repro.lint.summary import WALL_CLOCK, module_name


def active(violations):
    return [v for v in violations if not v.suppressed]


def ids(violations):
    return [v.rule for v in active(violations)]


def index_of(sources):
    records = [
        analyze_file(text, path, []) for path, text in sorted(sources.items())
    ]
    return ProjectIndex(r.summary for r in records)


def write_tree(root, files):
    for rel, text in files.items():
        p = root / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(text)
    return root


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_five_project_rules_registered(self):
        registered = rule_ids()
        for rid in (
            "hook-ordering",
            "modeled-time-purity",
            "shared-state-determinism",
            "worker-queue-discipline",
            "failure-path-verify",
        ):
            assert rid in registered


# ----------------------------------------------------------------------
# Module naming
# ----------------------------------------------------------------------
class TestModuleName:
    def test_src_prefix_stripped(self):
        assert module_name("src/repro/serving/cluster.py") == (
            "repro.serving.cluster"
        )

    def test_last_src_wins_for_tmp_trees(self):
        assert module_name("/tmp/x/src/repro/x/a.py") == "repro.x.a"

    def test_tests_and_benchmarks_keep_root(self):
        assert module_name("tests/test_lint.py") == "tests.test_lint"
        assert module_name("benchmarks/bench_plans.py") == (
            "benchmarks.bench_plans"
        )

    def test_init_stripped(self):
        assert module_name("src/repro/lint/__init__.py") == "repro.lint"


# ----------------------------------------------------------------------
# Call-graph resolution
# ----------------------------------------------------------------------
class TestCallGraph:
    def test_aliased_module_import_resolves(self):
        idx = index_of(
            {
                "src/repro/x/a.py": (
                    "import repro.x.b as bb\n"
                    "def f():\n"
                    "    return bb.helper()\n"
                ),
                "src/repro/x/b.py": (
                    "import time\n"
                    "def helper():\n"
                    "    return time.time()\n"
                ),
            }
        )
        targets = [t for t, _ in idx.edges["repro.x.a.f"]]
        assert "repro.x.b.helper" in targets
        assert WALL_CLOCK in idx.effects["repro.x.a.f"]

    def test_from_import_alias_resolves(self):
        idx = index_of(
            {
                "src/repro/x/a.py": (
                    "from repro.x.b import helper as h\n"
                    "def f():\n"
                    "    return h()\n"
                ),
                "src/repro/x/b.py": (
                    "import time\n"
                    "def helper():\n"
                    "    return time.monotonic()\n"
                ),
            }
        )
        assert WALL_CLOCK in idx.effects["repro.x.a.f"]

    def test_self_method_call_resolves(self):
        idx = index_of(
            {
                "src/repro/x/a.py": (
                    "import time\n"
                    "class C:\n"
                    "    def outer(self):\n"
                    "        return self.inner()\n"
                    "    def inner(self):\n"
                    "        return time.perf_counter()\n"
                ),
            }
        )
        assert WALL_CLOCK in idx.effects["repro.x.a.C.outer"]

    def test_known_constructor_local_resolves(self):
        idx = index_of(
            {
                "src/repro/x/a.py": (
                    "from repro.x.b import Engine\n"
                    "def f():\n"
                    "    e = Engine()\n"
                    "    return e.tick()\n"
                ),
                "src/repro/x/b.py": (
                    "import time\n"
                    "class Engine:\n"
                    "    def tick(self):\n"
                    "        return time.monotonic()\n"
                ),
            }
        )
        assert WALL_CLOCK in idx.effects["repro.x.a.f"]

    def test_instance_attr_constructor_resolves(self):
        idx = index_of(
            {
                "src/repro/x/a.py": (
                    "from repro.x.b import Engine\n"
                    "class Owner:\n"
                    "    def __init__(self):\n"
                    "        self.engine = Engine()\n"
                    "    def go(self):\n"
                    "        return self.engine.tick()\n"
                ),
                "src/repro/x/b.py": (
                    "import time\n"
                    "class Engine:\n"
                    "    def tick(self):\n"
                    "        return time.time()\n"
                ),
            }
        )
        assert WALL_CLOCK in idx.effects["repro.x.a.Owner.go"]

    def test_base_class_method_resolves(self):
        idx = index_of(
            {
                "src/repro/x/a.py": (
                    "from repro.x.b import Base\n"
                    "class Derived(Base):\n"
                    "    def go(self):\n"
                    "        return self.tick()\n"
                ),
                "src/repro/x/b.py": (
                    "import time\n"
                    "class Base:\n"
                    "    def tick(self):\n"
                    "        return time.time()\n"
                ),
            }
        )
        assert WALL_CLOCK in idx.effects["repro.x.a.Derived.go"]

    def test_cycle_reaches_fixpoint(self):
        idx = index_of(
            {
                "src/repro/x/a.py": (
                    "from repro.x.b import g\n"
                    "def f(n):\n"
                    "    return g(n)\n"
                ),
                "src/repro/x/b.py": (
                    "import time\n"
                    "from repro.x.a import f\n"
                    "def g(n):\n"
                    "    time.time()\n"
                    "    return f(n - 1)\n"
                ),
            }
        )
        # Both sides of the cycle converge to the same effect set.
        assert WALL_CLOCK in idx.effects["repro.x.a.f"]
        assert WALL_CLOCK in idx.effects["repro.x.b.g"]
        assert not idx.fixpoint_bounded
        assert idx.fixpoint_passes >= len(idx.functions)

    def test_dynamic_calls_produce_no_edge(self):
        idx = index_of(
            {
                "src/repro/x/a.py": (
                    "def f(cb):\n"
                    "    return cb()\n"
                ),
            }
        )
        assert idx.edges["repro.x.a.f"] == []

    def test_effect_chain_names_witness(self):
        idx = index_of(
            {
                "src/repro/x/a.py": (
                    "from repro.x.b import helper\n"
                    "def f():\n"
                    "    return helper()\n"
                ),
                "src/repro/x/b.py": (
                    "import time\n"
                    "def helper():\n"
                    "    return time.time()\n"
                ),
            }
        )
        chain = idx.effect_chain("repro.x.a.f", WALL_CLOCK)
        assert "time.time()" in chain[-1]
        assert "src/repro/x/b.py:3" in chain[-1]


# ----------------------------------------------------------------------
# hook-ordering (cross-module: the dispatch call lives in another file)
# ----------------------------------------------------------------------
class TestHookOrdering:
    VIOLATING = {
        "src/repro/serving/helpers.py": (
            "def kick_queue(ctl):\n"
            "    ctl.dispatch(0.0)\n"
        ),
        "src/repro/serving/ctrl.py": (
            "from repro.serving.helpers import kick_queue\n"
            "class MyController:\n"
            "    def on_arrival(self, now, req):\n"
            "        kick_queue(self)\n"
        ),
    }

    def test_two_file_violation(self):
        vs = lint_project_sources(self.VIOLATING)
        hits = [v for v in active(vs) if v.rule == "hook-ordering"]
        assert len(hits) == 1
        (v,) = hits
        assert v.path == "src/repro/serving/ctrl.py"
        assert v.line == 3
        # The message witnesses the chain through the *other* file.
        assert "helpers.py" in v.message

    def test_clean_hook(self):
        vs = lint_project_sources(
            {
                "src/repro/serving/ctrl.py": (
                    "class MyController:\n"
                    "    def on_arrival(self, now, req):\n"
                    "        self.pending.append(req)\n"
                ),
            }
        )
        assert "hook-ordering" not in ids(vs)

    def test_suppressed(self):
        srcs = dict(self.VIOLATING)
        srcs["src/repro/serving/ctrl.py"] = (
            "from repro.serving.helpers import kick_queue\n"
            "class MyController:\n"
            "    def on_arrival(self, now, req):"
            "  # repro-lint: ignore[hook-ordering] — fixture sanctions it\n"
            "        kick_queue(self)\n"
        )
        vs = lint_project_sources(srcs)
        assert "hook-ordering" not in ids(vs)
        assert any(
            v.rule == "hook-ordering" and v.suppressed for v in vs
        )

    def test_tests_are_exempt(self):
        srcs = {
            f"tests/{k.rsplit('/', 1)[-1]}": v
            for k, v in self.VIOLATING.items()
        }
        vs = lint_project_sources(srcs)
        assert "hook-ordering" not in ids(vs)


# ----------------------------------------------------------------------
# modeled-time-purity (cross-module: the clock read is two hops away)
# ----------------------------------------------------------------------
class TestModeledTimePurity:
    VIOLATING = {
        "src/repro/util/clock.py": (
            "import time\n"
            "def stamp():\n"
            "    return time.perf_counter()\n"
        ),
        "src/repro/serving/hot.py": (
            "from repro.util.clock import stamp\n"
            "def admit_batch(b):\n"
            "    return stamp()\n"
        ),
    }

    def test_two_file_violation(self):
        vs = lint_project_sources(self.VIOLATING)
        hits = [v for v in active(vs) if v.rule == "modeled-time-purity"]
        assert len(hits) == 1
        (v,) = hits
        assert v.path == "src/repro/serving/hot.py"
        # The chain names the wall-clock read in the other file.
        assert "time.perf_counter()" in v.message
        assert "clock.py" in v.message

    def test_helper_module_itself_not_flagged(self):
        # The read lives outside serving/ and kernels/; only the hot
        # path that reaches it is the violation.
        vs = lint_project_sources(self.VIOLATING)
        assert not any(
            v.path == "src/repro/util/clock.py" for v in active(vs)
        )

    def test_clean_modeled_time(self):
        vs = lint_project_sources(
            {
                "src/repro/serving/hot.py": (
                    "def admit_batch(b, now_ms):\n"
                    "    return now_ms + 1.5\n"
                ),
            }
        )
        assert "modeled-time-purity" not in ids(vs)

    def test_bench_functions_exempt(self):
        vs = lint_project_sources(
            {
                "src/repro/kernels/sweep.py": (
                    "import time\n"
                    "def bench_sweep(m):\n"
                    "    return time.perf_counter()\n"
                ),
            }
        )
        assert "modeled-time-purity" not in ids(vs)

    def test_bench_files_exempt(self):
        vs = lint_project_sources(
            {
                "benchmarks/bench_hot.py": (
                    "import time\n"
                    "def measure():\n"
                    "    return time.perf_counter()\n"
                ),
            }
        )
        assert "modeled-time-purity" not in ids(vs)

    def test_suppressed(self):
        srcs = dict(self.VIOLATING)
        srcs["src/repro/serving/hot.py"] = (
            "from repro.util.clock import stamp\n"
            "def admit_batch(b):"
            "  # repro-lint: ignore[modeled-time-purity] — fixture\n"
            "    return stamp()\n"
        )
        vs = lint_project_sources(srcs)
        assert "modeled-time-purity" not in ids(vs)


# ----------------------------------------------------------------------
# shared-state-determinism
# ----------------------------------------------------------------------
class TestSharedStateDeterminism:
    VIOLATING = {
        "src/repro/serving/state.py": "SEEN: dict = {}\n",
        "src/repro/serving/ctl.py": (
            "from repro.serving.state import SEEN\n"
            "class Ctl:\n"
            "    def dispatch(self, now):\n"
            "        self._note(now)\n"
            "    def _note(self, now):\n"
            "        SEEN[now] = True\n"
        ),
    }

    def test_mutation_on_dispatch_path_flagged(self):
        vs = lint_project_sources(self.VIOLATING)
        hits = [
            v for v in active(vs) if v.rule == "shared-state-determinism"
        ]
        assert len(hits) == 1
        (v,) = hits
        assert "repro.serving.state.SEEN" in v.message
        assert "state.py:1" in v.message  # names the defining binding

    def test_mutation_off_dispatch_path_clean(self):
        vs = lint_project_sources(
            {
                "src/repro/serving/state.py": "SEEN: dict = {}\n",
                "src/repro/serving/setup.py": (
                    "from repro.serving.state import SEEN\n"
                    "def register(name):\n"
                    "    SEEN[name] = True\n"
                ),
            }
        )
        assert "shared-state-determinism" not in ids(vs)

    def test_mutating_method_call_flagged(self):
        vs = lint_project_sources(
            {
                "src/repro/serving/ctl.py": (
                    "LOG: list = []\n"
                    "class Ctl:\n"
                    "    def dispatch(self, now):\n"
                    "        LOG.append(now)\n"
                ),
            }
        )
        assert "shared-state-determinism" in ids(vs)

    def test_suppressed(self):
        srcs = dict(self.VIOLATING)
        srcs["src/repro/serving/ctl.py"] = (
            "from repro.serving.state import SEEN\n"
            "class Ctl:\n"
            "    def dispatch(self, now):\n"
            "        self._note(now)\n"
            "    def _note(self, now):\n"
            "        SEEN[now] = True"
            "  # repro-lint: ignore[shared-state-determinism] — fixture\n"
        )
        vs = lint_project_sources(srcs)
        assert "shared-state-determinism" not in ids(vs)

    def test_lambda_param_shadow_does_not_mask_mutation(self):
        # Regression: lambda params used to leak into the enclosing
        # function's locals, so a param shadowing a module global hid
        # every later mutation of that global from the rule.
        vs = lint_project_sources(
            {
                "src/repro/serving/ctl.py": (
                    "LOG: list = []\n"
                    "class Ctl:\n"
                    "    def dispatch(self, now):\n"
                    "        key = lambda LOG: len(LOG)\n"
                    "        LOG.append((key, now))\n"
                ),
            }
        )
        assert "shared-state-determinism" in ids(vs)


# ----------------------------------------------------------------------
# worker-queue-discipline
# ----------------------------------------------------------------------
class TestWorkerQueueDiscipline:
    # One fixture, all three arms: a module-global write, a direct
    # wall-clock read outside the timing hooks, and a call into a
    # host-side module — all reachable from ``worker_main``.
    VIOLATING = {
        "src/repro/serving/workerized.py": (
            "import time\n"
            "from repro.serving.cluster import lookup_entry\n"
            "COUNTER: dict = {}\n"
            "def worker_main(wid, task_q):\n"
            "    spec = task_q.get()\n"
            "    _record(spec)\n"
            "    return _stamp(), lookup_entry(spec)\n"
            "def _record(spec):\n"
            "    COUNTER[spec] = True\n"
            "def _stamp():\n"
            "    return time.time()\n"
        ),
        "src/repro/serving/cluster.py": (
            "def lookup_entry(spec):\n"
            "    return spec\n"
        ),
    }

    def hits(self, srcs):
        vs = lint_project_sources(srcs)
        return [
            v for v in active(vs) if v.rule == "worker-queue-discipline"
        ]

    def test_all_three_arms_flagged(self):
        hits = self.hits(self.VIOLATING)
        assert len(hits) == 3
        assert all(
            v.path == "src/repro/serving/workerized.py" for v in hits
        )
        msgs = sorted(v.message for v in hits)
        assert any("mutates module-level state" in m for m in msgs)
        assert any("reads the wall clock" in m for m in msgs)
        assert any("host-side module" in m for m in msgs)
        # every finding carries the chain back to the entry point
        assert all("workerized.worker_main" in m for m in msgs)

    def test_host_call_names_callee_and_module(self):
        (v,) = [
            v for v in self.hits(self.VIOLATING)
            if "host-side module" in v.message
        ]
        assert "repro.serving.cluster.lookup_entry" in v.message
        assert "repro.serving.cluster" in v.message

    def test_host_module_itself_not_flagged(self):
        assert not any(
            v.path == "src/repro/serving/cluster.py"
            for v in self.hits(self.VIOLATING)
        )

    def test_timing_hook_is_sanctioned(self):
        hits = self.hits(
            {
                "src/repro/serving/workerized.py": (
                    "import time\n"
                    "def worker_main(wid, task_q):\n"
                    "    return _wall_ms()\n"
                    "def _wall_ms():\n"
                    "    return time.perf_counter() * 1e3\n"
                ),
            }
        )
        assert hits == []

    def test_off_worker_path_clean(self):
        # Same hazards, but nothing named worker_main reaches them.
        hits = self.hits(
            {
                "src/repro/serving/helpers.py": (
                    "import time\n"
                    "COUNTER: dict = {}\n"
                    "def record(spec):\n"
                    "    COUNTER[spec] = True\n"
                    "def stamp():\n"
                    "    return time.time()\n"
                ),
            }
        )
        assert hits == []

    def test_tests_exempt(self):
        srcs = {
            "tests/" + path.split("/")[-1]: text
            for path, text in self.VIOLATING.items()
        }
        assert self.hits(srcs) == []

    def test_suppressed(self):
        hits = self.hits(
            {
                "src/repro/serving/workerized.py": (
                    "COUNTER: dict = {}\n"
                    "def worker_main(task_q):\n"
                    "    _record(task_q.get())\n"
                    "def _record(spec):\n"
                    "    COUNTER[spec] = True"
                    "  # repro-lint: ignore[worker-queue-discipline]"
                    " — fixture\n"
                ),
            }
        )
        assert hits == []

    def test_worker_reachable_index_and_path(self):
        idx = index_of(self.VIOLATING)
        root = "repro.serving.workerized.worker_main"
        assert idx.worker_reachable[root] == (None, 0)
        for helper in ("_record", "_stamp"):
            assert (
                f"repro.serving.workerized.{helper}"
                in idx.worker_reachable
            )
        # reach crosses module boundaries into the host-side callee
        assert (
            "repro.serving.cluster.lookup_entry" in idx.worker_reachable
        )
        assert idx.worker_path("repro.serving.workerized._record") == [
            "workerized.worker_main",
            "workerized._record",
        ]


# ----------------------------------------------------------------------
# failure-path-verify
# ----------------------------------------------------------------------
class TestFailurePathVerify:
    # A recovery-named function (``requeue``/``reexecute``/… substring)
    # in a serving module that never reaches a verify=-explicit
    # flush/install — not itself, not via its dispatch root, not via a
    # direct caller.
    VIOLATING = {
        "src/repro/serving/recover.py": (
            "def flush(batch):\n"
            "    return batch\n"
            "def requeue_batch(batch):\n"
            "    return flush(batch)\n"
        ),
    }

    def hits(self, srcs):
        vs = lint_project_sources(srcs)
        return [v for v in active(vs) if v.rule == "failure-path-verify"]

    def test_unverified_recovery_path_flagged(self):
        hits = self.hits(self.VIOLATING)
        assert len(hits) == 1
        (v,) = hits
        assert v.path == "src/repro/serving/recover.py"
        assert v.line == 3
        assert "recover.requeue_batch" in v.message
        assert "bitwise check" in v.message

    def test_transitive_verify_passes(self):
        # The recovery path reaches flush(verify=...) through a helper;
        # the effect propagates up the fixpoint.
        hits = self.hits(
            {
                "src/repro/serving/recover.py": (
                    "def flush(batch, verify=True):\n"
                    "    return batch\n"
                    "def _finish(batch):\n"
                    "    return flush(batch, verify=True)\n"
                    "def requeue_batch(batch):\n"
                    "    return _finish(batch)\n"
                ),
            }
        )
        assert hits == []

    def test_dispatch_root_verify_passes(self):
        # The re-queued batch goes back through dispatch, whose launch
        # path spells verify= — arm (2).
        hits = self.hits(
            {
                "src/repro/serving/recover.py": (
                    "def dispatch(batch):\n"
                    "    if batch:\n"
                    "        return _launch(batch)\n"
                    "    return requeue_batch(batch)\n"
                    "def _launch(batch):\n"
                    "    return flush(batch, verify=True)\n"
                    "def flush(batch, verify=True):\n"
                    "    return batch\n"
                    "def requeue_batch(batch):\n"
                    "    return batch\n"
                ),
            }
        )
        assert hits == []

    def test_direct_caller_verify_passes(self):
        # The caller installs the re-executed result itself with an
        # explicit verify= — arm (3).
        hits = self.hits(
            {
                "src/repro/serving/recover.py": (
                    "def flush(batch, verify=True):\n"
                    "    return batch\n"
                    "def recover(batch):\n"
                    "    redone = requeue_batch(batch)\n"
                    "    return flush(redone, verify=True)\n"
                    "def requeue_batch(batch):\n"
                    "    return batch\n"
                ),
            }
        )
        assert hits == []

    def test_non_serving_module_exempt(self):
        srcs = {
            "src/repro/pipeline/recover.py": text
            for text in self.VIOLATING.values()
        }
        assert self.hits(srcs) == []

    def test_tests_exempt(self):
        srcs = {
            "tests/" + path.split("/")[-1]: text
            for path, text in self.VIOLATING.items()
        }
        assert self.hits(srcs) == []

    def test_suppressed(self):
        hits = self.hits(
            {
                "src/repro/serving/recover.py": (
                    "def flush(batch):\n"
                    "    return batch\n"
                    "def requeue_batch(batch):"
                    "  # repro-lint: ignore[failure-path-verify]"
                    " — fixture\n"
                    "    return flush(batch)\n"
                ),
            }
        )
        assert hits == []


# ----------------------------------------------------------------------
# Serving rules over the real tree
# ----------------------------------------------------------------------
class TestServingRuleScope:
    """``failure-path-verify`` only inspects recovery-named functions and
    ``worker-queue-discipline`` only what ``worker_main`` reaches, so a
    rename could leave either rule silently green.  Index the real
    ``src/`` tree and pin both scopes."""

    def test_router_recovery_and_worker_paths_in_scope(self):
        src = Path(__file__).resolve().parents[1] / "src"
        index = ProjectIndex(
            analyze_file(p.read_text(), p, []).summary
            for p in sorted(src.rglob("*.py"))
        )
        (rule,) = get_rules("failure-path-verify")
        ctl = "repro.serving.cluster._RouterController"
        for name in ("_requeue_inflight", "_reexecute_lost"):
            fn = index.functions[f"{ctl}.{name}"]
            assert any(m in fn.name for m in rule._RECOVERY_MARKS)
            assert rule.applies_to(index.path_of(fn.qualname))
        cluster = index.modules["repro.serving.cluster"]
        assert rule.check_module(index, cluster) == []

        reach = index.worker_reachable
        assert "repro.serving.parallel.worker_main" in reach
        assert "repro.serving.parallel._execute_spec" in reach
        for qual in reach:
            assert index.function_module[qual] not in (
                "repro.serving.cluster",
                "repro.serving.batcher",
            ), index.worker_path(qual)
            assert not qual.startswith(
                "repro.serving.plane.InProcessPlane."
            ), index.worker_path(qual)


# ----------------------------------------------------------------------
# Lambda parameter scoping in the summary layer
# ----------------------------------------------------------------------
class TestLambdaScoping:
    def test_lambda_params_scoped_to_body(self):
        # Every param kind masks the global inside the body only; the
        # mutation after the lambda is the one real global mutation.
        rec = analyze_file(
            "VALS: list = []\n"
            "def f():\n"
            "    g = lambda *VALS, **extra: VALS.append(len(extra))\n"
            "    VALS.append(1)\n",
            "src/repro/m.py",
            [],
        )
        fn = rec.summary.functions["repro.m.f"]
        assert [m.target for m in fn.global_mutations] == ["repro.m.VALS"]
        assert fn.global_mutations[0].line == 4

    def test_posonly_and_kwonly_params_masked_in_body(self):
        rec = analyze_file(
            "A: list = []\n"
            "B: list = []\n"
            "def f():\n"
            "    g = lambda A, /, *, B=(): A.append(B)\n",
            "src/repro/m.py",
            [],
        )
        fn = rec.summary.functions["repro.m.f"]
        assert fn.global_mutations == ()


# ----------------------------------------------------------------------
# Decorated-function suppressions (satellite bugfix)
# ----------------------------------------------------------------------
class TestDecoratorSuppressions:
    HELPERS = (
        "def noop(f):\n"
        "    return f\n"
    )

    def test_directive_on_single_decorator_line(self):
        vs = lint_project_sources(
            {
                "src/repro/serving/ctrl.py": (
                    "def noop(f):\n"
                    "    return f\n"
                    "class C:\n"
                    "    @noop"
                    "  # repro-lint: ignore[hook-ordering] — fixture\n"
                    "    def on_arrival(self, now):\n"
                    "        self.dispatch(now)\n"
                ),
            }
        )
        assert "hook-ordering" not in ids(vs)
        assert any(v.rule == "hook-ordering" and v.suppressed for v in vs)

    def test_directive_on_first_of_multiple_decorators(self):
        vs = lint_project_sources(
            {
                "src/repro/serving/ctrl.py": (
                    "def noop(f):\n"
                    "    return f\n"
                    "def wrap(f):\n"
                    "    return f\n"
                    "class C:\n"
                    "    @noop"
                    "  # repro-lint: ignore[hook-ordering] — fixture\n"
                    "    @wrap\n"
                    "    def on_arrival(self, now):\n"
                    "        self.dispatch(now)\n"
                ),
            }
        )
        assert "hook-ordering" not in ids(vs)

    def test_directive_on_def_line_still_works(self):
        vs = lint_project_sources(
            {
                "src/repro/serving/ctrl.py": (
                    "def noop(f):\n"
                    "    return f\n"
                    "class C:\n"
                    "    @noop\n"
                    "    def on_arrival(self, now):"
                    "  # repro-lint: ignore[hook-ordering] — fixture\n"
                    "        self.dispatch(now)\n"
                ),
            }
        )
        assert "hook-ordering" not in ids(vs)

    def test_unsuppressed_decorated_hook_still_fires(self):
        vs = lint_project_sources(
            {
                "src/repro/serving/ctrl.py": (
                    "def noop(f):\n"
                    "    return f\n"
                    "class C:\n"
                    "    @noop\n"
                    "    def on_arrival(self, now):\n"
                    "        self.dispatch(now)\n"
                ),
            }
        )
        assert "hook-ordering" in ids(vs)


# ----------------------------------------------------------------------
# Stats row
# ----------------------------------------------------------------------
TREE = {
    "src/repro/__init__.py": "",
    "src/repro/x/__init__.py": "",
    "src/repro/x/a.py": (
        "from repro.x.b import helper\n"
        "def fa():\n"
        "    return helper()\n"
    ),
    "src/repro/x/b.py": (
        "from repro.x.c import helper2\n"
        "def helper():\n"
        "    return helper2()\n"
    ),
    "src/repro/x/c.py": "def helper2():\n    return 1\n",
    "src/repro/x/d.py": "def lonely():\n    return 2\n",
}


class TestStats:
    def test_stats_row_shape(self, tmp_path):
        write_tree(tmp_path, TREE)
        row = lint_project([tmp_path / "src"]).stats.to_row()
        assert set(row) == {
            "bench", "files", "project_modules", "fixpoint_passes",
            "rule_ms", "total_ms",
        }
        assert row["bench"] == "lint"
        assert row["files"] == len(TREE)
        assert row["project_modules"] == len(TREE)
        assert isinstance(row["rule_ms"], dict)
        json.dumps(row)  # must be JSON-serializable

    def test_cold_run_records_per_rule_timings(self, tmp_path):
        write_tree(tmp_path, TREE)
        report = lint_project([tmp_path / "src"])
        assert "hook-ordering" in report.stats.rule_ms
        assert "seeded-rng" in report.stats.rule_ms


# ----------------------------------------------------------------------
# lint_paths runs the project rules too
# ----------------------------------------------------------------------
class TestLintPathsIntegration:
    def test_lint_paths_reports_cross_module_findings(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/serving/ctrl.py": (
                    "class C:\n"
                    "    def on_arrival(self, now):\n"
                    "        self.dispatch(now)\n"
                ),
            },
        )
        violations, scanned = lint_paths([tmp_path / "src"])
        assert scanned == 1
        assert "hook-ordering" in ids(violations)

    def test_ast_parse_of_fixture_sources(self):
        # Guard: every inline fixture in this file must be valid Python.
        for name, value in globals().items():
            if isinstance(value, dict) and name == "TREE":
                for text in value.values():
                    ast.parse(text)
