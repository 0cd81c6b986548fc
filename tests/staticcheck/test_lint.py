"""Lint-rule tests: each rule's positive/negative space + suppression."""

from pathlib import Path

import pytest

from repro.errors import StaticCheckError
from repro.staticcheck import LINT_RULES, lint_source, run_lint
from repro.staticcheck.lint import module_name_of


def findings_of(source, module, rules=None):
    return lint_source(
        source, f"src/{module.replace('.', '/')}.py", module=module,
        rules=rules,
    )


class TestRep101:
    def test_bank_arith_in_app_code_flagged(self):
        src = "def f(i, width):\n    return i % width\n"
        findings = findings_of(src, "repro.apps.sorting")
        assert [f.rule for f in findings] == ["REP101"]
        assert findings[0].line == 2

    def test_floordiv_flagged(self):
        src = "def f(i, w):\n    return i // w\n"
        assert findings_of(src, "repro.apps.sorting")[0].rule == "REP101"

    def test_machine_layer_allowed(self):
        src = "def bank(i, width):\n    return i % width\n"
        assert findings_of(src, "repro.machine.dmm") == []
        assert findings_of(src, "repro.core.rowwise") == []
        assert findings_of(src, "repro.coloring.euler") == []

    def test_divisibility_check_exempt(self):
        src = (
            "def check(root, width):\n"
            "    if root % width != 0:\n"
            "        raise ValueError\n"
        )
        assert findings_of(src, "repro.util.validation") == []

    def test_mod_by_other_names_ignored(self):
        src = "def f(i, n):\n    return i % n\n"
        assert findings_of(src, "repro.apps.sorting") == []


class TestRep102:
    def test_tracer_in_library_code_flagged(self):
        src = (
            "from repro import telemetry\n"
            "def f():\n"
            "    t = telemetry.Tracer()\n"
            "    return t\n"
        )
        findings = findings_of(src, "repro.core.scheduled")
        assert [f.rule for f in findings] == ["REP102"]

    def test_tracer_in_entry_points_allowed(self):
        src = "from repro import telemetry\nt = telemetry.Tracer()\n"
        assert findings_of(src, "repro.cli") == []
        assert findings_of(src, "repro.report") == []
        assert findings_of(src, "repro.resilience.engine") == []
        assert findings_of(src, "repro.telemetry.tracer") == []

    def test_internal_import_flagged(self):
        src = "from repro.telemetry.tracer import Span\n"
        findings = findings_of(src, "repro.core.rowwise")
        assert [f.rule for f in findings] == ["REP102"]

    def test_bare_span_statement_flagged(self):
        src = (
            "from repro import telemetry\n"
            "def f():\n"
            "    telemetry.span('work')\n"
        )
        findings = findings_of(src, "repro.core.rowwise")
        assert [f.rule for f in findings] == ["REP102"]
        assert "never entered" in findings[0].message

    def test_with_span_allowed(self):
        src = (
            "from repro import telemetry\n"
            "def f():\n"
            "    with telemetry.span('work'):\n"
            "        pass\n"
        )
        assert findings_of(src, "repro.core.rowwise") == []


class TestRep103:
    def test_astype_narrow_flagged(self):
        src = "import numpy as np\ndef f(a):\n    return a.astype(np.int32)\n"
        findings = findings_of(src, "repro.apps.sorting")
        assert [f.rule for f in findings] == ["REP103"]
        assert "np.int32" in findings[0].message

    def test_dtype_kwarg_flagged(self):
        src = "import numpy as np\nx = np.zeros(4, dtype=np.int16)\n"
        assert findings_of(src, "repro.apps.sorting")[0].rule == "REP103"

    def test_string_dtype_flagged(self):
        src = "import numpy as np\nx = np.empty(4, dtype='uint8')\n"
        assert findings_of(src, "repro.apps.sorting")[0].rule == "REP103"

    def test_wide_dtypes_allowed(self):
        src = (
            "import numpy as np\n"
            "x = np.zeros(4, dtype=np.int64)\n"
            "y = np.arange(4).astype(np.float32)\n"
        )
        assert findings_of(src, "repro.apps.sorting") == []

    def test_np_ones_deliberately_excluded(self):
        # The colouring backends build int8 ones-vectors as sparse
        # payloads; overflow is impossible there.
        src = "import numpy as np\nx = np.ones(4, dtype=np.int8)\n"
        assert findings_of(src, "repro.apps.sorting") == []

    def test_home_module_exempt(self):
        src = "import numpy as np\nx = np.zeros(4, dtype=np.uint8)\n"
        assert findings_of(src, "repro.util.arrays") == []


class TestSuppression:
    SRC = "import numpy as np\nx = np.zeros(4, dtype=np.int8)"

    def test_bare_ignore(self):
        src = self.SRC + "  # staticcheck: ignore\n"
        assert findings_of(src, "repro.apps.sorting") == []

    def test_scoped_ignore(self):
        src = self.SRC + "  # staticcheck: ignore[REP103]\n"
        assert findings_of(src, "repro.apps.sorting") == []

    def test_wrong_rule_does_not_suppress(self):
        src = self.SRC + "  # staticcheck: ignore[REP101]\n"
        assert len(findings_of(src, "repro.apps.sorting")) == 1


class TestRunLint:
    def test_package_is_clean(self):
        assert run_lint() == []

    def test_rule_filter(self):
        src = (
            "import numpy as np\n"
            "def f(i, width):\n"
            "    return np.zeros(i % width, dtype=np.int8)\n"
        )
        both = findings_of(src, "repro.apps.sorting")
        assert {f.rule for f in both} == {"REP101", "REP103"}
        only = findings_of(src, "repro.apps.sorting", rules=["REP103"])
        assert [f.rule for f in only] == ["REP103"]

    def test_unknown_rule_rejected(self):
        with pytest.raises(StaticCheckError):
            run_lint(rules=["REP999"])

    def test_missing_path_rejected(self):
        with pytest.raises(StaticCheckError):
            run_lint(paths=["/nonexistent/dir"])

    def test_syntax_error_reported(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        with pytest.raises(StaticCheckError):
            run_lint(paths=[bad])

    def test_explicit_file_path(self, tmp_path):
        mod = tmp_path / "repro" / "apps" / "thing.py"
        mod.parent.mkdir(parents=True)
        mod.write_text("import numpy as np\n"
                       "x = np.zeros(4, dtype=np.int8)\n")
        findings = run_lint(paths=[mod])
        assert [f.rule for f in findings] == ["REP103"]

    def test_module_name_of(self):
        assert module_name_of(
            Path("src/repro/machine/dmm.py")
        ) == "repro.machine.dmm"
        assert module_name_of(
            Path("src/repro/staticcheck/__init__.py")
        ) == "repro.staticcheck"


class TestRep104:
    ENGINE = (
        "import numpy as np\n"
        "class ShinyPermutation:\n"
        "    def lower(self):\n"
        "        return None\n"
    )

    def test_unregistered_engine_flagged(self):
        findings = findings_of(self.ENGINE, "repro.core.shiny")
        assert [f.rule for f in findings] == ["REP104"]
        assert "ShinyPermutation" in findings[0].message
        assert "register_engine" in findings[0].message

    def test_cpu_layer_also_covered(self):
        findings = findings_of(self.ENGINE, "repro.cpu.shiny")
        assert [f.rule for f in findings] == ["REP104"]

    def test_registered_engine_clean(self):
        src = (
            "from repro.ir.registry import register_engine\n"
            "@register_engine('shiny')\n"
            "class ShinyPermutation:\n"
            "    def lower(self):\n"
            "        return None\n"
        )
        assert findings_of(src, "repro.core.shiny") == []

    def test_qualified_decorator_accepted(self):
        src = (
            "from repro.ir import registry\n"
            "@registry.register_engine('shiny')\n"
            "class ShinyPermutation:\n"
            "    def lower(self):\n"
            "        return None\n"
        )
        assert findings_of(src, "repro.core.shiny") == []

    def test_class_without_lower_exempt(self):
        src = (
            "class Helper:\n"
            "    def apply(self, a):\n"
            "        return a\n"
        )
        assert findings_of(src, "repro.core.helpers") == []

    def test_outside_engine_layers_exempt(self):
        assert findings_of(self.ENGINE, "repro.resilience.engine") == []
        assert findings_of(self.ENGINE, "repro.ir.program") == []

    def test_inline_suppression(self):
        src = (
            "class Facade:  # staticcheck: ignore[REP104]\n"
            "    def lower(self):\n"
            "        return None\n"
        )
        assert findings_of(src, "repro.core.selector") == []


_LOCKED_CLASS = """
import threading

class Server:
    def __init__(self):
        self._cond = threading.Condition()
        self._stats_lock = threading.Lock()
        self.served = 0
"""


class TestRep106:
    def test_inversion_flagged(self):
        src = _LOCKED_CLASS + (
            "    def bad(self):\n"
            "        with self._stats_lock:\n"
            "            with self._cond:\n"
            "                pass\n"
        )
        findings = findings_of(src, "repro.service.server")
        assert [f.rule for f in findings] == ["REP106"]
        assert "hierarchy" in findings[0].message

    def test_declared_order_clean(self):
        src = _LOCKED_CLASS + (
            "    def good(self):\n"
            "        with self._cond:\n"
            "            with self._stats_lock:\n"
            "                pass\n"
        )
        assert findings_of(src, "repro.service.server") == []

    def test_inversion_through_call_graph_flagged(self):
        """The acquisition hides one self-call deep — the transitive
        lock-set fixpoint still sees it."""
        src = _LOCKED_CLASS + (
            "    def helper(self):\n"
            "        with self._cond:\n"
            "            pass\n\n"
            "    def bad(self):\n"
            "        with self._stats_lock:\n"
            "            self.helper()\n"
        )
        findings = findings_of(src, "repro.service.server")
        assert [f.rule for f in findings] == ["REP106"]
        assert "via self.helper()" in findings[0].message

    def test_nonreentrant_self_deadlock_flagged(self):
        src = _LOCKED_CLASS + (
            "    def bad(self):\n"
            "        with self._stats_lock:\n"
            "            with self._stats_lock:\n"
            "                pass\n"
        )
        findings = findings_of(src, "repro.service.server")
        assert [f.rule for f in findings] == ["REP106"]
        assert "self-deadlock" in findings[0].message

    def test_reentrant_kinds_may_reenter(self):
        src = _LOCKED_CLASS + (
            "    def notify(self):\n"
            "        with self._cond:\n"
            "            with self._cond:\n"
            "                pass\n"
        )
        assert findings_of(src, "repro.service.server") == []

    def test_outside_concurrency_layers_exempt(self):
        src = _LOCKED_CLASS + (
            "    def bad(self):\n"
            "        with self._stats_lock:\n"
            "            with self._cond:\n"
            "                pass\n"
        )
        assert findings_of(src, "repro.machine.dmm") == []

    def test_call_typed_with_items_not_locks(self):
        """`with self._flight(fp):` is a call, not a declared lock."""
        src = _LOCKED_CLASS + (
            "    def _flight(self, fp):\n"
            "        return self._cond\n\n"
            "    def serve(self, fp):\n"
            "        with self._stats_lock:\n"
            "            with self._flight(fp):\n"
            "                pass\n"
        )
        findings = findings_of(src, "repro.service.server")
        # _flight acquires nothing itself, so the call contributes no
        # transitive locks and the with-item is not an acquisition.
        assert findings == []

    def test_inline_suppression(self):
        src = _LOCKED_CLASS + (
            "    def bad(self):\n"
            "        with self._stats_lock:\n"
            "            with self._cond:"
            "  # staticcheck: ignore[REP106]\n"
            "                pass\n"
        )
        assert findings_of(src, "repro.service.server") == []


class TestRep107:
    def test_unguarded_write_to_shared_attr_flagged(self):
        src = _LOCKED_CLASS + (
            "    def inc(self):\n"
            "        with self._stats_lock:\n"
            "            self.served += 1\n\n"
            "    def racy(self):\n"
            "        self.served = 0\n"
        )
        findings = findings_of(src, "repro.service.server")
        assert [f.rule for f in findings] == ["REP107"]
        assert "self.served" in findings[0].message

    def test_subscript_write_also_tracked(self):
        src = _LOCKED_CLASS + (
            "    def put(self, k, v):\n"
            "        with self._stats_lock:\n"
            "            self.served = {}\n\n"
            "    def racy(self, k, v):\n"
            "        self.served[k] = v\n"
        )
        findings = findings_of(src, "repro.service.server")
        assert [f.rule for f in findings] == ["REP107"]

    def test_init_writes_exempt(self):
        src = _LOCKED_CLASS + (
            "    def inc(self):\n"
            "        with self._stats_lock:\n"
            "            self.served += 1\n"
        )
        # __init__'s unguarded `self.served = 0` must not count.
        assert findings_of(src, "repro.service.server") == []

    def test_never_guarded_attr_is_not_shared(self):
        src = _LOCKED_CLASS + (
            "    def set_meta(self, m):\n"
            "        self.meta = m\n"
        )
        assert findings_of(src, "repro.service.server") == []

    def test_callsite_guarded_method_clean(self):
        """A helper only ever invoked under the lock writes safely."""
        src = _LOCKED_CLASS + (
            "    def _bump(self):\n"
            "        self.served += 1\n\n"
            "    def serve(self):\n"
            "        with self._stats_lock:\n"
            "            self._bump()\n"
        )
        assert findings_of(src, "repro.service.server") == []

    def test_one_unguarded_callsite_breaks_the_guard(self):
        src = _LOCKED_CLASS + (
            "    def _bump(self):\n"
            "        self.served += 1\n\n"
            "    def serve(self):\n"
            "        with self._stats_lock:\n"
            "            self._bump()\n\n"
            "    def sneak(self):\n"
            "        self._bump()\n"
        )
        findings = findings_of(src, "repro.service.server")
        assert [f.rule for f in findings] == ["REP107"]

    def test_inline_suppression(self):
        src = _LOCKED_CLASS + (
            "    def inc(self):\n"
            "        with self._stats_lock:\n"
            "            self.served += 1\n\n"
            "    def racy(self):\n"
            "        self.served = 0"
            "  # staticcheck: ignore[REP107]\n"
        )
        assert findings_of(src, "repro.service.server") == []


class TestCatalogue:
    def test_rules_documented(self):
        assert set(LINT_RULES) == {
            "REP101", "REP102", "REP103", "REP104", "REP106", "REP107",
        }
        assert all(LINT_RULES.values())
