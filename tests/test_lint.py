"""The invariant linter: per-rule fixtures, suppressions, CLI, and the
meta-test that the repo itself lints clean.

Each rule gets at least a positive fixture (the rule fires), a
negative fixture (compliant code stays silent) and a suppression
fixture (a justified ``# repro: allow[...]`` pragma moves the finding
to the suppressed list).  Scoped rules are exercised through fixture
paths that replicate the real layout (``.../experiments/store/...``)
because scope *is* part of the rule.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import default_rules, lint_paths
from repro.lint.core import META_RULE_ID
from repro.lint.locks import MIGRATIONS_LOCK
from repro.lint.rules import (
    SqlHygieneRule,
    UnusedImportRule,
    migration_checksum,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def lint_file(tmp_path, relpath, source, rules=None):
    """Lint ``source`` written at ``tmp_path/relpath``."""
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return lint_paths(
        [path], default_rules() if rules is None else rules
    )


def rule_ids(report):
    return [f.rule_id for f in report.findings]


# -- D1: rng construction ---------------------------------------------


class TestRngConstructionRule:
    def test_default_rng_outside_rng_module_fires(self, tmp_path):
        report = lint_file(tmp_path, "pkg/sched.py", """\
            import numpy as np

            rng = np.random.default_rng(3)
        """)
        assert rule_ids(report) == ["D1"]
        assert "rng.py" in report.findings[0].message

    def test_stdlib_random_module_state_fires(self, tmp_path):
        report = lint_file(tmp_path, "pkg/sched.py", """\
            import random
            from random import Random

            random.seed(1)
            r = Random(2)
        """)
        assert rule_ids(report) == ["D1", "D1"]

    def test_rng_module_itself_is_exempt(self, tmp_path):
        report = lint_file(tmp_path, "pkg/util/rng.py", """\
            import numpy as np

            def as_generator(seed):
                \"\"\"Root construction point.\"\"\"
                return np.random.default_rng(seed)
        """)
        assert report.clean

    def test_passed_in_generator_use_is_fine(self, tmp_path):
        # instance/parameter attributes that merely *look* like the
        # random module must not fire: only module-level state does
        report = lint_file(tmp_path, "pkg/sched.py", """\
            def pick(rng, items):
                \"\"\"Draw via the caller's stream.\"\"\"
                return items[rng.integers(len(items))]

            class S:
                def step(self):
                    \"\"\"Use the injected stream.\"\"\"
                    return self.rng.random()
        """)
        assert report.clean

    def test_justified_pragma_suppresses(self, tmp_path):
        report = lint_file(tmp_path, "pkg/sched.py", """\
            import numpy as np

            rng = np.random.default_rng(0)  # repro: allow[D1] -- module-scope demo fixture
        """)
        assert report.clean
        assert [f.rule_id for f in report.suppressed] == ["D1"]


# -- D2: wall clock ---------------------------------------------------


class TestWallClockRule:
    def test_time_time_in_store_fires(self, tmp_path):
        report = lint_file(
            tmp_path, "pkg/experiments/store/record.py", """\
            import time

            stamp = time.time()
        """)
        assert rule_ids(report) == ["D2"]

    def test_datetime_now_in_spec_fires(self, tmp_path):
        report = lint_file(tmp_path, "pkg/experiments/spec.py", """\
            from datetime import datetime

            stamp = datetime.now()
        """)
        assert rule_ids(report) == ["D2"]

    def test_out_of_scope_module_may_read_the_clock(self, tmp_path):
        report = lint_file(tmp_path, "pkg/util/timing.py", """\
            import time

            t0 = time.time()
        """)
        assert report.clean

    def test_clock_helper_is_fine_in_scope(self, tmp_path):
        report = lint_file(
            tmp_path, "pkg/experiments/store/record.py", """\
            from repro.util.clock import utc_now_iso

            stamp = utc_now_iso()
        """)
        assert report.clean

    def test_standalone_pragma_covers_next_line(self, tmp_path):
        report = lint_file(
            tmp_path, "pkg/experiments/store/record.py", """\
            import time

            # repro: allow[D2] -- wall time for a progress log line, never serialized
            stamp = time.time()
        """)
        assert report.clean
        assert [f.rule_id for f in report.suppressed] == ["D2"]


# -- D3: unordered iteration ------------------------------------------


class TestUnorderedIterationRule:
    def test_bare_listdir_fires(self, tmp_path):
        report = lint_file(
            tmp_path, "pkg/experiments/store/fs.py", """\
            import os

            def refs(root):
                \"\"\"List record refs.\"\"\"
                return [d for d in os.listdir(root)]
        """)
        assert rule_ids(report) == ["D3"]

    def test_sorted_listdir_is_fine(self, tmp_path):
        report = lint_file(
            tmp_path, "pkg/experiments/store/fs.py", """\
            import os
            from pathlib import Path

            def refs(root):
                \"\"\"List record refs, deterministically.\"\"\"
                return [d for d in sorted(os.listdir(root))]

            def children(root):
                \"\"\"Scan record dirs, deterministically.\"\"\"
                return sorted(Path(root).iterdir())
        """)
        assert report.clean

    def test_bare_iterdir_method_fires(self, tmp_path):
        report = lint_file(
            tmp_path, "pkg/experiments/store/fs.py", """\
            def children(root):
                \"\"\"Scan record dirs.\"\"\"
                return list(root.iterdir())
        """)
        assert rule_ids(report) == ["D3"]

    def test_set_iteration_fires(self, tmp_path):
        report = lint_file(
            tmp_path, "pkg/experiments/manifest.py", """\
            def names(runs):
                \"\"\"Collect names.\"\"\"
                for n in set(runs):
                    yield n
        """)
        assert rule_ids(report) == ["D3"]

    def test_sorted_set_is_fine(self, tmp_path):
        report = lint_file(
            tmp_path, "pkg/experiments/manifest.py", """\
            def names(runs):
                \"\"\"Collect names, deterministically.\"\"\"
                for n in sorted(set(runs)):
                    yield n
        """)
        assert report.clean


# -- A1: atomic writes ------------------------------------------------


class TestAtomicWriteRule:
    def test_open_for_write_in_store_fires(self, tmp_path):
        report = lint_file(
            tmp_path, "pkg/experiments/store/record.py", """\
            def save(path, text):
                \"\"\"Persist.\"\"\"
                with open(path, "w") as fh:
                    fh.write(text)
        """)
        assert rule_ids(report) == ["A1"]

    def test_write_text_and_path_open_fire(self, tmp_path):
        report = lint_file(
            tmp_path, "pkg/experiments/manifest.py", """\
            def save(path, text):
                \"\"\"Persist.\"\"\"
                path.write_text(text)
                with path.open("a") as fh:
                    fh.write(text)
        """)
        assert rule_ids(report) == ["A1", "A1"]

    def test_reads_are_fine(self, tmp_path):
        report = lint_file(
            tmp_path, "pkg/experiments/store/record.py", """\
            def load(path):
                \"\"\"Read back.\"\"\"
                with open(path) as fh:
                    head = fh.read()
                with open(path, "r", encoding="utf-8") as fh:
                    return head + fh.read()
        """)
        assert report.clean

    def test_atomic_helper_is_the_sanctioned_path(self, tmp_path):
        report = lint_file(
            tmp_path, "pkg/experiments/store/record.py", """\
            from repro.util.atomic import atomic_write_text

            def save(path, text):
                \"\"\"Persist atomically.\"\"\"
                return atomic_write_text(path, text)
        """)
        assert report.clean

    def test_out_of_scope_writes_are_fine(self, tmp_path):
        report = lint_file(tmp_path, "pkg/metrics/export.py", """\
            def dump(path, text):
                \"\"\"Not a persistence-layer module.\"\"\"
                with open(path, "w") as fh:
                    fh.write(text)
        """)
        assert report.clean

    def test_justified_pragma_suppresses(self, tmp_path):
        report = lint_file(
            tmp_path, "pkg/experiments/store/scratch.py", """\
            def log_line(path, text):
                \"\"\"Append-only debug log, loss-tolerant.\"\"\"
                # repro: allow[A1] -- append-only debug log; a torn tail line is acceptable
                with open(path, "a") as fh:
                    fh.write(text)
        """)
        assert report.clean
        assert [f.rule_id for f in report.suppressed] == ["A1"]


# -- R1: registry hygiene ---------------------------------------------

class TestRegistryHygieneRule:
    def test_compliant_registration_is_clean(self, tmp_path):
        report = lint_file(tmp_path, "pkg/sched.py", """\
            from repro.registry import register_scheduler

            @register_scheduler("min-min", description="greedy baseline")
            def build(settings, rng):
                \"\"\"Build the scheduler.\"\"\"
        """)
        assert report.clean

    def test_missing_description_fires(self, tmp_path):
        report = lint_file(tmp_path, "pkg/sched.py", """\
            from repro.registry import register_scheduler

            @register_scheduler("min-min")
            def build(settings, rng):
                \"\"\"Build the scheduler.\"\"\"
        """)
        assert rule_ids(report) == ["R1"]
        assert "description" in report.findings[0].message

    def test_missing_docstring_fires(self, tmp_path):
        report = lint_file(tmp_path, "pkg/sched.py", """\
            from repro.registry import register_scheduler

            @register_scheduler("min-min", description="greedy baseline")
            def build(settings, rng):
                return None
        """)
        assert rule_ids(report) == ["R1"]
        assert "docstring" in report.findings[0].message

    def test_grammar_violating_name_fires(self, tmp_path):
        report = lint_file(tmp_path, "pkg/sched.py", """\
            from repro.registry import register_scheduler

            @register_scheduler("Min?Min", description="greedy baseline")
            def build(settings, rng):
                \"\"\"Build the scheduler.\"\"\"
        """)
        assert rule_ids(report) == ["R1"]
        assert "ref grammar" in report.findings[0].message

    def test_call_form_checks_the_applied_function(self, tmp_path):
        # the factory.py idiom: register_x(...)(fn) with fn a local def
        report = lint_file(tmp_path, "pkg/factory.py", """\
            from repro.registry import register_scheduler

            def _build(settings, rng):
                return None

            register_scheduler("stga", description="the GA")(_build)
        """)
        assert rule_ids(report) == ["R1"]
        assert "docstring" in report.findings[0].message


# -- Q1: sql hygiene --------------------------------------------------

_MIGRATIONS_SNIPPET = """\
    MIGRATIONS = (
        ("runs table", ("CREATE TABLE runs (id INTEGER)",)),
    )
"""

#: checksum of the snippet's single entry (whitespace-insensitive, so
#: this literal need not match the fixture's indentation)
_ENTRY_CHECKSUM = migration_checksum(
    '("runs table", ("CREATE TABLE runs (id INTEGER)",))'
)


def lint_sqlite(tmp_path, body, lock):
    return lint_file(
        tmp_path,
        "pkg/experiments/store/sqlite.py",
        textwrap.dedent(_MIGRATIONS_SNIPPET) + textwrap.dedent(body),
        rules=(SqlHygieneRule(migrations_lock=lock),),
    )


class TestSqlHygieneRule:
    def test_fstring_sql_fires(self, tmp_path):
        report = lint_sqlite(tmp_path, """
            def find(conn, name):
                \"\"\"Query.\"\"\"
                return conn.execute(f"SELECT * FROM runs WHERE name = '{name}'")
        """, lock=(_ENTRY_CHECKSUM,))
        assert rule_ids(report) == ["Q1"]

    def test_concatenated_sql_fires(self, tmp_path):
        report = lint_sqlite(tmp_path, """
            def find(conn, where):
                \"\"\"Query.\"\"\"
                return conn.execute("SELECT * FROM runs " + where)
        """, lock=(_ENTRY_CHECKSUM,))
        assert rule_ids(report) == ["Q1"]

    def test_parameterized_sql_is_clean(self, tmp_path):
        report = lint_sqlite(tmp_path, """
            def find(conn, name):
                \"\"\"Query.\"\"\"
                return conn.execute(
                    "SELECT * FROM runs WHERE name = ?", (name,)
                )
        """, lock=(_ENTRY_CHECKSUM,))
        assert report.clean

    def test_edited_released_migration_fires(self, tmp_path):
        report = lint_sqlite(
            tmp_path, "", lock=("0" * 16,)
        )
        assert rule_ids(report) == ["Q1"]
        assert "edited or reordered" in report.findings[0].message

    def test_unpinned_new_migration_fires_with_checksum_hint(
        self, tmp_path
    ):
        report = lint_sqlite(tmp_path, "", lock=())
        assert rule_ids(report) == ["Q1"]
        assert "not pinned" in report.findings[0].message
        assert _ENTRY_CHECKSUM in report.findings[0].hint

    def test_removed_released_migration_fires(self, tmp_path):
        report = lint_sqlite(
            tmp_path, "", lock=(_ENTRY_CHECKSUM, "f" * 16)
        )
        assert rule_ids(report) == ["Q1"]
        assert "removed" in report.findings[0].message

    def test_rule_is_scoped_to_the_sqlite_module(self, tmp_path):
        report = lint_file(tmp_path, "pkg/experiments/store/fs.py", """\
            def find(conn, name):
                \"\"\"Not the sqlite backend.\"\"\"
                return conn.execute(f"SELECT {name}")
        """, rules=(SqlHygieneRule(migrations_lock=()),))
        assert report.clean

    def test_checksum_ignores_reformatting_only(self):
        a = migration_checksum('("t", ("CREATE TABLE x (y)",))')
        b = migration_checksum('( "t",\n    ("CREATE TABLE x (y)",) )')
        c = migration_checksum('("t", ("CREATE TABLE x (z)",))')
        assert a == b
        assert a != c


# -- I1: unused imports -----------------------------------------------


class TestUnusedImportRule:
    def test_unused_names_fire_once_each(self, tmp_path):
        report = lint_file(tmp_path, "tests/test_x.py", """\
            import os.path
            import pytest
            from hypothesis import given, settings
            from hypothesis import strategies as st

            @given(st.integers())
            def test_it(n):
                assert os.sep
        """, rules=(UnusedImportRule(),))
        assert rule_ids(report) == ["I1", "I1"]
        messages = [f.message for f in report.findings]
        assert "'pytest' is imported but never used" in messages[0]
        assert "'settings'" in messages[1]

    def test_reads_all_and_annotations_count_as_uses(self, tmp_path):
        report = lint_file(tmp_path, "pkg/__init__.py", """\
            from __future__ import annotations

            from pkg.a import Exported
            from pkg.b import Quoted, Plain
            import numpy as np

            __all__ = ["Exported"]

            def f(x: "Quoted") -> Plain:
                return np.asarray(x)
        """, rules=(UnusedImportRule(),))
        assert report.findings == []

    def test_alias_is_named_and_pragma_suppresses(self, tmp_path):
        report = lint_file(tmp_path, "pkg/plugin.py", """\
            import numpy as np
            import pkg.register  # repro: allow[I1] -- import registers plugins
        """, rules=(UnusedImportRule(),))
        assert rule_ids(report) == ["I1"]
        assert "'numpy as np'" in report.findings[0].message
        assert len(report.suppressed) == 1

    def test_rule_filter_lints_tests_for_unused_imports_only(
        self, capsys
    ):
        # the CI lint job's second pass: only I1 runs over these trees,
        # since the other rules guard src/ conventions that tests break
        # on purpose (D1: tests seed their own generators)
        trees = ("tests", "benchmarks", "examples")
        paths = [str(REPO_ROOT / tree) for tree in trees]
        assert main(["lint", "--rule", "I1", *paths]) == 0


# -- suppression pragma hygiene (LNT) ---------------------------------


class TestPragmaHygiene:
    def test_pragma_without_justification_is_a_finding(self, tmp_path):
        report = lint_file(tmp_path, "pkg/sched.py", """\
            import numpy as np

            rng = np.random.default_rng(0)  # repro: allow[D1]
        """)
        # the D1 finding is suppressed, but the naked pragma itself
        # becomes an LNT finding: suppression without a why is banned
        assert rule_ids(report) == [META_RULE_ID]
        assert "justification" in report.findings[0].message

    def test_pragma_with_unknown_rule_id_is_a_finding(self, tmp_path):
        report = lint_file(tmp_path, "pkg/sched.py", """\
            x = 1  # repro: allow[ZZ] -- misremembered rule id
        """)
        assert rule_ids(report) == [META_RULE_ID]
        assert "ZZ" in report.findings[0].message

    def test_pragma_for_other_rule_does_not_suppress(self, tmp_path):
        report = lint_file(tmp_path, "pkg/sched.py", """\
            import numpy as np

            rng = np.random.default_rng(0)  # repro: allow[A1] -- wrong rule entirely
        """)
        assert rule_ids(report) == ["D1"]

    def test_multi_id_pragma_covers_both(self, tmp_path):
        report = lint_file(
            tmp_path, "pkg/experiments/store/scan.py", """\
            import os
            import time

            # repro: allow[D2,D3] -- debug-only probe, output never serialized
            probe = (time.time(), os.listdir("."))
        """)
        assert report.clean
        assert sorted(f.rule_id for f in report.suppressed) == ["D2", "D3"]

    def test_pragma_text_inside_a_docstring_is_not_a_pragma(
        self, tmp_path
    ):
        report = lint_file(tmp_path, "pkg/sched.py", '''\
            """Docs may quote '# repro: allow[D1]' without registering it."""
            import numpy as np

            rng = np.random.default_rng(0)
        ''')
        # the D1 finding survives (nothing suppressed it) and the
        # quoted pragma raises no LNT hygiene finding
        assert rule_ids(report) == ["D1"]
        assert report.suppressed == []


# -- engine behaviour -------------------------------------------------


class TestEngine:
    def test_unparseable_file_is_a_finding_not_a_crash(self, tmp_path):
        report = lint_file(tmp_path, "pkg/broken.py", "def oops(:\n")
        assert rule_ids(report) == [META_RULE_ID]
        assert "cannot lint" in report.findings[0].message

    def test_missing_path_raises_with_the_offender(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="nope"):
            lint_paths([tmp_path / "nope"], default_rules())

    def test_rule_ids_filter_restricts_the_pass(self, tmp_path):
        path = tmp_path / "pkg/experiments/store/mod.py"
        path.parent.mkdir(parents=True)
        path.write_text(
            "import time\nimport numpy as np\n"
            "t = time.time()\nr = np.random.default_rng(0)\n"
        )
        both = lint_paths([path], default_rules())
        only_d2 = lint_paths([path], default_rules(), rule_ids=["D2"])
        assert sorted(rule_ids(both)) == ["D1", "D2"]
        assert rule_ids(only_d2) == ["D2"]

    def test_findings_are_sorted_and_locations_point_home(self, tmp_path):
        report = lint_file(tmp_path, "pkg/sched.py", """\
            import numpy as np

            a = np.random.default_rng(1)
            b = np.random.default_rng(2)
        """)
        assert [f.line for f in report.findings] == [3, 4]
        assert all(f.col > 0 for f in report.findings)
        assert all(f.path.endswith("pkg/sched.py") for f in report.findings)


# -- the CLI ----------------------------------------------------------


class TestLintCli:
    def seed_violation(self, tmp_path):
        path = tmp_path / "pkg/dirty.py"
        path.parent.mkdir(parents=True)
        path.write_text(
            "import numpy as np\nrng = np.random.default_rng(0)\n"
        )
        return path

    def test_findings_exit_1(self, capsys, tmp_path):
        path = self.seed_violation(tmp_path)
        assert main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        assert "D1" in out and "1 finding(s)" in out

    def test_clean_exit_0(self, capsys, tmp_path):
        path = tmp_path / "clean.py"
        path.write_text("x = 1\n")
        assert main(["lint", str(path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_missing_path_exit_2_names_the_argument(
        self, capsys, tmp_path
    ):
        assert main(["lint", str(tmp_path / "nope")]) == 2
        err = capsys.readouterr().err
        assert "PATHS" in err and "no such file or directory" in err

    def test_unknown_rule_exit_2(self, capsys, tmp_path):
        assert main(["lint", str(tmp_path), "--rule", "ZZ"]) == 2
        assert "unknown rule id" in capsys.readouterr().err

    def test_json_format_round_trips(self, capsys, tmp_path):
        path = self.seed_violation(tmp_path)
        assert main(["lint", str(path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is False
        assert payload["findings"][0]["rule_id"] == "D1"

    def test_list_rules_names_the_catalogue(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("D1", "D2", "D3", "A1", "R1", "Q1", "I1"):
            assert rule_id in out

    def test_rule_filter_via_cli(self, capsys, tmp_path):
        path = self.seed_violation(tmp_path)
        assert main(["lint", str(path), "--rule", "A1"]) == 0


# -- the repo itself --------------------------------------------------


class TestRepoIsClean:
    def test_lint_src_exits_0_on_the_repo(self, capsys):
        # the acceptance gate: every real violation in src/ is fixed
        # or carries a justified suppression (this is exactly what the
        # CI lint job runs)
        assert main(["lint", str(REPO_ROOT / "src")]) == 0
        assert "clean" in capsys.readouterr().out

    def test_the_ci_gate_fails_on_a_seeded_violation(self, tmp_path):
        # proof the gate can fail: the same invocation over a tree
        # seeded with one violation exits 1 (per-rule fixtures above
        # prove each rule's trigger; this proves the job wiring)
        dirty = tmp_path / "seeded/experiments/store/record.py"
        dirty.parent.mkdir(parents=True)
        dirty.write_text("import time\nstamp = time.time()\n")
        assert main(["lint", str(tmp_path / "seeded")]) == 1

    def test_migrations_lock_matches_the_shipped_backend(self):
        # the locks file pins exactly the migrations sqlite.py ships
        report = lint_paths(
            [REPO_ROOT / "src/repro/experiments/store/sqlite.py"],
            (SqlHygieneRule(),),
        )
        assert [f for f in report.findings if "migration" in f.message] == []
        assert len(MIGRATIONS_LOCK) >= 2
