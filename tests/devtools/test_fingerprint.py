"""Normalized-AST fingerprints and the derived cache salt.

The acceptance property for the whole analyzer lives here: on a copy of
the real tree, a comment/docstring-only edit to kernel code leaves the
derived salt unchanged, while a semantic edit changes it.
"""

import ast
import functools
import shutil
from pathlib import Path

import pytest

import repro
import repro.devtools.fingerprint as fp
from repro.devtools.fingerprint import (
    SALT_ENTRY_FUNCTION,
    SALT_EXCLUDE_PREFIXES,
    SALT_PREFIX,
    changed_modules,
    derived_cache_salt,
    derived_salt_report,
    fingerprint_file,
    fingerprint_source,
    normalized_dump,
)
from repro.devtools.symbols import Project
from repro.errors import AnalysisError
from repro.experiments import cache as cache_module

from tests.devtools.test_symbols import build_tree

PACKAGE_ROOT = Path(repro.__file__).parent


class TestFingerprintSource:
    def test_stable(self):
        src = "def f(x):\n    return x + 1\n"
        assert fingerprint_source(src) == fingerprint_source(src)

    def test_comment_changes_ignored(self):
        base = "def f(x):\n    return x + 1\n"
        commented = "# a comment\ndef f(x):\n    # inline\n    return x + 1\n"
        assert fingerprint_source(base) == fingerprint_source(commented)

    def test_docstring_changes_ignored(self):
        with_doc = 'def f(x):\n    """Docs."""\n    return x + 1\n'
        other_doc = 'def f(x):\n    """Other."""\n    return x + 1\n'
        without = "def f(x):\n    return x + 1\n"
        assert fingerprint_source(with_doc) == fingerprint_source(other_doc)
        assert fingerprint_source(with_doc) == fingerprint_source(without)
        nested = ('def f():\n    if x:\n        class C:\n'
                  '            """Docs."""\n            y = 1\n')
        nested_bare = "def f():\n    if x:\n        class C:\n            y = 1\n"
        assert fingerprint_source(nested) == fingerprint_source(nested_bare)

    def test_docstring_only_body_equals_pass(self):
        doc_only = 'def f():\n    """Docs."""\n'
        with_pass = "def f():\n    pass\n"
        assert fingerprint_source(doc_only) == fingerprint_source(with_pass)

    def test_reformatting_ignored(self):
        one_line = "def f(a, b):\n    return g(a, b)\n"
        wrapped = "def f(a,\n      b):\n    return g(\n        a, b)\n"
        assert fingerprint_source(one_line) == fingerprint_source(wrapped)

    def test_semantic_change_detected(self):
        assert fingerprint_source("def f(x):\n    return x + 1\n") != \
            fingerprint_source("def f(x):\n    return x + 2\n")

    def test_syntax_error_raises(self):
        with pytest.raises(SyntaxError):
            normalized_dump("def broken(:\n")


@pytest.fixture
def salt_tree(tmp_path):
    build_tree(tmp_path, {
        "pkg/__init__.py": "",
        "pkg/worker.py": ("from pkg.kernel import step\n"
                          "def run_cell():\n"
                          "    return step()\n"),
        "pkg/kernel.py": "def step():\n    return 1\n",
        "pkg/unrelated.py": "def elsewhere():\n    return 2\n",
        "pkg/lint.py": "def rule():\n    return 3\n",
    })
    return tmp_path / "pkg"


class TestDerivedSalt:
    def test_prefix_and_stability(self, salt_tree):
        first = derived_cache_salt(salt_tree, entry="pkg.worker.run_cell")
        second = derived_cache_salt(salt_tree, entry="pkg.worker.run_cell")
        assert first.startswith(SALT_PREFIX + "-")
        assert first == second

    def test_entry_accepts_module_name(self, salt_tree):
        assert derived_cache_salt(salt_tree, entry="pkg.worker") == \
            derived_cache_salt(salt_tree, entry="pkg.worker.run_cell")

    def test_missing_entry_raises(self, salt_tree):
        with pytest.raises(AnalysisError, match="moved or renamed"):
            derived_cache_salt(salt_tree, entry="pkg.worker.gone")

    def test_missing_package_dir_raises(self, tmp_path):
        with pytest.raises(AnalysisError):
            derived_cache_salt(tmp_path / "nope")

    def test_unreachable_module_excluded(self, salt_tree):
        report = derived_salt_report(salt_tree, entry="pkg.worker.run_cell")
        assert "pkg.kernel" in report.fingerprints
        assert "pkg.unrelated" not in report.fingerprints

    def test_exclude_prefixes(self, salt_tree):
        (salt_tree / "worker.py").write_text(
            "from pkg.kernel import step\n"
            "from pkg import lint\n"
            "def run_cell():\n"
            "    return step()\n")
        with_lint = derived_salt_report(salt_tree,
                                        entry="pkg.worker.run_cell")
        without = derived_salt_report(salt_tree, entry="pkg.worker.run_cell",
                                      exclude_prefixes=("pkg.lint",))
        assert "pkg.lint" in with_lint.fingerprints
        assert "pkg.lint" not in without.fingerprints
        assert with_lint.salt != without.salt

    def test_semantic_edit_to_reachable_module_changes_salt(self, salt_tree):
        base = derived_cache_salt(salt_tree, entry="pkg.worker.run_cell")
        (salt_tree / "kernel.py").write_text("def step():\n    return 99\n")
        assert derived_cache_salt(salt_tree,
                                  entry="pkg.worker.run_cell") != base

    def test_edit_to_unreachable_module_keeps_salt(self, salt_tree):
        base = derived_cache_salt(salt_tree, entry="pkg.worker.run_cell")
        (salt_tree / "unrelated.py").write_text(
            "def elsewhere():\n    return 99\n")
        assert derived_cache_salt(salt_tree,
                                  entry="pkg.worker.run_cell") == base

    def test_changed_modules_names_the_culprit(self, salt_tree):
        before = derived_salt_report(salt_tree, entry="pkg.worker.run_cell")
        (salt_tree / "kernel.py").write_text("def step():\n    return 99\n")
        after = derived_salt_report(salt_tree, entry="pkg.worker.run_cell")
        assert changed_modules(before, after) == ["pkg.kernel"]

    def test_entry_accepts_method_qualname(self, salt_tree):
        (salt_tree / "worker.py").write_text(
            "from pkg.kernel import step\n"
            "class Cell:\n"
            "    def run(self):\n"
            "        return step()\n")
        assert derived_cache_salt(salt_tree, entry="pkg.worker.Cell.run") \
            == derived_cache_salt(salt_tree, entry="pkg.worker")
        with pytest.raises(AnalysisError, match="moved or renamed"):
            derived_cache_salt(salt_tree, entry="pkg.worker.Cell.gone")
        with pytest.raises(AnalysisError, match="moved or renamed"):
            derived_cache_salt(salt_tree, entry="pkg.worker.Cell")

    def test_unparseable_reachable_module_raises(self, salt_tree):
        (salt_tree / "kernel.py").write_text("def step(:\n")
        with pytest.raises(AnalysisError, match="kernel.py"):
            derived_cache_salt(salt_tree, entry="pkg.worker.run_cell")

    def test_unparseable_reachable_module_falls_back(self, salt_tree,
                                                      monkeypatch, caplog):
        (salt_tree / "kernel.py").write_text("def step(:\n")
        monkeypatch.setattr(fp, "derived_cache_salt", functools.partial(
            derived_cache_salt, salt_tree, entry="pkg.worker.run_cell"))
        monkeypatch.setattr(cache_module, "_salt_cache", None)
        with caplog.at_level("WARNING"):
            salt = cache_module.cache_salt()
        assert salt == cache_module._FALLBACK_SALT
        assert "cache-salt-underivable" in caplog.text
        assert "kernel.py" in caplog.text
        monkeypatch.setattr(cache_module, "_salt_cache", None)

    def test_unparseable_unreachable_module_keeps_salt(self, salt_tree):
        base = derived_cache_salt(salt_tree, entry="pkg.worker.run_cell")
        (salt_tree / "unrelated.py").write_text("def elsewhere(:\n")
        assert derived_cache_salt(salt_tree,
                                  entry="pkg.worker.run_cell") == base

    def test_counts_modules_from_layout(self, salt_tree):
        (salt_tree / "unrelated.py").write_text("def elsewhere(:\n")
        report = derived_salt_report(salt_tree, entry="pkg.worker.run_cell")
        assert report.modules_in_project == 5


def oracle_fingerprints(root, entry_module):
    """Module -> fingerprint the slow way: a full Project, then each file."""
    project = Project.from_package(root)
    closure = project.import_closure(entry_module, SALT_EXCLUDE_PREFIXES)
    return {name: fingerprint_file(project.modules[name].path)
            for name in closure}


@pytest.fixture
def closure_tree(tmp_path):
    """Every import form the closure walk must follow, plus decoys."""
    build_tree(tmp_path, {
        "pkg/__init__.py": '"""The package."""\n',
        "pkg/worker.py": ("from typing import TYPE_CHECKING\n"
                          "from pkg import kernel\n"
                          "from . import sub\n"
                          "if TYPE_CHECKING:\n"
                          "    from pkg.typed import Hint\n"
                          "def run_cell():\n"
                          '    """Docs."""\n'
                          "    from pkg.local import helper\n"
                          "    try:\n"
                          "        import pkg.tried\n"
                          "    except ImportError:\n"
                          "        import pkg.fallback\n"
                          "    return kernel.step() + helper()\n"),
        "pkg/kernel.py": ("from pkg.deep.er.leaf import VALUE\n"
                          "def step():\n"
                          "    return VALUE\n"),
        "pkg/typed.py": "class Hint:\n    pass\n",
        "pkg/local.py": "def helper():\n    return 2\n",
        "pkg/tried.py": "",
        "pkg/fallback.py": "",
        "pkg/sub/__init__.py": "from .. import shared\n",
        "pkg/shared.py": "SHARED = 1\n",
        "pkg/deep/__init__.py": "DEEP = 1\n",
        "pkg/deep/er/__init__.py": "",
        "pkg/deep/er/leaf.py": "VALUE = 3\n",
        "pkg/unrelated.py": "import pkg.unrelated_too\n",
        "pkg/unrelated_too.py": "",
    })
    return tmp_path / "pkg"


class TestClosureOracle:
    """The one-parse walk agrees with a full Project plus per-file fingerprints."""

    def test_fixture_module_set(self, closure_tree):
        report = derived_salt_report(closure_tree, entry="pkg.worker.run_cell")
        assert sorted(report.fingerprints) == [
            "pkg", "pkg.deep", "pkg.deep.er", "pkg.deep.er.leaf",
            "pkg.fallback", "pkg.kernel", "pkg.local", "pkg.shared",
            "pkg.sub", "pkg.tried", "pkg.typed", "pkg.worker"]

    def test_fixture_matches_oracle(self, closure_tree):
        report = derived_salt_report(closure_tree, entry="pkg.worker.run_cell")
        assert report.fingerprints == oracle_fingerprints(closure_tree,
                                                          "pkg.worker")

    def test_shipped_tree_matches_oracle(self):
        report = derived_salt_report(PACKAGE_ROOT)
        entry_module = SALT_ENTRY_FUNCTION.rpartition(".")[0]
        assert report.fingerprints == oracle_fingerprints(PACKAGE_ROOT,
                                                          entry_module)

    def test_each_reachable_module_parsed_once(self, closure_tree,
                                               monkeypatch):
        parsed = []
        real_parse = ast.parse

        def counting_parse(source, filename="<unknown>", *args, **kwargs):
            parsed.append(filename)
            return real_parse(source, filename, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        report = derived_salt_report(closure_tree, entry="pkg.worker.run_cell")
        assert len(parsed) == len(set(parsed)) == len(report.fingerprints)
        assert not any("unrelated" in name for name in parsed)


class TestRealTree:
    """The acceptance criterion, on a copy of the shipped sources."""

    @pytest.fixture
    def tree_copy(self, tmp_path):
        copy = tmp_path / "repro"
        shutil.copytree(PACKAGE_ROOT, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        return copy

    def test_entry_function_exists_in_shipped_tree(self):
        report = derived_salt_report(PACKAGE_ROOT)
        assert report.entry == SALT_ENTRY_FUNCTION
        assert "repro.sim.kernel" in report.fingerprints
        assert "repro.experiments.campaign" in report.fingerprints
        # The analyzer never fingerprints itself.
        assert not any(name.startswith("repro.devtools")
                       for name in report.fingerprints)

    def test_comment_only_kernel_edit_keeps_salt(self, tree_copy):
        base = derived_cache_salt(tree_copy)
        kernel = tree_copy / "sim" / "kernel.py"
        kernel.write_text(kernel.read_text()
                          + "\n# a trailing comment, purely cosmetic\n")
        assert derived_cache_salt(tree_copy) == base

    def test_docstring_only_kernel_edit_keeps_salt(self, tree_copy):
        base = derived_cache_salt(tree_copy)
        kernel = tree_copy / "sim" / "kernel.py"
        source = kernel.read_text()
        assert source.startswith('"""')
        kernel.write_text(source.replace(
            source[:source.index('"""', 3) + 3],
            '"""A completely rewritten module docstring."""', 1))
        assert derived_cache_salt(tree_copy) == base

    def test_semantic_kernel_edit_changes_salt(self, tree_copy):
        base = derived_cache_salt(tree_copy)
        kernel = tree_copy / "sim" / "kernel.py"
        kernel.write_text(kernel.read_text() + "\nKERNEL_TWEAK = 1\n")
        changed = derived_cache_salt(tree_copy)
        assert changed != base
        assert changed.startswith(SALT_PREFIX + "-")

    def test_lint_rule_edit_keeps_salt(self, tree_copy):
        base = derived_cache_salt(tree_copy)
        rule = tree_copy / "devtools" / "rules_determinism.py"
        rule.write_text(rule.read_text() + "\nRULE_TWEAK = 1\n")
        assert derived_cache_salt(tree_copy) == base

    def test_pool_plumbing_excluded_from_closure(self):
        # The warm-pool dispatcher moves results between processes but
        # computes none of them, so it must not participate in the salt.
        report = derived_salt_report(PACKAGE_ROOT)
        assert not any(name.startswith("repro.experiments.pool")
                       for name in report.fingerprints)

    def test_comment_only_dispatcher_edit_keeps_salt(self, tree_copy):
        base = derived_cache_salt(tree_copy)
        dispatcher = tree_copy / "experiments" / "pool.py"
        dispatcher.write_text(dispatcher.read_text()
                              + "\n# cosmetic dispatcher note\n")
        assert derived_cache_salt(tree_copy) == base

    def test_semantic_dispatcher_edit_keeps_salt(self, tree_copy):
        # Stronger than comment-immunity: even real code changes to the
        # lease/transport plumbing leave cached physics valid, because
        # the transports are proven byte-exact separately.
        base = derived_cache_salt(tree_copy)
        dispatcher = tree_copy / "experiments" / "pool.py"
        dispatcher.write_text(dispatcher.read_text()
                              + "\nLEASES_PER_WORKER = 8\n")
        assert derived_cache_salt(tree_copy) == base
