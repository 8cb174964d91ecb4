"""Normalized-AST code fingerprints and the derived cache salt.

The campaign cell cache must invalidate whenever the *semantics* of the
code that produces a cell change — and must NOT invalidate for cosmetic
edits (comments, docstrings, blank lines, reformatting that parses to the
same tree).  Hashing file bytes gets the first half right and the second
half wrong; a hand-bumped version constant gets both halves wrong the day
someone forgets to bump it.

:func:`fingerprint_source` hashes a module's *normalized* AST: the source
is parsed, docstrings are stripped, and the tree is serialized without
line/column attributes, so only executable structure feeds the digest.
:func:`derived_cache_salt` then folds together the fingerprints of every
project module transitively imported by the campaign worker's module
(an over-approximation of the code reachable from
``repro.experiments.campaign._run_cell`` — see
:func:`~repro.devtools.symbols.import_closure`), yielding a salt that
tracks the code automatically.  The walk reads and parses each module it
reaches exactly once — that one tree gives both the module's imports and
its fingerprint — and never reads a file the closure does not reach.  A
reachable module that does not parse is an :class:`AnalysisError`, never
a silent hole in the salt.

The analyzer itself (``repro.devtools``) is excluded from the closure: it
computes the salt but never simulates anything, and folding it in would
invalidate every cache whenever a lint rule changes.  The campaign
telemetry modules (spans, progress, structured logging, the bench schema)
are excluded for the same reason: they observe runs without influencing
results — the telemetry-off run is byte-identical by invariant — so
editing them must not throw away every cached cell.  Changes to the
fingerprint *algorithm* are covered by :data:`FINGERPRINT_VERSION`, which
is folded into every digest.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.devtools.symbols import (
    _imported_module_names,
    import_closure,
    iter_statements,
    module_name_for_path,
)
from repro.errors import AnalysisError

#: Version of the normalization + combination scheme.  Bump when the
#: algorithm changes so old salts can never collide with new ones.
FINGERPRINT_VERSION = 1

#: The campaign worker whose module roots the reachable-code closure.
SALT_ENTRY_FUNCTION = "repro.experiments.campaign._run_cell"

#: Module subtrees excluded from the salt closure (see module docstring).
#: Telemetry modules are excluded for the same reason devtools are: they
#: never influence deterministic results (the spans/progress-off run is
#: byte-identical), so editing them must not invalidate cached cells.
SALT_EXCLUDE_PREFIXES: Tuple[str, ...] = (
    "repro.devtools",
    # Dispatch plumbing, not physics: the warm pool (leases, pickled
    # results on the pipe) moves results between processes but never
    # computes them — serial, warm-fork and warm-spawn byte-identity is
    # what the campaign tests enforce — so editing the pool must not
    # invalidate every cached cell.
    "repro.experiments.pool",
    "repro.obs.bench",
    "repro.obs.progress",
    "repro.obs.spans",
    "repro.obs.structlog",
)

#: Human-readable prefix of every derived salt.
SALT_PREFIX = "repro-cell-v2"


def _strip_docstrings(tree: ast.Module) -> None:
    """Remove docstring expressions in place (module, class, function)."""
    for node in iter_statements(tree):
        if not isinstance(node, (ast.Module, ast.FunctionDef,
                                 ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            node.body = body[1:] if len(body) > 1 else [ast.Pass()]


def _tree_dump(tree: ast.Module) -> str:
    """Strip ``tree``'s docstrings (in place) and serialize it."""
    _strip_docstrings(tree)
    return ast.dump(tree, annotate_fields=False, include_attributes=False)


def _digest_dump(dump: str) -> str:
    digest = hashlib.sha256()
    digest.update(f"fingerprint-v{FINGERPRINT_VERSION}\0".encode("utf-8"))
    digest.update(dump.encode("utf-8"))
    return digest.hexdigest()


def normalized_dump(source: str, path: str = "<string>") -> str:
    """Canonical serialization of a module's executable structure.

    Comments never reach the AST; docstrings are stripped; line numbers
    and column offsets are not serialized.  Two sources that differ only
    cosmetically produce identical dumps.

    Raises
    ------
    SyntaxError
        If ``source`` does not parse.
    """
    return _tree_dump(ast.parse(source, filename=path))


def fingerprint_source(source: str, path: str = "<string>") -> str:
    """SHA-256 hex digest of a module's normalized AST."""
    return _digest_dump(normalized_dump(source, path=path))


def fingerprint_file(path: Union[str, Path]) -> str:
    """Fingerprint of one source file (see :func:`fingerprint_source`)."""
    path = Path(path)
    return fingerprint_source(path.read_text(encoding="utf-8"),
                              path=path.as_posix())


@dataclass
class SaltReport:
    """The derived salt plus everything that went into it."""

    salt: str
    entry: str
    #: module name -> normalized-AST fingerprint, for every module folded
    #: into the salt (sorted iteration == combination order).
    fingerprints: Dict[str, str]
    #: total modules in the package's file layout (for "N of M" reporting).
    modules_in_project: int


class _PackageSources:
    """The modules of one package directory, each parsed at most once.

    Module names map to files by layout alone, as
    :func:`~repro.devtools.symbols.module_name_for_path` names them:
    ``a.b.c`` is ``a/b/c.py`` or ``a/b/c/__init__.py`` under the directory
    holding the top package, with ``a`` and ``a.b`` packages.  Only files
    inside ``directory`` count.
    """

    def __init__(self, directory: Path) -> None:
        self.directory = directory.resolve()
        root = self.directory
        while (root / "__init__.py").is_file() and root.parent != root:
            root = root.parent
        self._root = root
        #: module name -> normalized-AST fingerprint, for each walked module.
        self.fingerprints: Dict[str, str] = {}
        self._parsed: Dict[str, Tuple[Path, ast.Module]] = {}

    def path_of(self, name: str) -> Optional[Path]:
        """Source file of module ``name``, or ``None`` if there is none."""
        *packages, last = name.split(".")
        current = self._root
        for part in packages:
            current = current / part
            if not (current / "__init__.py").is_file():
                return None
        path = current / last / "__init__.py"
        if not path.is_file():
            # A plain module needs an enclosing package.
            if not packages:
                return None
            path = current / f"{last}.py"
            if not path.is_file():
                return None
        if self.directory not in path.parents:
            return None
        return path

    def parse(self, name: str) -> Optional[Tuple[Path, ast.Module]]:
        """File and tree of module ``name`` (memoized); ``None`` if no module.

        Raises
        ------
        AnalysisError
            If the module's file cannot be read or does not parse: a
            reachable module must never drop out of the salt unnoticed.
        """
        if name not in self._parsed:
            path = self.path_of(name)
            if path is None:
                return None
            try:
                tree = ast.parse(path.read_text(encoding="utf-8"),
                                 filename=path.as_posix())
            except (OSError, SyntaxError, ValueError) as exc:
                raise AnalysisError(
                    f"cannot fingerprint {path.as_posix()}: {exc}") from exc
            self._parsed[name] = (path, tree)
        return self._parsed[name]

    def imports_of(self, name: str) -> Optional[Set[str]]:
        """Modules ``name`` imports; fingerprints it from the same parse.

        The closure walk asks once per module, so this is the tree's last
        use: it is stripped for the fingerprint and then dropped.
        """
        parsed = self.parse(name)
        if parsed is None:
            return None
        path, tree = self._parsed.pop(name)
        imported = _imported_module_names(
            tree, name, is_package=path.name == "__init__.py")
        self.fingerprints[name] = _digest_dump(_tree_dump(tree))
        return imported

    def module_count(self) -> int:
        """Distinct module names in the directory's file layout."""
        names = {module_name_for_path(path)
                 for path in self.directory.rglob("*.py")}
        names.discard(None)
        return len(names)


def _entry_module(sources: _PackageSources, entry: str) -> str:
    """The module whose import closure roots the salt.

    ``entry`` may be a function qualname — ``module.func`` or
    ``module.Class.method``; preferred, since it asserts the worker still
    exists — or a bare module name.
    """
    parts = entry.split(".")
    for cut in range(len(parts), 0, -1):
        module = ".".join(parts[:cut])
        parsed = sources.parse(module)
        if parsed is None:
            continue
        if cut == len(parts) or _defines_function(parsed[1], parts[cut:]):
            return module
        break
    raise AnalysisError(
        f"salt entry point {entry!r} not found in the project; "
        f"was the campaign worker moved or renamed?")


def _defines_function(tree: ast.Module, names: Sequence[str]) -> bool:
    """Whether ``tree`` defines ``func`` or ``Class.method`` as ``names``."""
    *classes, function = names
    body = tree.body
    for name in classes:
        node = next((stmt for stmt in body if isinstance(stmt, ast.ClassDef)
                     and stmt.name == name), None)
        if node is None:
            return False
        body = node.body
    return any(isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
               and stmt.name == function for stmt in body)


def default_package_dir() -> Path:
    """Directory of the installed ``repro`` package sources."""
    import repro
    package_file = getattr(repro, "__file__", None)
    if package_file is None:
        raise AnalysisError("repro package has no __file__; cannot locate "
                            "sources to fingerprint")
    return Path(package_file).resolve().parent


def derived_cache_salt(package_dir: Union[str, Path, None] = None,
                       entry: str = SALT_ENTRY_FUNCTION,
                       exclude_prefixes: Sequence[str]
                       = SALT_EXCLUDE_PREFIXES) -> str:
    """The code-derived campaign cell-cache salt.

    Walks the import closure of the entry point's module through the
    package under ``package_dir`` (default: the installed ``repro``
    sources) and combines the normalized-AST fingerprints of every module
    in it.  Deterministic across processes and checkouts of the same
    code; insensitive to comment/docstring-only edits; sensitive to any
    semantic edit of reachable simulation code.
    """
    return derived_salt_report(package_dir, entry=entry,
                               exclude_prefixes=exclude_prefixes).salt


def derived_salt_report(package_dir: Union[str, Path, None] = None,
                        entry: str = SALT_ENTRY_FUNCTION,
                        exclude_prefixes: Sequence[str]
                        = SALT_EXCLUDE_PREFIXES) -> SaltReport:
    """Like :func:`derived_cache_salt` but returns the full report.

    Each module the closure reaches is read and parsed exactly once: the
    one tree yields both its imports and its fingerprint.  Files the
    closure does not reach are never read.

    Raises
    ------
    AnalysisError
        If ``package_dir`` does not exist, the entry point is not found,
        or a reachable module cannot be read or parsed.
    """
    directory = Path(package_dir) if package_dir is not None \
        else default_package_dir()
    if not directory.is_dir():
        raise AnalysisError(f"package directory {directory} does not exist")
    sources = _PackageSources(directory)
    closure = import_closure(_entry_module(sources, entry),
                             sources.imports_of, exclude_prefixes)
    digest = hashlib.sha256()
    digest.update(f"salt-v{FINGERPRINT_VERSION}\0".encode("utf-8"))
    fingerprints: Dict[str, str] = {}
    for name in closure:  # sorted == combination order
        fingerprints[name] = sources.fingerprints[name]
        digest.update(name.encode("utf-8"))
        digest.update(b"\0")
        digest.update(fingerprints[name].encode("utf-8"))
        digest.update(b"\0")
    salt = f"{SALT_PREFIX}-{digest.hexdigest()[:16]}"
    return SaltReport(salt=salt, entry=entry, fingerprints=fingerprints,
                      modules_in_project=sources.module_count())


def changed_modules(before: SaltReport, after: SaltReport) -> List[str]:
    """Module names whose fingerprints differ between two reports."""
    names = set(before.fingerprints) | set(after.fingerprints)
    return sorted(name for name in names
                  if before.fingerprints.get(name)
                  != after.fingerprints.get(name))
