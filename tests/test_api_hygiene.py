"""API-hygiene meta-tests: documentation, exports, and deprecations.

A library deliverable is its public surface; these tests keep it honest:
every public item is documented, every ``__all__`` name resolves, the
subpackages export what their ``__init__`` promises, every declared
fault site is wired into the code, and retired compatibility shims stay
retired.
"""

import ast
import importlib
import inspect
import pathlib
import re
import warnings

import pytest

PACKAGES = [
    "repro",
    "repro.stats",
    "repro.feedback",
    "repro.trust",
    "repro.core",
    "repro.adversary",
    "repro.simulation",
    "repro.p2p",
    "repro.analysis",
    "repro.experiments",
    "repro.obs",
    "repro.resilience",
]


@pytest.mark.parametrize("package_name", PACKAGES)
class TestExports:
    def test_module_has_docstring(self, package_name):
        module = importlib.import_module(package_name)
        assert module.__doc__ and module.__doc__.strip()

    def test_all_names_resolve(self, package_name):
        module = importlib.import_module(package_name)
        assert hasattr(module, "__all__"), f"{package_name} lacks __all__"
        for name in module.__all__:
            assert hasattr(module, name), f"{package_name}.{name} missing"

    def test_no_duplicate_exports(self, package_name):
        module = importlib.import_module(package_name)
        assert len(module.__all__) == len(set(module.__all__))

    def test_public_classes_and_functions_documented(self, package_name):
        module = importlib.import_module(package_name)
        undocumented = []
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not (obj.__doc__ and obj.__doc__.strip()):
                    undocumented.append(name)
        assert not undocumented, f"{package_name}: undocumented {undocumented}"


def _documented_somewhere(cls, method_name: str) -> bool:
    """Is the method documented on the class or any base it implements?

    Overriding a documented interface method (TrustTracker.update,
    ServerBehavior.next_outcome, ...) does not require restating the
    contract — that would be noise, not documentation.
    """
    for base in cls.__mro__:
        candidate = base.__dict__.get(method_name)
        doc = getattr(candidate, "__doc__", None)
        if doc and doc.strip():
            return True
    # typing.Protocol bases are not always in __mro__ views of functions;
    # check declared protocol parents explicitly
    for base in getattr(cls, "__bases__", ()):
        candidate = getattr(base, method_name, None)
        doc = getattr(candidate, "__doc__", None)
        if doc and doc.strip():
            return True
    return False


class TestPublicMethodDocs:
    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_public_methods_documented(self, package_name):
        module = importlib.import_module(package_name)
        undocumented = []
        for name in module.__all__:
            obj = getattr(module, name)
            if not inspect.isclass(obj):
                continue
            for method_name, method in inspect.getmembers(obj, inspect.isfunction):
                if method_name.startswith("_"):
                    continue
                if method.__qualname__.split(".")[0] != obj.__name__:
                    continue  # inherited; documented on the parent
                if not _documented_somewhere(obj, method_name):
                    undocumented.append(f"{name}.{method_name}")
        assert not undocumented, f"{package_name}: undocumented {sorted(set(undocumented))}"


class TestTimingHygiene:
    """Span *durations* must come from ``time.perf_counter()``.

    ``time.time()`` jumps under NTP slews and has coarse resolution on
    some platforms, so it is banned from duration math. The allowlist
    below names the only legitimate wall-clock reads left in the tree —
    each is a *timestamp* (when did this happen), never a delta — and
    their exact count, so an entry cannot outlive the reads it excuses.
    """

    # relative path under src/repro -> exact number of time.time() reads
    WALL_CLOCK_ALLOWLIST = {
        "obs/context.py": 1,  # _ANCHOR_WALL: per-process anchor pairing
        "obs/events.py": 2,  # run_metadata + event record timestamps
    }

    def test_wall_clock_reads_confined_to_timestamp_allowlist(self):
        import pathlib

        src = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
        offenders = {}
        for path in sorted(src.rglob("*.py")):
            count = path.read_text(encoding="utf-8").count("time.time()")
            if count:
                offenders[str(path.relative_to(src))] = count
        unexpected = {
            name: count
            for name, count in offenders.items()
            if count > self.WALL_CLOCK_ALLOWLIST.get(name, 0)
        }
        assert not unexpected, (
            f"new time.time() reads in {unexpected}: use time.perf_counter() "
            "for durations; extend the allowlist only for pure timestamps"
        )
        stale = {
            name: (offenders.get(name, 0), allowed)
            for name, allowed in self.WALL_CLOCK_ALLOWLIST.items()
            if offenders.get(name, 0) < allowed
        }
        assert not stale, (
            f"stale allowlist entries (reads, allowed): {stale}; lower or "
            "drop them so the allowlist matches the tree"
        )


class TestFaultSites:
    """``FAULT_SITES`` and the injection call sites agree.

    A site that nothing consults can be armed but never fires, so a
    chaos test over it passes vacuously; a site used but not declared
    raises only once a plan arms it.
    """

    SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

    @staticmethod
    def _runtime_aliases(tree: ast.Module, in_resilience: bool) -> set:
        """Names the module binds to ``repro.resilience.runtime``."""
        aliases = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if module.endswith("resilience") or (not module and in_resilience):
                aliases.update(
                    alias.asname or alias.name
                    for alias in node.names
                    if alias.name == "runtime"
                )
        return aliases

    def _used_sites(self):
        """``{site: [file:line, ...]}`` of every ``runtime.inject`` /
        ``runtime.check`` call, resolving module-level string constants."""
        used = {}
        for path in sorted(self.SRC.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            rel = path.relative_to(self.SRC)
            aliases = self._runtime_aliases(tree, rel.parts[0] == "resilience")
            constants = {
                target.id: node.value.value
                for node in tree.body
                if isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)
                for target in node.targets
                if isinstance(target, ast.Name)
            }
            for node in ast.walk(tree):
                func = getattr(node, "func", None)
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(func, ast.Attribute)
                    and func.attr in ("inject", "check")
                    and isinstance(func.value, ast.Name)
                    and func.value.id in aliases
                ):
                    continue
                arg = node.args[0]
                if isinstance(arg, ast.Constant):
                    site = arg.value
                else:
                    site = constants.get(getattr(arg, "id", None))
                assert isinstance(site, str), (
                    f"{rel}:{node.lineno}: fault site is not a literal or a "
                    "module-level string constant"
                )
                used.setdefault(site, []).append(f"{rel}:{node.lineno}")
        return used

    def test_every_declared_site_has_a_call_site(self):
        from repro.resilience import FAULT_SITES

        used = self._used_sites()
        dead = [site for site in FAULT_SITES if site not in used]
        assert not dead, f"declared fault sites nothing injects: {dead}"

    def test_every_used_site_is_declared(self):
        from repro.resilience import FAULT_SITES

        undeclared = {
            site: where
            for site, where in self._used_sites().items()
            if site not in FAULT_SITES
        }
        assert not undeclared, f"undeclared fault sites: {undeclared}"


class TestDeprecations:
    """The retired compatibility shims stay retired.

    Positional ``TwoPhaseAssessor(...)`` / ``FeedbackLedger(quarantine)``
    construction and the per-format ``read_feedback_csv`` /
    ``read_feedback_jsonl`` readers are gone; the keyword forms and
    :func:`repro.feedback.io.read` are the one way in, and run
    warning-free.
    """

    @staticmethod
    def _deprecations(caught):
        return [w for w in caught if issubclass(w.category, DeprecationWarning)]

    def _csv(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text(
            "time,server,client,rating\n1.0,s1,c1,1\n2.0,s1,c2,0\n",
            encoding="utf-8",
        )
        return str(path)

    @pytest.mark.parametrize("construct", ["assessor", "ledger"])
    def test_positional_construction_raises(self, construct):
        from repro.core.two_phase import TwoPhaseAssessor
        from repro.feedback.ledger import FeedbackLedger
        from repro.resilience import Quarantine
        from repro.trust.average import AverageTrust

        with pytest.raises(TypeError):
            if construct == "assessor":
                TwoPhaseAssessor(None, AverageTrust(), 0.8)
            else:
                FeedbackLedger(Quarantine(name="legacy"))

    def test_ledger_backend_classes_are_gone(self):
        """One ledger class: the store module keeps storage primitives
        only, and the ledger exposes no backend object."""
        from repro.feedback import store
        from repro.feedback.ledger import FeedbackLedger

        for name in ("ColumnarLedgerBackend", "MmapLedgerBackend"):
            assert not hasattr(store, name), name
        assert not hasattr(FeedbackLedger, "backend")

    def test_keyword_paths_do_not_warn(self, tmp_path):
        from repro.feedback import io
        from repro.feedback.ledger import FeedbackLedger
        from repro.resilience import Quarantine

        path = self._csv(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            io.read(path, format="csv")
            io.read(path)  # auto-detection
            FeedbackLedger(quarantine=Quarantine(name="kw"))
            FeedbackLedger(backend="columnar")
        assert not self._deprecations(caught)

    _POSITIONAL_LEDGER = re.compile(
        r"\bFeedbackLedger\s*\(\s*(?!\s*\)|\s*\*|\s*\w+\s*=)"
    )

    def test_no_in_repo_positional_ledger_construction(self):
        src = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
        offenders = []
        for path in sorted(src.rglob("*.py")):
            for i, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1
            ):
                if self._POSITIONAL_LEDGER.search(line):
                    offenders.append(f"{path.relative_to(src)}:{i}: {line.strip()}")
        assert not offenders, (
            f"positional FeedbackLedger(...) construction in repo: {offenders}"
        )
