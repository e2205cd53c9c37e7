"""Contracts on the source of kslab itself, read with ast: runtime
invariants are explicit exceptions and none an AssertionError, seeds and verdicts are each made in one
place, the KS search has one caller in the falsifiers, certify builds no
map, there is one restart driver, the Cholesky factorization runs only in
the certificate of the X half-step, the X half-step form has one eigh, on
the members the certificate refused, a KS window reads its cluster from the
step's own eigh, a cluster draw is made in one function, every module
constant is read and certify has a fixed set of them, and the CLI has one
error boundary."""

import ast
from pathlib import Path

import kslab
from kslab import certify

SOURCES = sorted(Path(kslab.__file__).parent.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"certify.py", "linalg.py", "maps.py"}


def test_no_assert_statements():
    # python -O strips assert statements, so an invariant must raise
    found = [
        f"{p.name}:{node.lineno}"
        for p in SOURCES
        for node in ast.walk(_tree(p))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_assertion_errors_raised():
    # a broken invariant raises RuntimeError, as README and the cli define it
    found = [
        f"{p.name}:{node.lineno}"
        for p in SOURCES
        for node in ast.walk(_tree(p))
        if isinstance(node, ast.Raise)
        and "AssertionError" in (getattr(node.exc, "id", None), getattr(getattr(node.exc, "func", None), "id", None))
    ]
    assert found == []


def test_seed_sequence_only_in_linalg():
    # linalg.rng and linalg._derive_seed derive every seed
    found = [
        f"{p.name}:{node.lineno}"
        for p in SOURCES
        for node in ast.walk(_tree(p))
        if (isinstance(node, ast.Name) and node.id == "SeedSequence")
        or (isinstance(node, ast.Attribute) and node.attr == "SeedSequence")
        or (isinstance(node, ast.alias) and node.name == "SeedSequence")
    ]
    assert found and all(f.startswith("linalg.py:") for f in found)


def _callers(name):
    """The functions, as module.function, whose bodies call ``name``, either
    bare or as an attribute."""
    found = set()
    for p in SOURCES:
        tree = _tree(p)
        owner = {}
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # the inner functions come later in the walk and overwrite
                for node in ast.walk(fn):
                    owner[node] = f"{p.stem}.{fn.name}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and name in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)
            ):
                found.add(owner.get(node, f"{p.stem}.<module>"))
    return found


def test_certificate_verdict_built_in_one_place():
    # certify._verdict builds every verdict, after its witness recheck;
    # serialize.verdict_from_json reads one back
    assert _callers("CertificateVerdict") == {"certify._verdict", "serialize.verdict_from_json"}


def test_ks_search_has_one_front_door():
    # the KS and co-KS falsifiers reach the search only through the closed-form
    # decision; criterion 6 runs the search itself, as it tests the theorem
    # that decision rests on
    assert _callers("_ks_search") == {"certify._ks_decide", "suite.criterion_6"}


def test_certify_builds_no_map():
    # the KS decision and search read transfer matrices: co-KS of Phi reads
    # transpose_rows(T), and no map is built for tau o Phi
    assert not any(f.startswith("certify.") for f in _callers("QuantumMap"))


def test_one_restart_driver():
    # every search, a scan's stack of grid points included, goes through the
    # one two-stage driver: the KS searches through _ks_search, the
    # k-positivity search from its falsifier
    assert _callers("_falsify") == {"certify._ks_search", "certify.falsify_k_positivity"}


def _function(name):
    """The definition of certify.<name>."""
    return next(fn for fn in ast.walk(_tree(Path(certify.__file__)))
                if isinstance(fn, ast.FunctionDef) and fn.name == name)


def test_cholesky_only_in_the_certificate():
    # _certified is the one test that lets an X half-step keep its candidate
    # with no eigh; the X half-step and the restart's window test, the
    # search's certified hook, call it
    assert _callers("cholesky") == {"certify._certified"}
    assert _callers("_certified") == {"certify._ks_xstep", "certify.certified"}


def test_a_window_reads_its_cluster_from_the_steps_own_eigh():
    # the defect's spectrum is read where the step or an Aitken candidate is
    # evaluated, and nowhere else: a window evaluates no defect
    assert _callers("_clusters") == {"certify._min_eig_vectors", "certify.extrapolate"}


def test_one_cluster_draw_path():
    # a degenerate bottom cluster draws its random combination in
    # _cluster_draws alone, which stacks the draws per cluster size: the
    # step's vectors and the window's draws made ahead each reach it in one
    # call, and no other certify function draws a normal variate (the
    # Ginibre starts are linalg's)
    assert _callers("_cluster_draws") == {"certify._min_eig_vectors", "certify.window"}
    assert {f for f in _callers("standard_normal") if f.startswith("certify.")} == {"certify._cluster_draws"}


def test_one_x_half_step_eigh_on_refused_members_only():
    # the form M'_v, _qform(...), is built in the X half-step and the window
    # test alone; its eigh, in _ks_xstep, runs after the certificate, on the
    # members it refused: the whole stack only where no member kept its
    # candidate. So no second X half-step skips the certificate or the rule
    # inside a degenerate bottom cluster
    assert _callers("_qform") == {"certify._ks_xstep", "certify.certified"}
    fn = _function("_ks_xstep")

    def eighs(stmts):
        return [ast.unparse(node.args[0]) for stmt in stmts for node in ast.walk(stmt)
                if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.linalg.eigh"]

    branch = next(node for node in fn.body if isinstance(node, ast.If) and ast.unparse(node.test) == "not kept.any()")
    assert eighs(branch.body) == ["M"] and eighs(branch.orelse) == ["M[refused]"] and len(eighs(fn.body)) == 2
    assert not any(
        isinstance(node, ast.Call) and ast.unparse(node.func) == "np.linalg.eigh"
        and node.args and "_qform" in ast.unparse(node.args[0])
        for p in SOURCES for node in ast.walk(_tree(p))
    )


def _constants(path):
    """The upper-case names that the module at path assigns at its top level."""
    return {
        target.id
        for node in _tree(path).body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id.isupper()
    }


def test_certify_constants_are_a_fixed_set():
    # a new search knob, or the removal of one, is an edit to this list
    assert _constants(Path(certify.__file__)) == {
        "EIG_DEGENERACY_GAP", "STALL_TOL", "STALL_WINDOW", "WITNESS_RECHECK_TOL",
        "STACK_SEARCHES", "EXTRAPOLATION_ALIGNMENT",
    }


def test_every_module_constant_is_read():
    # read by name or as a module attribute, anywhere in kslab: no knob that
    # nothing reads
    read = {
        getattr(node, "id", None) or getattr(node, "attr", None)
        for p in SOURCES
        for node in ast.walk(_tree(p))
        if isinstance(getattr(node, "ctx", None), ast.Load) and isinstance(node, (ast.Name, ast.Attribute))
    }
    constants = {name for p in SOURCES for name in _constants(p)}
    assert constants and constants <= read, constants - read


def test_cli_has_one_error_boundary():
    # main turns every refused input into exit 1; the other handlers add
    # context the exception lacks (a file name, the --base prefix, the
    # KSLAB_SEED name) or turn an infeasible decomposition into an artifact
    owners = set()
    for fn in ast.walk(_tree(Path(kslab.__file__).parent / "cli.py")):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if any(isinstance(node, ast.ExceptHandler) for node in ast.walk(fn)):
                owners.add(fn.name)
    assert owners == {"default_seed", "read_artifact", "resolve_base", "cmd_decompose", "main"}
