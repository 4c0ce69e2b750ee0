import ast
import copy
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import similitude
from similitude import (CoeffSeq, LatticeKey, Order, QuadInt, Quat, Ring, Z4,
                        coeff_seq)
from similitude.oracle import SSM, LambdaClass

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def test_every_public_name_resolves():
    assert len(set(similitude.__all__)) == len(similitude.__all__)
    for name in similitude.__all__:
        assert getattr(similitude, name) is not None, name


def _python(code: str, **env_vars: str) -> str:
    """stdout of `python -c code` in a fresh interpreter (this one has loaded
    NumPy already), with src on PYTHONPATH, no BLAS thread variable but the
    given ones."""
    src = str(Path(similitude.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env.update(env_vars)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60).stdout


# the OS threads of this process and the BLAS variables set, after a
# float64 matmul (which would wake any OpenBLAS pool)
_REPORT = """
import numpy as np
a = np.ones((256, 256))
assert (a @ a)[0, 0] == 256.0
print(len(os.listdir("/proc/self/task")), sorted(set(os.environ) & set(%r)))
""" % (BLAS_VARS,)

linux_tasks = pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                                 reason="counts OS threads in /proc/self/task")


@linux_tasks
def test_import_loads_blas_with_one_thread_and_restores_environ():
    assert _python("import os, similitude" + _REPORT) == "1 []\n"


@linux_tasks
def test_import_keeps_a_preset_blas_thread_count():
    preset = _python("import os, similitude" + _REPORT, OPENBLAS_NUM_THREADS="2")
    bare = _python("import os, numpy" + _REPORT, OPENBLAS_NUM_THREADS="2")
    assert preset == bare
    assert preset.endswith(" ['OPENBLAS_NUM_THREADS']\n")


def test_import_after_numpy_leaves_environ_alone():
    code = "import os, numpy\nenv = dict(os.environ)\nimport similitude\nprint(dict(os.environ) == env)"
    assert _python(code) == "True\n"


def test_cli_import_loads_no_fractions_or_decimal():
    # both cost start-up time in every command, and no code path needs them
    code = "import sys, similitude.cli\nprint(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    assert _python(code) == "[]\n"


def test_start_up_loads_no_dataclasses_json_or_full_prime_table():
    # a fresh CLI process pays for none of them: dataclasses generated code
    # for each value class (4-6 ms), only `series --format json` imports
    # json, and factorize(m) for m <= 10^4 sieves the primes below 2^7 only,
    # never the 2^16 table (+0.3 MB of peak RSS in an oracle command)
    code = """import sys, similitude.cli
from similitude import arith
print(sorted({'dataclasses', 'json'} & set(sys.modules)))
asked, real = set(), arith.primes_up_to
arith.primes_up_to = lambda n: asked.add(n) or real(n)
assert all(arith.math.prod(p ** e for p, e in arith.factorize(m)) == m for m in range(1, 10**4 + 1))
print(sorted(asked))"""
    assert _python(code) == "[]\n[1, 3, 7, 15, 31, 63, 127]\n"


def test_value_classes_compare_hash_and_stay_immutable():
    # each value class compares and hashes by its fields, and hashes as the
    # tuple of its fields (as a frozen dataclass did, so set and cache order
    # are kept); no field can be set or deleted, and _replace checks its input
    key = LatticeKey(((2, 0), (1, 3)))
    lam = QuadInt(Ring.GOLDEN, 2, 1)
    quat = Quat(Ring.RATIONAL, (1, 1, 0, 0))
    pairs = [(lam, QuadInt(Ring.GOLDEN, 2, 2)), (key, LatticeKey(((2, 0), (0, 3)))),
             (Z4, Z4._replace(max_m=60)),
             (similitude.element(Z4, quat), similitude.element(Z4, quat * quat)),
             (LambdaClass(lam, 120, 14400, frozenset({key})), LambdaClass(lam, 120, 14400, frozenset())),
             (SSM(key, "two-sided"), SSM(key, "product"))]
    for x, other in pairs:
        y = type(x)(*x)
        assert x == y and x is not y and hash(x) == hash(y) == hash(tuple(x)) and x != other
        for field in x._fields:
            with pytest.raises(AttributeError):
                setattr(x, field, getattr(x, field))
            with pytest.raises(AttributeError):
                delattr(x, field)
        with pytest.raises(AttributeError):  # no __dict__ either
            x.extra = 0
    assert pickle.loads(pickle.dumps([lam, key, Z4])) == [lam, key, Z4]
    with pytest.raises(ValueError, match="no omega component"):
        QuadInt(Ring.RATIONAL, 1, 1)
    with pytest.raises(ValueError, match="no omega component"):
        QuadInt(Ring.RATIONAL, 1)._replace(b=1)
    with pytest.raises(ValueError, match="Hermite normal form"):
        key._replace(hnf=((2, 0), (2, 3)))
    seq = coeff_seq([1, 2, 3])
    assert seq == CoeffSeq(np.array([1, 2, 3], object)) != coeff_seq([1, 2, 4])
    with pytest.raises(TypeError, match="unhashable"):
        hash(seq)
    assert copy.copy(seq) == copy.deepcopy(seq) == pickle.loads(pickle.dumps(seq)) == seq
    for x in (copy.copy(seq), copy.deepcopy(seq), pickle.loads(pickle.dumps(seq))):
        assert not x.array.flags.writeable  # each copy is rebuilt through the constructor
    for change in (lambda: setattr(seq, "array", seq.array), lambda: delattr(seq, "array"),
                   lambda: setattr(seq, "other", 0)):
        with pytest.raises(AttributeError):
            change()
    with pytest.raises(TypeError, match="1-D int64 or object array"):
        CoeffSeq(np.ones(3))


def test_ring_rules_and_order_decisions_have_one_owner():
    # each quadratic ring's rules read its row on quadfield.Ring, and the key
    # basis, rank and membership solve are orders' public functions: no
    # module compares a ring with GOLDEN or SQRT2, and oracle reads no
    # private name of orders
    src = Path(similitude.__file__).resolve().parent
    branch = re.compile(r"(\bis(\s+not)?|[=!]=)\s*Ring\.(GOLDEN|SQRT2)|Ring\.(GOLDEN|SQRT2)\s*(\bis\b|[=!]=)")
    for path in sorted(src.glob("*.py")):
        assert not branch.search(path.read_text()), path.name
    tree = ast.parse((src / "oracle.py").read_text())
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "orders"
               for alias in node.names if alias.name.startswith("_")]
    private += [node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "orders" and node.attr.startswith("_")]
    assert private == []


def _names(tree, names) -> list[str]:
    """Each Name, Attribute or imported name in the tree that is one of the names."""
    return [f"line {node.lineno}: {ref}" for node in ast.walk(tree)
            if (ref := getattr(node, "id", None) or getattr(node, "attr", None)
                or isinstance(node, ast.alias) and node.name) in names]


def test_engine_reads_none_of_the_closed_form():
    # the cross-check's two routes are independent only if each reads its
    # own data: no engine function or map names the Euler table, its
    # evaluators, a Ring row or the closed form's characters chi5 and chi8,
    # and neither the closed form (_ppower, and quadfield, which holds the
    # ring rows and splitting_sign) nor its characters name the engine's
    # Kronecker symbol
    engine = {"_engine", "engine_sequence", "_character", "_index2", "_index2_inverse",
              "_dilated_inverse", "_DISCRIMINANT", "_ZETA", "_BASE_FIELD"}
    closed_form = {"_EULER", "_ppower", "coeff", "closed_sequence", "splitting_sign", "Ring",
                   "chi5", "chi8"}
    src = Path(similitude.__file__).resolve().parent
    defs = {}
    for module in ("counting", "arith"):
        tree = ast.parse((src / f"{module}.py").read_text())
        defs[module] = {getattr(d, "name", None) or getattr(d.targets[0], "id", None): d
                        for d in tree.body if isinstance(d, ast.FunctionDef)
                        or isinstance(d, ast.Assign) and len(d.targets) == 1}
    assert engine <= defs["counting"].keys()
    reads = [f"{name} {ref}" for name in sorted(engine)
             for ref in _names(defs["counting"][name], closed_form)]
    assert reads == []
    kronecker = {"kronecker", "_TWO"}
    reads = [f"quadfield {ref}" for ref in _names(ast.parse((src / "quadfield.py").read_text()), kronecker)]
    closed = (("counting", "_ppower"), ("arith", "_residue_rule"), ("arith", "chi5"), ("arith", "chi8"))
    reads += [f"{module}.{name} {ref}" for module, name in closed
              for ref in _names(defs[module][name], kronecker)]
    assert reads == []


def test_the_cross_check_has_one_owner():
    # counting.series alone runs both routes and compares them; verify calls
    # it, so the CLI names neither route
    src = Path(similitude.__file__).resolve().parent
    routes = {"closed_sequence", "engine_sequence"}
    assert _names(ast.parse((src / "cli.py").read_text()), routes) == []
    owners = []
    for path in sorted(src.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef):
                calls = {getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                         for node in ast.walk(fn) if isinstance(node, ast.Call)}
                if routes <= calls:
                    owners.append(f"{path.stem}.{fn.name}")
    assert owners == ["counting.series"]


def test_only_quat_builds_quaternions():
    # order arithmetic runs on integer rows of doubled coordinates; a Quat is
    # built only by quat.py itself (the functions that take one convert it)
    src = Path(similitude.__file__).resolve().parent
    for path in sorted(src.glob("*.py")):
        if path.name != "quat.py":
            calls = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.Call)
                     and "Quat" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]
            assert calls == [], f"{path.name} builds a Quat at line(s) {calls}"


def test_dirichlet_operations_take_only_coeff_seqs():
    # a sequence has one form through the algebra: outside CoeffSeq's own
    # constructor, no function of dirichlet dispatches on a bare ndarray
    tree = ast.parse((Path(similitude.__file__).resolve().parent / "dirichlet.py").read_text())
    dispatch = [f"{fn.name} (line {node.lineno})" for fn in tree.body
                if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                and "ndarray" in ast.unparse(node.args[-1])]
    assert dispatch == []
