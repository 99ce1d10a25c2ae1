"""The product is what runs, in names and in values: every public class,
function and method under ``src/repro`` has a caller in the product, and
every literal-defaulted parameter of one is set to another value by a
product call site.

The product is ``src/repro`` (outside the name's own definition and the
packages' ``__init__`` re-exports) plus ``bench/``, ``examples/`` and
``tools/``; ``specs/`` reach the product's callables through the registries
the value rule honours.  A name or a value that only tests use is a test
helper and lives in ``tests/helpers.py``; a name whose only subject is its
own tests goes.  The few kept anyway are listed in :data:`ALLOWED` and
:data:`ALLOWED_VALUES`, each with its reason.

The scan matches by name: a method counts as called when any product code
reads an attribute of that name.  It walks the syntax tree rather than the
token stream, so comments and strings (docstrings included) never count as
a caller, and a name read inside an f-string counts on every Python version
(3.11 tokenizes an f-string as one string token, 3.12 as its parts).
"""

from __future__ import annotations

import ast
import pathlib
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
PRODUCT = (SRC, ROOT / "bench", ROOT / "examples", ROOT / "tools")

#: Public names with no product caller, kept on purpose: name -> reason.
ALLOWED: Dict[str, str] = {}


def _definitions(path: pathlib.Path) -> Iterator[Tuple[str, str]]:
    """``(qualified name, bare name)`` of every public top-level class and
    function of ``path`` and every public method of those classes."""
    tree = ast.parse(path.read_text(), filename=str(path))
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs) or node.name.startswith("_"):
            continue
        yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, defs) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub.name


def _names_read(path: pathlib.Path) -> Set[str]:
    """Every name ``path``'s code reads: variables, attributes, and names
    imported into a module that is not a package's re-export list."""
    names: Set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
            names.update(alias.name for alias in node.names)
    return names


def product_orphans() -> Set[str]:
    """Public ``src/repro`` names nothing in the product reads."""
    read: Set[str] = set()
    for base in PRODUCT:
        for path in base.rglob("*.py"):
            if path.name != "__init__.py" or SRC not in path.parents:
                read |= _names_read(path)
    return {
        qualified
        for path in sorted(SRC.rglob("*.py"))
        for qualified, bare in _definitions(path)
        if bare not in read
    }


def test_every_public_name_has_a_product_caller():
    orphans = product_orphans()
    assert orphans - set(ALLOWED) == set(), (
        "public names only tests call: move each to tests/helpers.py, or "
        "delete it with the tests whose only subject it is"
    )
    assert set(ALLOWED) - orphans == set(), (
        "allowlisted names that now have a product caller: drop them from "
        "ALLOWED"
    )


def test_allowlist_is_short_and_explained():
    assert len(ALLOWED) <= 5
    assert all(reason.strip() for reason in ALLOWED.values())


# -- Values as well as names --------------------------------------------------
#
# A parameter whose every product caller takes the default is a second
# configuration the product never runs.  Its default belongs inline, and a
# test that needs the other value builds it in ``tests/helpers.py``.

#: Parameters with a literal default that no product call site sets, kept on
#: purpose: ``("callable(parameter)", ...)`` sharing one reason -> reason.
ALLOWED_VALUES: Dict[Tuple[str, ...], str] = {
    ("runtime.transport.allocate_ports(host)",): (
        "a deployment address: loopback is what one machine runs, another "
        "host is a deployment setting"
    ),
    ("verify.modelcheck.ModelChecker(engine)",): (
        "the frozen bench/verify.py passes engine=\"snapshot\"; the "
        "parameter leaves with the harness that passes it"
    ),
    (
        "messagepassing.forwarding.build_mp_network(faults)",
        "messagepassing.engine.ChannelFaults(loss)",
        "messagepassing.engine.ChannelFaults(dup)",
        "messagepassing.engine.ChannelFaults(reorder)",
    ): (
        "the message-passing engine's channel adversary; only tests drive "
        "it until a product scenario runs on that engine"
    ),
    ("buffergraph.orientation_cover.greedy_cover(seed)",): (
        "the heuristic's shuffle seed: X1 runs seed 0, the cover tests draw "
        "it to show every shuffled vertex order yields a valid cover"
    ),
}

_LITERAL_TYPES = (type(None), bool, int, float, str)
_MISSING = object()


def _literal(node: ast.AST):
    """The value of a literal ``None`` / bool / number / string expression,
    else :data:`_MISSING`."""
    if isinstance(node, ast.Constant) and isinstance(node.value, _LITERAL_TYPES):
        return node.value
    if (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.USub)
        and isinstance(node.operand, ast.Constant)
        and type(node.operand.value) in (int, float)
    ):
        return -node.operand.value
    return _MISSING


def _same(value, default) -> bool:
    return value == default and type(value) is type(default)


class _Signature:
    """One public callable's parameters, as its call sites see them."""

    def __init__(self, qualified: str, fn: ast.FunctionDef, bound: bool):
        self.qualified = qualified
        args = fn.args
        positional = args.posonlyargs + args.args
        self.positional = [a.arg for a in positional[1 if bound else 0:]]
        pairs = list(zip(positional[::-1], args.defaults[::-1]))
        pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
        #: Parameter name -> its literal default.
        self.defaults = {
            arg.arg: value
            for arg, default in pairs
            if (value := _literal(default)) is not _MISSING
        }

    def params(self) -> Set[str]:
        return {f"{self.qualified}({name})" for name in self.defaults}


def _is_static(fn: ast.FunctionDef) -> bool:
    return any(
        isinstance(d, ast.Name) and d.id == "staticmethod"
        for d in fn.decorator_list
    )


def _dataclass_init(node: ast.ClassDef, state: Set[str]) -> Optional[ast.FunctionDef]:
    """The ``__init__`` that ``@dataclass`` generates for ``node``, as the
    syntax of a function: one parameter per annotated field, in order, each
    with its default.  A field in ``state`` (an attribute some product code
    assigns or augments after construction) keeps no literal default: it is
    state, not an option.  None for a class that is no dataclass or writes
    its own ``__init__``."""
    decorated = any(
        _name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
        for d in node.decorator_list
    )
    if not decorated or any(
        isinstance(sub, ast.FunctionDef) and sub.name == "__init__"
        for sub in node.body
    ):
        return None
    fields = [
        sub for sub in node.body
        if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name)
    ]
    args = [ast.arg("self")] + [ast.arg(f.target.id) for f in fields]
    defaults = [
        f.value if f.target.id not in state else ast.Name("state")
        for f in fields
        if f.value is not None
    ]
    return ast.FunctionDef(
        name="__init__",
        args=ast.arguments(
            posonlyargs=[], args=args, kwonlyargs=[], kw_defaults=[],
            defaults=defaults,
        ),
    )


def _assigned_attributes(product: Sequence[pathlib.Path]) -> Set[str]:
    """Every attribute name product code assigns or augments
    (``result.note = ...``, ``report.duplicates += ...``)."""
    names: Set[str] = set()
    for base in product:
        for path in base.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                    if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                    else []
                )
                for target in targets:
                    for sub in ast.walk(target):
                        if isinstance(sub, ast.Attribute):
                            names.add(sub.attr)
    return names


class _Surface:
    """Every public callable of ``src`` with a literal-defaulted parameter,
    indexed by the bare name a call site uses.  A dataclass's generated
    ``__init__`` reads its fields; attributes in ``state`` are not options
    (:func:`_dataclass_init`)."""

    def __init__(self, src: pathlib.Path, state: Set[str]):
        self.state = state
        self.by_name: Dict[str, List[_Signature]] = {}
        self.bases: Dict[str, List[str]] = {}
        self.inits: Dict[str, _Signature] = {}
        for path in sorted(src.rglob("*.py")):
            module = ".".join(path.relative_to(src).with_suffix("").parts)
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in tree.body:
                if isinstance(node, ast.ClassDef):
                    self._add_class(module, node)
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not node.name.startswith("_"):
                        sig = _Signature(f"{module}.{node.name}", node, False)
                        self._add(node.name, sig)

    def _add(self, name: str, sig: _Signature) -> None:
        self.by_name.setdefault(name, []).append(sig)

    def _add_class(self, module: str, node: ast.ClassDef) -> None:
        self.bases[node.name] = [_name(b) for b in node.bases]
        public = not node.name.startswith("_")
        generated = _dataclass_init(node, self.state)
        if generated is not None:
            self.inits[node.name] = _Signature(
                f"{module}.{node.name}", generated, True
            )
        for sub in node.body:
            if not isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if sub.name == "__init__":
                self.inits[node.name] = _Signature(
                    f"{module}.{node.name}", sub, True
                )
            elif public and not sub.name.startswith("_"):
                sig = _Signature(
                    f"{module}.{node.name}.{sub.name}", sub, not _is_static(sub)
                )
                self._add(sub.name, sig)

    def init_of(self, cls: str, seen: Optional[Set[str]] = None):
        """The ``__init__`` a call of class ``cls`` runs: its own, else the
        first one up its bases (by name, within ``src``)."""
        seen = seen if seen is not None else set()
        if cls in seen:
            return None
        seen.add(cls)
        if cls in self.inits:
            return self.inits[cls]
        for base in self.bases.get(cls, ()):
            found = self.init_of(base, seen)
            if found is not None:
                return found
        return None

    def targets(self, name: Optional[str]) -> List[_Signature]:
        """Every signature a call of bare name ``name`` may run."""
        found = list(self.by_name.get(name, ()))
        if name in self.bases:
            init = self.init_of(name)
            if init is not None:
                found.append(init)
        return found

    def public(self) -> Set[str]:
        """``"callable(parameter)"`` of every literal-defaulted parameter of
        a public function, public method or public class's ``__init__``."""
        out: Set[str] = set()
        for sigs in self.by_name.values():
            for sig in sigs:
                out |= sig.params()
        for cls, sig in self.inits.items():
            if not cls.startswith("_"):
                out |= sig.params()
        return out


def _name(node: ast.AST) -> Optional[str]:
    """The bare name a ``Name`` or ``Attribute`` expression refers to."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _dict_keys(node: ast.AST) -> Optional[List[Tuple[str, ast.AST]]]:
    """``(key, value)`` pairs of a ``{...}`` literal or ``dict(...)`` call
    whose keys are all visible, else None."""
    if isinstance(node, ast.Dict):
        pairs = []
        for key, value in zip(node.keys, node.values):
            if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
                return None
            pairs.append((key.value, value))
        return pairs
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "dict"
        and not node.args
        and all(kw.arg is not None for kw in node.keywords)
    ):
        return [(kw.arg, kw.value) for kw in node.keywords]
    return None


def _assigned_keys(name: str, scope: ast.AST) -> List[Tuple[str, ast.AST]]:
    """``(key, value)`` pairs of every dict literal the function (or
    module) ``scope`` assigns to the variable ``name``, and of every item
    it stores into ``name`` under a visible key: a string literal, or a
    loop variable running over a literal tuple or list."""
    loops = {
        node.target.id: node.iter.elts
        for node in ast.walk(scope)
        if isinstance(node, ast.For)
        and isinstance(node.target, ast.Name)
        and isinstance(node.iter, (ast.Tuple, ast.List))
    }
    pairs: List[Tuple[str, ast.AST]] = []
    for node in ast.walk(scope):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if getattr(target, "id", None) == name:
                pairs += _dict_keys(node.value) or ()
            elif (
                isinstance(target, ast.Subscript)
                and getattr(target.value, "id", None) == name
            ):
                key = target.slice
                keys = loops.get(key.id, ()) if isinstance(key, ast.Name) else [key]
                pairs += [
                    (k.value, node.value)
                    for k in keys
                    if isinstance(k, ast.Constant) and isinstance(k.value, str)
                ]
    return pairs


def _scoped(
    tree: ast.Module,
) -> Iterator[Tuple[ast.AST, ast.AST, Optional[str]]]:
    """``(node, innermost enclosing function or module, innermost
    enclosing class name)`` for every node of ``tree``."""
    stack: List[Tuple[ast.AST, ast.AST, Optional[str]]] = [(tree, tree, None)]
    functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    while stack:
        node, scope, klass = stack.pop()
        yield node, scope, klass
        for child in ast.iter_child_nodes(node):
            stack.append((
                child,
                child if isinstance(child, functions) else scope,
                child.name if isinstance(child, ast.ClassDef) else klass,
            ))


def _given(sig: _Signature, call: ast.Call, scope: ast.AST) -> Set[str]:
    """Parameters of ``sig`` that ``call`` gives a value other than their
    literal default."""
    given: List[Tuple[str, ast.AST]] = []
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            break
        if i < len(sig.positional):
            given.append((sig.positional[i], arg))
    for kw in call.keywords:
        if kw.arg is not None:
            given.append((kw.arg, kw.value))
        elif isinstance(kw.value, ast.Name):
            given += _assigned_keys(kw.value.id, scope)
        else:
            given += _dict_keys(kw.value) or []
    return {
        name
        for name, value in given
        if name in sig.defaults and not _same(_literal(value), sig.defaults[name])
    }


def _forwarded(call: ast.Call) -> Iterator[Tuple[str, Set[str]]]:
    """``(callable name, keys)`` for each callable ``call`` hands on as an
    argument: it receives the call's other keywords and the keys of every
    dict literal among the call's arguments (``_build(label, fn, protocol=p)``,
    ``Sweep(run_one=run_one, axes={"n": ...})``)."""
    values = list(call.args) + [kw.value for kw in call.keywords]
    keys = {kw.arg for kw in call.keywords if kw.arg is not None}
    for value in values:
        keys |= {key for key, _ in _dict_keys(value) or ()}
    for value in values:
        if _name(value):
            yield _name(value), keys


def unset_parameters(
    src: pathlib.Path = SRC, product: Sequence[pathlib.Path] = PRODUCT
) -> Set[str]:
    """``"callable(parameter)"`` of every literal-defaulted parameter of a
    public ``src`` callable that no product call site sets to another value.

    A call site gives a parameter by keyword, by position, or through a
    ``**`` dict whose keys are visible in the same function (a ``{...}`` /
    ``dict(...)`` literal, or a variable the function assigns one to or
    stores items into under visible keys); passing the default literal
    does not count.  A classmethod's ``cls(...)`` calls its class, and a
    class call runs the
    ``__init__`` the class has or inherits (bases resolved by name within
    ``src``).  A callable registered as a value in a product dict literal
    is reached from a spec's ``kwargs`` or ``protocol_options`` -- input
    from outside the program -- so every parameter it has counts as set;
    a callable handed to another call receives that call's keywords (see
    :func:`_forwarded`).  A dataclass's parameters are its fields with
    literal defaults, less the fields product code writes after
    construction (:func:`_dataclass_init`).

    Known blind spots.  Calls are matched by bare name, like
    :func:`product_orphans`: methods of several classes that share a name
    (``run``) count as one, so a value one class's ``run`` receives hides
    the same parameter of another's.  A ``super().__init__(...)`` call and
    a dict built by comprehension or filled under a computed key are not
    read.
    """
    surface = _Surface(src, _assigned_attributes(product))
    remaining = surface.public()
    for base in product:
        for path in base.rglob("*.py"):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node, scope, klass in _scoped(tree):
                if isinstance(node, ast.Dict):
                    for value in node.values:
                        for sig in surface.targets(_name(value)):
                            remaining -= sig.params()
                if not isinstance(node, ast.Call):
                    continue
                called = _name(node.func)
                if called == "cls" and klass is not None:
                    called = klass  # a classmethod's ``cls(...)``
                for sig in surface.targets(called):
                    remaining -= {
                        f"{sig.qualified}({p})" for p in _given(sig, node, scope)
                    }
                for name, keys in _forwarded(node):
                    for sig in surface.targets(name):
                        remaining -= {
                            f"{sig.qualified}({k})" for k in keys if k in sig.defaults
                        }
    return remaining


def test_every_literal_default_has_a_product_caller_that_changes_it():
    unset = unset_parameters()
    allowed = {param for params in ALLOWED_VALUES for param in params}
    assert unset - allowed == set(), (
        "parameters no product caller sets: inline the default, and give "
        "tests the other value through tests/helpers.py"
    )
    assert allowed - unset == set(), (
        "allowlisted parameters that a product caller now sets: drop them "
        "from ALLOWED_VALUES"
    )


def test_value_allowlist_is_short_and_explained():
    assert len(ALLOWED_VALUES) <= 5
    assert all(reason.strip() for reason in ALLOWED_VALUES.values())


# -- The value rule's controls --------------------------------------------------

_LIBRARY = '''
def build(net, flag=False, level=1):
    return net


class Base:
    def __init__(self, knob=1):
        self.knob = knob


class Sub(Base):
    pass
'''


def _unset(
    tmp_path, product_code: str, test_code: str = "", library: str = _LIBRARY
) -> Set[str]:
    """The value rule over a synthetic ``src`` (``library``), one product
    module and one test module that is not product."""
    src = tmp_path / "src"
    product = tmp_path / "product"
    tests = tmp_path / "tests"
    for directory in (src, product, tests):
        directory.mkdir(parents=True)
    (src / "lib.py").write_text(library)
    (product / "main.py").write_text(product_code)
    (tests / "test_lib.py").write_text(test_code)
    return unset_parameters(src, (src, product))


def test_value_rule_flags_a_parameter_only_tests_set(tmp_path):
    unset = _unset(
        tmp_path,
        "build(1, level=2)\nSub(knob=2)\n",
        test_code="build(1, flag=True)\n",
    )
    assert unset == {"lib.build(flag)"}


def test_value_rule_does_not_count_the_default_passed_explicitly(tmp_path):
    unset = _unset(tmp_path, "build(1, False, level=1)\nSub(knob=1)\n")
    assert unset == {"lib.build(flag)", "lib.build(level)", "lib.Base(knob)"}
    assert _unset(tmp_path / "positional", "build(1, True, 2)\nSub(3)\n") == set()


def test_value_rule_resolves_visible_double_star_keys(tmp_path):
    product = (
        "build(1, **dict(flag=True))\n"
        "build(1, **{'level': 2})\n"
        "def main(extra):\n"
        "    opts = {'knob': 5}\n"
        "    Sub(**opts)\n"
        "    build(1, **extra)\n"
    )
    assert _unset(tmp_path, product) == set()


def test_value_rule_counts_a_subclass_call_for_the_base_init(tmp_path):
    assert "lib.Base(knob)" not in _unset(tmp_path, "Sub(knob=3)\n")
    assert "lib.Base(knob)" in _unset(tmp_path / "bare", "Sub()\n")


def test_value_rule_counts_registered_and_forwarded_callables(tmp_path):
    assert _unset(tmp_path, "BUILDERS = {'b': build, 's': Sub}\n") == set()
    forwarded = "def run(make):\n    return make(build, 1, flag=True, level=3)\n"
    assert _unset(tmp_path / "forwarded", forwarded + "Sub(knob=2)\n") == set()


def test_value_rule_reads_a_dataclass_s_fields(tmp_path):
    # The generated __init__ has one parameter per field.  ``size`` and
    # ``name`` are set through ``cls(**kwargs)``, its dict filled item by
    # item; ``rate`` only by a test; and ``hits``, which product code
    # augments after construction, is state rather than an option.
    library = (
        "from dataclasses import dataclass, field\n\n\n"
        "@dataclass\n"
        "class Knobs:\n"
        "    name: str = 'k'\n"
        "    size: int = 4\n"
        "    rate: float = 0.5\n"
        "    hits: int = 0\n"
        "    log: list = field(default_factory=list)\n\n"
        "    @classmethod\n"
        "    def from_spec(cls, spec):\n"
        "        kwargs = {}\n"
        "        for key in ('size',):\n"
        "            kwargs[key] = spec[key]\n"
        "        kwargs['name'] = spec['name']\n"
        "        return cls(**kwargs)\n"
    )
    product = "knobs = Knobs.from_spec(SPEC)\nknobs.hits += 1\n"
    unset = _unset(tmp_path, product, "Knobs(rate=0.9)\n", library)
    assert unset == {"lib.Knobs(rate)"}


def test_src_has_no_assert_statement():
    """A paper-claim check must survive ``python -O``: it raises a
    :class:`~repro.errors.ReproError` instead of asserting."""
    asserts = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []
