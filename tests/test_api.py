"""Every name the package exports or defines is code the package itself runs.

A name that only tests call is a test helper living in the library; it
belongs under tests/. The check is syntactic: an exported name must be read
(as a bare name or an attribute) somewhere in the package's modules other
than ``__init__.py``. Its own ``def``/``class`` line and the import lines
that re-export it do not count. Every function, class and method a module
defines, dunders excepted, must be read the same way somewhere outside its
own definition, and every attribute a method sets on ``self`` must be
read as an attribute somewhere in the package.
"""

import ast
import collections
import inspect
import pathlib

import autolabel

SRC = pathlib.Path(autolabel.__file__).parent


def exported_names() -> "set[str]":
    tree = ast.parse((SRC / "__init__.py").read_text())
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def reads(tree: ast.AST):
    """Every bare name and attribute name read in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def referenced_names() -> "set[str]":
    return {name for path in SRC.glob("*.py") if path.name != "__init__.py"
            for name in reads(ast.parse(path.read_text()))}


def test_exports_are_found():
    names = exported_names()
    assert {"run_tbal", "estimate_thresholds", "parse_config"} <= names
    assert all(hasattr(autolabel, name) for name in names)


def test_every_export_is_used_inside_the_package():
    unused = sorted(exported_names() - referenced_names())
    assert unused == [], f"exported but run by nothing in the package: {unused}"


def test_every_definition_is_used_inside_the_package():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    uses = collections.Counter(name for tree in trees.values()
                               for name in reads(tree))
    unused = [
        f"{module}:{node.name}"
        for module, tree in trees.items() for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        # reads inside its own body (recursion) do not count
        and uses[node.name] == sum(name == node.name for name in reads(node))
    ]
    assert unused == [], f"defined but run by nothing in the package: {unused}"


def test_every_attribute_set_on_self_is_read_inside_the_package():
    # a stored field that nothing reads is state kept for no one, as the
    # histogram's fallback classes were: the classes missing from its values
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    loads = {node.attr for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.ctx, ast.Load)}
    unread = sorted({
        f"{module}:{node.attr}"
        for module, tree in trees.items() for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name) and node.value.id == "self"
        and node.attr not in loads
    })
    assert unread == [], f"set on self but read by nothing: {unread}"


def test_one_function_draws_the_shuffle_stream():
    # both fits take their batches from one epoch schedule
    def tags(tree):
        return sum(isinstance(node, ast.Constant) and node.value == "shuffle"
                   for node in ast.walk(tree))

    trees = {path.name: ast.parse(path.read_text())
             for path in SRC.glob("*.py")}
    assert sum(map(tags, trees.values())) == 1
    owner, = (node for node in ast.walk(trees["mlp.py"])
              if isinstance(node, ast.FunctionDef)
              and node.name == "_epoch_batches")
    assert tags(owner) == 1


def test_no_scores_method_predicts():
    # the prediction is the logits' argmax, which predicted_scores owns; a
    # confidence function's own copy of it once disagreed on float32 ties
    tree = ast.parse((SRC / "confidence.py").read_text())
    methods = [node for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == "scores"]
    assert len(methods) == 4
    names = {getattr(node.func, "attr", getattr(node.func, "id", None))
             for method in methods for node in ast.walk(method)
             if isinstance(node, ast.Call)}
    assert "argmax" not in names


def owners(match) -> "set[tuple[str, str | None]]":
    """(module, innermost enclosing function, None outside any) of every
    node of the package's modules that ``match`` accepts."""
    found = set()

    def visit(node, module, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if match(node):
            found.add((module, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, module, owner)

    for path in SRC.glob("*.py"):
        visit(ast.parse(path.read_text()), path.name, None)
    return found


def calls_to(name):
    return lambda node: (isinstance(node, ast.Call)
                         and isinstance(node.func, ast.Name)
                         and node.func.id == name)


def test_one_function_holds_each_input_rule():
    # the integer rule
    assert owners(lambda node: isinstance(node, ast.Attribute)
                  and node.attr == "Integral") == {("data.py", "_is_integer")}
    # the missing-key rule
    assert owners(calls_to("MissingKeyError")) == {("config.py", "_fetch")}
    # a config's field types are its annotations: no call lists fields
    checks = [node for path in SRC.glob("*.py")
              for node in ast.walk(ast.parse(path.read_text()))
              if calls_to("_check_fields")(node)]
    assert len(checks) == 1
    assert all(len(call.args) == 1 and not call.keywords for call in checks)
    # a file format is a reader; load_dataset builds the one Dataset, and
    # check_format, which FileSpec and load_dataset both call, refuses an
    # unknown format and a labels file for a format that holds its own
    # labels; mixture_means holds the means' shape for SyntheticSpec and
    # synth_gaussian_mixture alike
    in_data = lambda found: {owner for module, owner in found
                             if module == "data.py"}
    assert in_data(owners(calls_to("Dataset"))) \
        == {"load_dataset", "synth_gaussian_mixture"}
    raising = lambda text: owners(lambda node: isinstance(node, ast.Raise)
                                  and text in ast.unparse(node))
    assert raising("only idx reads") == raising("unknown format") \
        == {("data.py", "check_format")}
    assert raising("means must have shape") == {("data.py", "mixture_means")}



def test_the_parser_builds_each_config_object_once():
    # a section's object is built from the values the parser read, never
    # built and then rebuilt by dataclasses.replace; _check_grid's replace
    # is the check of one grid value, not a second build of the config
    fns = {node.name: node for node in ast.walk(ast.parse(
        (SRC / "config.py").read_text())) if isinstance(node, ast.FunctionDef)
        and (node.name == "parse_config_dict"
             or node.name.startswith("_parse_"))}
    assert set(fns) == {"parse_config_dict", "_parse_dataset", "_parse_hpo",
                        "_parse_tbal"}
    replacing = {name for name, fn in fns.items() for node in ast.walk(fn)
                 if isinstance(node, ast.Call)
                 and ast.unparse(node.func) in ("dataclasses.replace",
                                                "replace")}
    assert replacing == set()


def test_one_function_checks_the_range_tables():
    # a range is a rule in its class's RANGES table, and its message is the
    # rule; no class writes a range check of its own beside the table
    assert owners(calls_to("_holds")) == {("data.py", "_check_fields")}
    tabled = [cls for module in vars(autolabel).values()
              if inspect.ismodule(module) for cls in vars(module).values()
              if inspect.isclass(cls) and hasattr(cls, "RANGES")]
    assert len(set(tabled)) == 9
    assert all(issubclass(cls, autolabel.data._Config) for cls in tabled)
    for cls in tabled:
        source = inspect.getsource(cls.__post_init__)
        assert [key for key in cls.RANGES if f"{key} must be" in source] == []


def test_only_the_base_config_class_checks_fields():
    # a config class checks its fields by deriving from data._Config, whose
    # __post_init__ makes the one call; a class with rules beyond its table
    # calls that __post_init__ first
    methods = {(path.name, cls.name, fn.name) for path in SRC.glob("*.py")
               for cls in ast.walk(ast.parse(path.read_text()))
               if isinstance(cls, ast.ClassDef)
               for fn in cls.body if isinstance(fn, ast.FunctionDef)
               and any(map(calls_to("_check_fields"), ast.walk(fn)))}
    assert methods == {("data.py", "_Config", "__post_init__")}
    assert owners(calls_to("_check_fields")) == {("data.py", "__post_init__")}


def imports(module: str) -> "set[str]":
    """Every module that the package module ``module`` imports anywhere in
    its source, a package module named with its leading dot (".data")."""
    found = set()
    for node in ast.walk(ast.parse((SRC / module).read_text())):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            found.add("." * node.level + (node.module or ""))
    return found


def test_the_input_rules_live_in_data_not_in_the_classifier():
    # each input rule and the config base is defined once, in data.py; the
    # classifier keeps none of their imports, and the threshold module
    # takes its config base without importing the classifier
    rules = ("_Config", "_check_fields", "_holds", "_is_integer", "_keys")
    defined = sorted((path.name, node.name) for path in SRC.glob("*.py")
                     for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                     and node.name in rules)
    assert defined == [("data.py", name) for name in rules]
    assert imports("mlp.py") & {"functools", "numbers", "sys", "typing"} \
        == set()
    assert ".mlp" not in imports("thresholds.py")


def test_no_module_imports_the_json_encoder():
    # every JSON file is written by json.dump or json.dumps whole, not
    # formatted by hand from the encoder's pieces
    assert [path.name for path in SRC.glob("*.py")
            if "json.encoder" in imports(path.name)] == []


# the package's modules, each importing only modules before it; a tuple
# holds modules that import neither each other
LAYERS = ("data", "rng", "mlp", ("confidence", "thresholds"), "loop",
          "config", "runner", "cli")


def test_each_module_imports_only_modules_below_it():
    place = {module: at for at, layer in enumerate(LAYERS)
             for module in ((layer,) if isinstance(layer, str) else layer)}
    assert set(place) == {path.stem for path in SRC.glob("*.py")} \
        - {"__init__"}
    upward = sorted(f"{module} imports {name}" for module in place
                    for name in imports(f"{module}.py")
                    if name.startswith(".")
                    and place[name[1:]] >= place[module])
    assert upward == [], upward


def test_the_parser_keeps_no_range_or_default_of_a_config_key():
    # a config key's default and range are its class's field default and
    # RANGES entry; the parser's own minimums are left only for the grid
    # size and the hidden widths, which no class has as a field, and every
    # default it passes a section is None (the key is absent)
    calls = [node for node in ast.walk(ast.parse(
        (SRC / "config.py").read_text())) if isinstance(node, ast.Call)]
    bounded = {ast.literal_eval(call.args[0]) for call in calls
               if any(kw.arg == "lo" for kw in call.keywords)}
    assert bounded == {"grid_size", "hidden"}
    readers = ("number", "string", "raw", "list_of_numbers")
    defaults = [ast.unparse(call) for call in calls
                if getattr(call.func, "attr", None) in readers
                and len(call.args) > 1
                and isinstance(call.args[1], ast.Constant)
                and call.args[1].value is not None]
    assert defaults == []


def test_callers_of_a_config_keep_no_rule_of_their_own():
    # a rule across config sections is ExperimentConfig's, which a config
    # built in code passes through too; neither the parser nor the search
    # raises a range error or compares a config's sizes
    for module, name in (("config.py", "parse_config_dict"),
                         ("runner.py", "hyperparameter_search")):
        fn, = (node for node in ast.walk(ast.parse((SRC / module).read_text()))
               if isinstance(node, ast.FunctionDef) and node.name == name)
        raised = {ast.unparse(node.exc.func) for node in ast.walk(fn)
                  if isinstance(node, ast.Raise)
                  and isinstance(node.exc, ast.Call)}
        assert raised <= {"ConfigError"}, (name, raised)
        compared = {node.attr for cmp in ast.walk(fn)
                    if isinstance(cmp, ast.Compare) for node in ast.walk(cmp)
                    if isinstance(node, ast.Attribute)}
        assert not any(attr.endswith("_size") for attr in compared), name
