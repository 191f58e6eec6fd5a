"""One error type: every relfork exception is a RelforkError, and the CLI
turns every input into exit code 0, 1 or 2, never into a traceback."""

import contextlib
import importlib
import inspect
import io
import json
import pkgutil

import pytest
from hypothesis import event, given, settings, strategies as st

import relfork
from relfork import ParseError, RelforkError, SeqSyntaxError, TreeSyntaxError
from relfork.cli import main


class TestOneErrorType:
    def test_every_exception_class_is_a_relfork_error(self):
        names = set()
        for info in pkgutil.iter_modules(relfork.__path__):
            module = importlib.import_module(f"relfork.{info.name}")
            for name, cls in inspect.getmembers(module, inspect.isclass):
                if issubclass(cls, BaseException) and cls.__module__ == module.__name__:
                    assert issubclass(cls, RelforkError), f"{module.__name__}.{name}"
                    names.add(name)
        assert {"UsageError", "RelationError", "ConstructionError", "NilControlError"} <= names

    @pytest.mark.parametrize("cls", [ParseError, TreeSyntaxError, SeqSyntaxError])
    def test_syntax_errors_share_the_positioned_base(self, cls):
        assert "__init__" not in vars(cls)
        err = cls("unexpected token", 3)
        assert err.pos == 3
        assert str(err) == "unexpected token (at position 3)"


# ---------------------------------------------------------------------------
# Fuzzing the CLI.  Every example stays cheap: finite models up to base 2
# (sampled at most 20 times when base 2 is possible), windows up to 64 and
# at most 5 trials.  JSON strings hold no digits, so that no string such
# as "4" parses as a larger base size.


def mostly(good, junk):
    """Draw from good nine times in ten, so that valid runs stay common."""
    return st.sampled_from(range(10)).flatmap(lambda i: junk if i == 9 else good)


def optional(flag, values):
    return st.one_of(st.just([]), values.map(lambda value: [flag, value]))


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 2)
    | st.sampled_from([0.5, 1.5, -1.0, float("nan"), float("inf")])
    | st.text(st.characters(exclude_categories=("Nd", "Cs")), max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=8,
)
pair_lists = mostly(
    st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)).map(list), max_size=4),
    st.lists(st.lists(st.integers(-1, 2), max_size=3) | json_values, max_size=4)
    | json_values,
)
kinds = st.sampled_from(["basic", "tree", "pi", "rho", "seq"])
trees = mostly(
    st.sampled_from(
        ["bin nil nil", "bin (bin nil nil) nil", "bin nil (bin nil nil)",
         "bin (bin nil nil) (bin nil nil)"]
    ),
    st.sampled_from(["nil", "bin _ nil", "_", "bin nil", "bin (nil", ""]),
)
seqs = mostly(
    st.sampled_from(["pi", "rho", "pi.rho", "rho.pi.pi", "pi.pi"]),
    st.sampled_from(["", ".", "pi..rho", "tau"]),
)
member_lists = st.lists(st.integers(0, 12), max_size=4)
member_texts = mostly(
    member_lists.map(lambda s: ",".join(map(str, s))),
    st.sampled_from(["1,x", "-1", " ", "0,,3"]),
)


@st.composite
def good_configs(draw):
    config = {"kind": draw(kinds), "S": draw(member_lists)}
    if config["kind"] in ("tree", "seq"):
        config["control"] = draw(trees if config["kind"] == "tree" else seqs)
    return config


configs = mostly(
    good_configs(),
    st.fixed_dictionaries(
        {},
        optional={
            "kind": kinds | json_values,
            "S": member_lists | json_values,
            "control": trees | seqs | json_values,
            "extra": json_values,
        },
    )
    | json_values,
)
bindings = mostly(
    st.dictionaries(st.sampled_from(["x", "y", "z"]), pair_lists, max_size=3), json_values
)
UNIT2 = [[0, 0], [0, 1], [1, 0], [1, 1]]
CARRIER2 = [[], [[0, 0], [1, 1]], [[0, 1], [1, 0]], UNIT2]
models = mostly(
    st.sampled_from(
        [
            {"base_size": 2, "full": True},
            {"base_size": 1, "carrier": [[], [[0, 0]]], "unit": [[0, 0]]},
            {"base_size": 2, "carrier": CARRIER2, "unit": UNIT2},
            {"base_size": 2, "carrier": CARRIER2, "unit": UNIT2, "identity": CARRIER2[2]},
        ]
    ),
    st.fixed_dictionaries(
        {},
        optional={
            "base_size": st.integers(-1, 2) | json_values,
            "full": st.booleans() | json_values,
            "carrier": st.lists(pair_lists, max_size=4) | json_values,
            "unit": pair_lists,
            "identity": st.just("auto") | pair_lists,
        },
    )
    | json_values,
)
formulas = mostly(
    st.sampled_from(
        ["1' <= 1", "x <= 1", "x = x", "(x;1')^ = x^", "rsum(x, 1) = 1", "pi # rho <= 1'",
         "1 = 0", "1 <= 1'", "x = 0", "1 <= x", "x;y = y;x", "1' <= pi # rho", "1u = 0"]
    ),
    st.sampled_from(["~0;~0 = 1", "x +", "pi = pi"])
    | st.text(alphabet="xy01'~;#+&^()=<-!", max_size=12),
)
counts = mostly(st.integers(1, 5), st.integers(-1, 0)).map(str) | st.just("x")
windows = mostly(st.integers(1, 64), st.integers(-1, 0)).map(str)
model_specs = mostly(
    st.sampled_from(["full:0", "full:1", "full:2", "model.json"]),
    st.sampled_from(["full:x", "full:-1", "config.json", "a_dir", "missing.json"]),
)
FILES = (
    "config.json", "bind.json", "model.json", "a_dir", "missing.json", "out.json", "no_dir/out.json"
)


def file_arg(good, *junk):
    return mostly(st.just(good), st.sampled_from(junk))


@st.composite
def star_targets(draw):
    if draw(st.integers(0, 3)) == 0:
        return ["--config", draw(file_arg("config.json", "bind.json", "a_dir", "missing.json"))]
    kind = draw(kinds)
    argv = ["--star", kind, "--S", draw(member_texts)]
    if kind == "tree" or draw(st.integers(0, 9)) == 0:
        argv += draw(mostly(trees.map(lambda t: ["--t", t]), st.just([])))
    if kind == "seq" or draw(st.integers(0, 9)) == 0:
        argv += draw(mostly(seqs.map(lambda s: ["--s", s]), st.just([])))
    return argv


@st.composite
def cli_argvs(draw):
    argv = draw(st.sampled_from([[], ["--format", "json"], ["--format", "text"]]))
    command = draw(st.sampled_from(["check", "eval", "fix", "build", "export"]))
    argv.append(command)
    if command == "check" and draw(st.booleans()):
        spec = draw(model_specs)
        suite = mostly(st.sampled_from(["cr_tarski", "cr_equational"]), st.just("cfa"))
        argv += ["--model", spec, "--suite", draw(suite)]
        if spec not in ("full:0", "full:1") or draw(st.booleans()):
            argv += ["--sampled", str(draw(mostly(st.integers(1, 20), st.integers(-1, 0))))]
        argv += draw(optional("--seed", st.integers(0, 9).map(str)))
    elif command == "check":
        suite = mostly(st.sampled_from(["cfa", "cfau"]), st.just("cr_tarski"))
        argv += draw(star_targets()) + ["--suite", draw(suite), "--trials", draw(counts)]
        argv += draw(optional("--seed", st.integers(0, 9).map(str)))
    elif command == "eval":
        if draw(st.booleans()):
            argv += ["--model", draw(model_specs)]
        else:
            argv += draw(star_targets()) + ["--window", draw(windows)]
        argv += ["--formula", draw(formulas)]
        argv += ["--bind", draw(file_arg("bind.json", "config.json", "a_dir", "missing.json"))]
    elif command == "fix":
        argv += draw(star_targets()) + ["--window", draw(windows)]
    elif command == "build":
        argv += draw(star_targets())
    else:
        argv += ["--model", draw(model_specs)]
        argv += draw(optional("--out", file_arg("out.json", "a_dir", "no_dir/out.json")))
    if draw(st.integers(0, 19)) == 0:
        junk = st.sampled_from(["--window", "-1", "--bogus", "x"])
        argv.insert(draw(st.integers(0, len(argv))), draw(junk))
    return argv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_fuzz")
    (path / "a_dir").mkdir()
    return path


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(argv=cli_argvs(), config=configs, binding=bindings, model=models)
def test_cli_exit_codes_are_total(workdir, argv, config, binding, model):
    for name, content in (("config.json", config), ("bind.json", binding), ("model.json", model)):
        (workdir / name).write_text(json.dumps(content))
    argv = [str(workdir / arg) if arg in FILES else arg for arg in argv]
    code, out, err = run_cli(argv)
    event(f"exit {code}")
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert out == ""
    elif argv[:2] == ["--format", "json"]:
        json.loads(out)
