"""Property tests: any one field of a valid instance file replaced by an
arbitrary JSON value is read as an ``Instance`` or rejected with an
``InstanceError``, and ``raildesign solve`` answers it with an exit code."""

import copy
import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings, strategies as st

from helpers import rich_instance
from raildesign import cli
from raildesign.model import (Instance, InstanceError, instance_from_dict,
                              instance_to_dict, validate_instance)

BASE = instance_to_dict(rich_instance())

# Any code point but surrogates: what the default alphabet draws, without
# its utf-8 interval table, which costs a second to build in each process.
TEXT = st.text(st.characters(exclude_categories=("Cs",)), max_size=4)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=6)
# Small integers and the instance's own names give files that load and
# validate, so some of the mutants reach the solver.
VALUES = JSON_VALUES | st.integers(-1, 6) | st.sampled_from(
    ["A", "B", "C", "T1", "T2", "T3", "S1", "S2"])


def _paths(value, prefix=()):
    """The key path of every field below ``value``, at every depth."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


PATHS = list(_paths(BASE))


@st.composite
def mutated_instances(draw):
    data = copy.deepcopy(BASE)
    *parents, last = draw(st.sampled_from(PATHS))
    target = data
    for key in parents:
        target = target[key]
    target[last] = draw(VALUES)
    return data


@settings(max_examples=150, deadline=None)
@given(mutated_instances())
def test_one_mutated_field_gives_instance_or_instance_error(data):
    try:
        inst = instance_from_dict(data)
        validate_instance(inst)
    except InstanceError:
        return
    assert isinstance(inst, Instance)


@settings(max_examples=20, deadline=None)
@given(mutated_instances())
def test_solve_on_a_mutated_file_exits_with_a_status(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "inst.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = cli.main(["solve", path, "-o", os.path.join(tmp, "sol.json")])
    assert code in (cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_INFEASIBLE, cli.EXIT_LIMIT)
