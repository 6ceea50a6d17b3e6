import copy
import json
import math
import pickle
import re

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from gcube.gowers import GowersSystem
from gcube.lattice import (
    CubeSet,
    LatticeFunction,
    convolve,
    delta,
    function_from_json,
    function_to_json,
    indicator,
    interval_set,
    lp_norm,
    set_from_json,
    set_to_json,
    tensor_power,
)


def entries(dim=1, width=4, max_size=6):
    point = st.tuples(*[st.integers(-width, width) for _ in range(dim)])
    value = st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False)
    return st.dictionaries(point, value, min_size=1, max_size=max_size)


def test_lp_norm_interval_indicator():
    for n in (1, 2, 5):
        f = indicator([(j,) for j in range(n)])
        for p in (0.5, 1, 2, 3.7):
            assert lp_norm(f, p) == pytest.approx(n ** (1.0 / p), rel=1e-12)
        assert lp_norm(f, math.inf) == 1.0


def test_lp_norm_edge_cases():
    assert lp_norm(LatticeFunction(1, {}), 2) == 0.0
    assert lp_norm(LatticeFunction(1, {(0,): 3, (1,): 4}), 2) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        lp_norm(delta(), 0)
    with pytest.raises(ValueError):
        lp_norm(delta(), -1.5)


@pytest.mark.parametrize("p", [0.5, 1, 2, 7.5, math.inf])
def test_lp_norm_non_finite_values(p):
    # An infinite value makes every norm inf, though scaling by the largest
    # value would divide inf by inf; a NaN makes it NaN wherever it sits.
    assert lp_norm(LatticeFunction(1, {(0,): 1.0, (1,): math.inf}), p) == math.inf
    assert lp_norm(LatticeFunction(1, {(0,): complex(math.inf, 2)}), p) == math.inf
    for where in range(3):
        entries = {(x,): 1.0 for x in range(3)}
        entries[(where,)] = math.nan
        assert math.isnan(lp_norm(LatticeFunction(1, entries), p))
    assert math.isnan(lp_norm(LatticeFunction(1, {(0,): math.inf, (1,): math.nan}), p))


def test_convolve_binomial():
    f = indicator([(0,), (1,)])
    g = convolve(f, f)
    assert g.entries == {(0,): 1, (1,): 2, (2,): 1}


def test_convolve_identity_and_mismatch():
    f = LatticeFunction(1, {(0,): 1 + 2j, (3,): -0.5})
    assert convolve(f, delta()).entries == f.entries
    with pytest.raises(ValueError):
        convolve(f, delta(2))


def test_convolution_energy_of_ternary_interval():
    f = indicator([(0,), (1,), (2,)])
    sq = lp_norm(convolve(f, f), 2) ** 2
    assert sq == pytest.approx(19.0, rel=1e-12)


def test_tensor_power_examples():
    f = indicator([(0,), (1,)])
    sq = tensor_power(f, 2)
    assert set(sq.entries) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert tensor_power(f, 1).entries == f.entries
    g = LatticeFunction(1, {(0,): 3, (1,): 4})
    assert lp_norm(tensor_power(g, 3), 2) == pytest.approx(125.0, rel=1e-12)
    with pytest.raises(ValueError):
        tensor_power(f, 0)
    with pytest.raises(ValueError):
        tensor_power(tensor_power(f, 2), 2)


@given(entries(max_size=4), st.integers(1, 4), st.sampled_from([1.0, 2.0, 2.5]))
@settings(max_examples=60)
def test_tensor_power_norm_multiplicative(e, d, p):
    g = LatticeFunction(1, e)
    lhs = lp_norm(tensor_power(g, d), p)
    rhs = lp_norm(g, p) ** d
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-300)


@given(entries(width=3), entries(width=3), st.floats(0, 1), st.floats(0, 1))
@settings(max_examples=120)
def test_young_inequality(fe, ge, inv_r, frac):
    f = LatticeFunction(1, fe)
    g = LatticeFunction(1, ge)
    s = 1.0 + inv_r
    inv_p = (s - 1.0) + frac * (1.0 - (s - 1.0))
    inv_q = s - inv_p
    p = math.inf if inv_p == 0 else 1.0 / inv_p
    q = math.inf if inv_q <= 0 else 1.0 / inv_q
    r = math.inf if inv_r == 0 else 1.0 / inv_r
    lhs = lp_norm(convolve(f, g), r)
    rhs = lp_norm(f, p) * lp_norm(g, q)
    assert lhs <= rhs * (1 + 1e-9) + 1e-12


def test_zero_values_dropped_and_d0():
    f = LatticeFunction(1, {(0,): 0.0, (1,): 2.0})
    assert (0,) not in f.entries
    scalar = LatticeFunction(0, {(): 3 + 4j})
    assert lp_norm(scalar, 2) == pytest.approx(5.0)


def test_cube_set_validation():
    A = CubeSet(2, 2, frozenset([(0, 0), (1, 1)]))
    assert A.size == 2
    with pytest.raises(ValueError):
        CubeSet(1, 2, frozenset([(2,)]))
    with pytest.raises(ValueError):
        CubeSet(1, 0, frozenset())
    assert interval_set(3).members == {(0,), (1,), (2,)}


def test_json_round_trip():
    f = LatticeFunction(2, {(0, 1): 1 - 2j, (3, -1): 0.25})
    assert function_from_json(function_to_json(f)).entries == f.entries
    A = CubeSet(2, 3, frozenset([(0, 0), (2, 1)]))
    assert set_from_json(set_to_json(A)) == A
    blob = json.loads(json.dumps(function_to_json(f)))
    assert function_from_json(blob).entries == f.entries
    with pytest.raises(ValueError):
        function_from_json({"entries": []})
    with pytest.raises(ValueError):
        set_from_json({"d": 1, "n": 2})


def test_function_json_values_are_numbers():
    blob = {"d": 1, "entries": [{"p": [0], "re": 2}, {"p": [1], "re": 0.5, "im": -1}]}
    assert function_from_json(blob).entries == {(0,): 2 + 0j, (1,): 0.5 - 1j}


def test_bool_coordinate_rejected():
    with pytest.raises(ValueError, match="non-integer coordinate"):
        LatticeFunction(1, {(True,): 1.0})
    with pytest.raises(ValueError, match="non-integer coordinate"):
        CubeSet(1, 3, {(True,), (2,)})


@given(dim=st.integers(1, 3), data=st.data())
@settings(max_examples=40, deadline=None)
def test_function_and_set_json_round_trip(dim, data):
    f = LatticeFunction(dim, data.draw(entries(dim)))
    blob = json.loads(json.dumps(function_to_json(f)))
    assert function_from_json(blob).entries == f.entries
    side = data.draw(st.integers(1, 4))
    point = st.tuples(*[st.integers(0, side - 1) for _ in range(dim)])
    A = CubeSet(dim, side, data.draw(st.frozensets(point, max_size=8)))
    assert set_from_json(json.loads(json.dumps(set_to_json(A)))) == A


@pytest.mark.parametrize("blob", [
    {"d": 1, "entries": [{"p": [0.5], "re": 1.0}]},
    {"d": 1, "entries": [{"p": [1.9], "re": 1.0}]},
    {"d": 1, "entries": [{"p": [True], "re": 1.0}]},
    {"d": 1, "entries": [{"p": ["1"], "re": 1.0}]},
    {"d": 1.5, "entries": [{"p": [0], "re": 1.0}]},
    {"d": True, "entries": [{"p": [0], "re": 1.0}]},
    {"d": "1", "entries": [{"p": [0], "re": 1.0}]},
    {"d": 1, "entries": [{"p": [0], "re": 1.0}, {"p": [0], "re": 2.0}]},
    {"d": 1, "entries": [{"p": [0], "re": "2"}]},
    {"d": 1, "entries": [{"p": [0], "re": True}]},
    {"d": 1, "entries": [{"p": [0], "re": 2.0, "im": True}]},
    {"d": 1, "entries": [{"p": [0], "re": 2, "im": "1"}]},
    {"d": 1, "entries": [{"p": [0], "re": None}]},
])
def test_function_json_rejects_non_integers_and_repeats(blob):
    with pytest.raises(ValueError, match="malformed function JSON"):
        function_from_json(blob)


@pytest.mark.parametrize("blob", [
    {"d": 1, "n": 2, "members": [[0.5]]},
    {"d": 1, "n": 2, "members": [[True]]},
    {"d": 1, "n": 2, "members": [["1"]]},
    {"d": 1.5, "n": 2, "members": [[0]]},
    {"d": 1, "n": 2.0, "members": [[0]]},
    {"d": 1, "n": False, "members": []},
    {"d": 1, "n": "2", "members": [[0]]},
    {"d": 1, "n": 2, "members": [[1], [0], [1]]},
])
def test_set_json_rejects_non_integers_and_repeats(blob):
    with pytest.raises(ValueError, match="malformed set JSON"):
        set_from_json(blob)


@pytest.mark.parametrize("call, error", [
    (lambda: LatticeFunction(2, {(0,): 1.0}), ValueError),
    (lambda: LatticeFunction(-1, {}), ValueError),
    (lambda: CubeSet(-1, 2, frozenset()), ValueError),
    (lambda: delta(1) + 1, TypeError),
    (lambda: delta(1) + delta(2), ValueError),
    (lambda: indicator([]), ValueError),
], ids=["point-dim", "function-negative-dim", "set-negative-dim", "add-scalar",
        "add-dims", "indicator-empty"])
def test_input_checks(call, error):
    with pytest.raises(error):
        call()


# Sizes follow the rule of _json_int: an int, and a bool is not one.
@pytest.mark.parametrize("call, message", [
    (lambda: LatticeFunction(1.0, {}), "dimension must be an integer, got 1.0"),
    (lambda: LatticeFunction(True, {(0,): 1.0}), "dimension must be an integer, got True"),
    (lambda: CubeSet(1.0, 2, []), "dimension must be an integer, got 1.0"),
    (lambda: CubeSet(1, 2.5, []), "side must be an integer, got 2.5"),
    (lambda: CubeSet(1, True, []), "side must be an integer, got True"),
    (lambda: CubeSet(-1, 2.5, []), "dimension must be >= 0"),
    (lambda: CubeSet(1, 0, []), "side must be >= 1"),
    (lambda: tensor_power(delta(), 2.0), "dimension must be an integer, got 2.0"),
    (lambda: delta(1.0), "dimension must be an integer, got 1.0"),
    (lambda: interval_set(2.0), "side must be an integer, got 2.0"),
], ids=["function-float-dim", "function-bool-dim", "set-float-dim", "set-float-side",
        "set-bool-side", "set-negative-dim", "set-zero-side", "tensor-power-float-dim",
        "delta-float-dim", "interval-float-side"])
def test_sizes_must_be_ints(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


# The value classes of the exact layers keep what a frozen dataclass gave
# them.  Each case: an instance, an equal one built by keyword, an unequal
# one, the repr, the field names, and the hash (None for the classes that
# hold a dict, which are unhashable).
_A = CubeSet(1, 3, frozenset([(0,), (2,)]))
_PAIR = {(0,): delta(), (1,): delta()}


@pytest.mark.parametrize("value, same, other, text, names, hashed", [
    (LatticeFunction(1, {(0,): 2.0}), LatticeFunction(dim=1, entries={(0,): 2 + 0j}),
     LatticeFunction(1, {(1,): 2.0}), "LatticeFunction(dim=1, entries={(0,): (2+0j)})",
     ("dim", "entries"), None),
    (_A, CubeSet(side=3, members=[(2,), (0,)], dim=1), CubeSet(1, 4, _A.members),
     "CubeSet(dim=1, side=3, members=frozenset({(0,), (2,)}))", ("dim", "side", "members"),
     hash((1, 3, _A.members))),
    (GowersSystem(1, _PAIR), GowersSystem(k=1, functions=dict(_PAIR)),
     GowersSystem.constant(indicator([(1,)]), 1),
     "GowersSystem(k=1, functions={(0,): LatticeFunction(dim=1, entries={(0,): (1+0j)}), "
     "(1,): LatticeFunction(dim=1, entries={(0,): (1+0j)})})", ("k", "functions"), None),
], ids=["LatticeFunction", "CubeSet", "GowersSystem"])
def test_value_class_behaviour(value, same, other, text, names, hashed):
    assert value == same and not value != same
    assert value != other and not value == other
    assert value != tuple(getattr(value, name) for name in names)
    assert repr(value) == text
    assert type(value).__match_args__ == names
    if hashed is None:
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
    else:
        assert hash(value) == hash(same) == hashed
    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == text
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value and repr(twin) == text
