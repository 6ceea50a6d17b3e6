"""Pinned float bits of the objective kernel, the witness roots and the
solver's printed result, and of the solver's random starts.

The ascent, `objective` and `witness_lower_bound` share one evaluation
kernel (`TermMatrix.log_monomials` and `monomials`), so a test that runs
both through it cannot see a drift in the kernel.  These values are pinned
by `float.hex` instead.  They were taken on x86-64 with NumPy 2.4 and
OpenBLAS; another BLAS or libm may round the last bit differently.
"""

import contextlib
import io

import numpy as np
import pytest

import gcube.cli as cli
from gcube.solver import _MULTISTARTS, SolverConfig, _start_pool, witness_lower_bound
from gcube.terms import objective, term_matrix

# Near each critical exponent, as in tests/test_solver.py.
_T = {
    (2, 2): 2.58496, (2, 4): 3.32193, (2, 16): 5.08746,
    (3, 2): 2.72071, (3, 4): 3.69132, (3, 16): 6.08010,
    (5, 2): 2.80835, (5, 4): 4.06247, (5, 16): 7.59828,
    (8, 2): 2.85365, (8, 4): 4.28175, (8, 16): 9.09474,
}


def _rows(n):
    # A vertex, a point with exact zeros (at n = 2 another vertex) and an
    # interior point, from small integers so that no generator enters.
    raw = [[0.0] * (n - 1) + [1.0],
           [j + 1.0 if j % 2 == 0 else 0.0 for j in range(n)],
           [j + 1.0 for j in range(n)]]
    return [[x / sum(r) for x in r] for r in raw]


# Per (n, k): objective(n, k, t, g) for each row, then
# TermMatrix.values of the three rows as one batch, which rounds
# differently from a single row.
_PINNED_VALUES = {
    (2, 2): (
        ('0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.f68efa68e90f8p-1'),
        ('0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.f68efa68e90f8p-1'),
    ),
    (2, 4): (
        ('0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.e345cef76066ap-1'),
        ('0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.e345cef76066ap-1'),
    ),
    (2, 16): (
        ('0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.a81dd6f3cff94p-1'),
        ('0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.a81dd6f3cff94p-1'),
    ),
    (3, 2): (
        ('0x1.0000000000000p+0', '0x1.c7eb2cdc03a07p-1', '0x1.e0f1c9a0e3944p-1'),
        ('0x1.0000000000000p+0', '0x1.c7eb2cdc03a07p-1', '0x1.e0f1c9a0e3945p-1'),
    ),
    (3, 4): (
        ('0x1.0000000000000p+0', '0x1.6e90740a4e93ap-1', '0x1.a800d74f7971bp-1'),
        ('0x1.0000000000000p+0', '0x1.6e90740a4e93ap-1', '0x1.a800d74f7971ap-1'),
    ),
    (3, 16): (
        ('0x1.0000000000000p+0', '0x1.7c50cc984fa07p-2', '0x1.214622d530ce5p-1'),
        ('0x1.0000000000000p+0', '0x1.7c50cc984fa07p-2', '0x1.214622d530ce4p-1'),
    ),
    (5, 2): (
        ('0x1.0000000000000p+0', '0x1.b5931bc932186p-1', '0x1.d2beb0834568cp-1'),
        ('0x1.0000000000000p+0', '0x1.b5931bc932186p-1', '0x1.d2beb0834568dp-1'),
    ),
    (5, 4): (
        ('0x1.0000000000000p+0', '0x1.1b970a48bd714p-1', '0x1.5e880e37768e8p-1'),
        ('0x1.0000000000000p+0', '0x1.1b970a48bd714p-1', '0x1.5e880e37768e8p-1'),
    ),
    (5, 16): (
        ('0x1.0000000000000p+0', '0x1.a4aef281f3315p-4', '0x1.b32598b2c90a2p-3'),
        ('0x1.0000000000000p+0', '0x1.a4aef281f3315p-4', '0x1.b32598b2c90a3p-3'),
    ),
    (8, 2): (
        ('0x1.0000000000000p+0', '0x1.aa16309ffaa45p-1', '0x1.cc8d053e20bf9p-1'),
        ('0x1.0000000000000p+0', '0x1.aa16309ffaa44p-1', '0x1.cc8d053e20bfap-1'),
    ),
    (8, 4): (
        ('0x1.0000000000000p+0', '0x1.d3648897abb5bp-2', '0x1.38fa11d6f7db2p-1'),
        ('0x1.0000000000000p+0', '0x1.d3648897abb5ap-2', '0x1.38fa11d6f7db3p-1'),
    ),
    (8, 16): (
        ('0x1.0000000000000p+0', '0x1.29736d67af1f2p-6', '0x1.c8e436e624ae5p-5'),
        ('0x1.0000000000000p+0', '0x1.29736d67af1f1p-6', '0x1.c8e436e624ae6p-5'),
    ),
}


# Per (n, k) and row that is not a point mass: the witness root from the
# cold start and from a start at t = 1.
_PINNED_ROOTS = {
    (2, 2): (
        ('0x1.4734dd4708db3p+1', '0x1.4734dd4708db3p+1'),
    ),
    (2, 4): (
        ('0x1.9e21bcef68ea7p+1', '0x1.9e21bcef68ea7p+1'),
    ),
    (2, 16): (
        ('0x1.34716315653f8p+2', '0x1.34716315653f9p+2'),
    ),
    (3, 2): (
        ('0x1.42938a2cab7c3p+1', '0x1.42938a2cab7c2p+1'),
        ('0x1.54749bef625e1p+1', '0x1.54749bef625e1p+1'),
    ),
    (3, 4): (
        ('0x1.910cd0a639302p+1', '0x1.910cd0a639301p+1'),
        ('0x1.c188429b75029p+1', '0x1.c188429b75029p+1'),
    ),
    (3, 16): (
        ('0x1.217f6e616482dp+2', '0x1.217f6e616482dp+2'),
        ('0x1.63ead8dc578b4p+2', '0x1.63ead8dc578b4p+2'),
    ),
    (5, 2): (
        ('0x1.526ee450f940bp+1', '0x1.526ee450f940bp+1'),
        ('0x1.5f9d476d49782p+1', '0x1.5f9d476d49782p+1'),
    ),
    (5, 4): (
        ('0x1.bae6433790124p+1', '0x1.bae6433790124p+1'),
        ('0x1.e87547bb0994dp+1', '0x1.e87547bb0994dp+1'),
    ),
    (5, 16): (
        ('0x1.585781feb4be7p+2', '0x1.585781feb4be7p+2'),
        ('0x1.a84123608b548p+2', '0x1.a84123608b548p+2'),
    ),
    (8, 2): (
        ('0x1.5a302b8eda1dcp+1', '0x1.5a302b8eda1dcp+1'),
        ('0x1.66562c971fcd4p+1', '0x1.66562c971fcd4p+1'),
    ),
    (8, 4): (
        ('0x1.d472b17961d98p+1', '0x1.d472b17961d98p+1'),
        ('0x1.0231e7f34dc27p+2', '0x1.0231e7f34dc27p+2'),
    ),
    (8, 16): (
        ('0x1.81be86dd2008dp+2', '0x1.81be86dd2008dp+2'),
        ('0x1.ec4e4d5bf7062p+2', '0x1.ec4e4d5bf7062p+2'),
    ),
}


@pytest.mark.parametrize("n,k", sorted(_T))
def test_objective_bits_pinned(n, k):
    rows = _rows(n)
    single, batch = _PINNED_VALUES[n, k]
    assert tuple(objective(n, k, _T[n, k], g).hex() for g in rows) == single
    values = term_matrix(n, k).values(np.array(rows), _T[n, k])
    assert tuple(float(v).hex() for v in values) == batch


@pytest.mark.parametrize("n,k", sorted(_T))
def test_witness_root_bits_pinned(n, k):
    rows = [g for g in _rows(n) if max(g) < 1.0 - 1e-12]
    got = tuple((witness_lower_bound(n, k, g).hex(),
                 witness_lower_bound(n, k, g, 1.0).hex()) for g in rows)
    assert got == _PINNED_ROOTS[n, k]


# The random rows of the solver's cold pool at (n, k) = (3, 2), seed 1: a
# change to the stream they are drawn from changes every solve's last bits.
_PINNED_RANDOM_BLOCK = (
    ('0x1.54e5ad18e7808p-5', '0x1.159fe4f98c724p-1', '0x1.aa238069ca2b7p-2'),
    ('0x1.7eca6a9ec6c71p-3', '0x1.bc9fc5333534ep-2', '0x1.83fb057d67678p-2'),
    ('0x1.8ec5bf8fae4dep-2', '0x1.25f9c6069197ap-1', '0x1.2a35a31974172p-5'),
    ('0x1.88450a205f87bp-7', '0x1.810652e05b38fp-1', '0x1.e36263dc8d23cp-3'),
    ('0x1.6aa9733c43767p-1', '0x1.107c718fe676fp-10', '0x1.299c9d15e92ccp-2'),
    ('0x1.269e485a652fep-2', '0x1.dee0e0d1651eap-5', '0x1.4ec2cdc5b7163p-1'),
    ('0x1.f3bd5e054b261p-1', '0x1.acdb7aa818d40p-7', '0x1.63cd04051da47p-7'),
    ('0x1.895d1913bcf6ap-3', '0x1.611d06f5894b8p-1', '0x1.e45d962c3bb6ep-4'),
)


def test_random_block_bits_pinned():
    block = _start_pool(3, 2, SolverConfig(rng_seed=1))[-_MULTISTARTS:]
    assert tuple(tuple(float(x).hex() for x in row) for row in block) == _PINNED_RANDOM_BLOCK


# `gcube exponent --format json` at three points of the bench workloads.
_EXPONENT_JSON = {
    (3, 4, 1): (
        '{"k":4,"n":3,"t":3.6913211405134034,"p":4.334491470924867,'
        '"bracket":5.000000413701855e-10,'
        '"argmax":[0.24106843275663162,0.51786311764866566,0.24106844959470294]}\n'
    ),
    (6, 2, 7): (
        '{"k":2,"n":6,"t":2.8286209328183229,"p":1.4141166649765837,'
        '"bracket":5.000000413701855e-10,'
        '"argmax":[0.055271016656361395,0.16432269266043958,'
        '0.280406290683199,0.28040629068319906,0.16432269266043958,'
        '0.05527101665636143]}\n'
    ),
    (2, 16, 0): (
        '{"k":16,"n":2,"t":5.08746284150034,"p":12881.863129377241,'
        '"bracket":5.000000413701855e-10,"argmax":[0.5,0.5]}\n'
    ),
}


@pytest.mark.parametrize("n,k,seed", sorted(_EXPONENT_JSON))
def test_exponent_json_bytes_pinned(n, k, seed):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["exponent", "--n", str(n), "--k", str(k),
                         "--format", "json", "--seed", str(seed)])
    assert code == 0
    assert out.getvalue() == _EXPONENT_JSON[n, k, seed]
