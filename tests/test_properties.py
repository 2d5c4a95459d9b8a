"""Property tests: random numbers in bath JSON, spectral-density configs,
system JSON and eval-sd flags.

Loading must give finite values or raise ValidationError, and the CLI may
only exit with 0 or 2-5.
"""

import functools
import io
import json
import math
import operator
import re
import sys

import numpy as np
import pytest

from bathkit.discretize import load_bath_model
from bathkit.errors import ValidationError
from bathkit.hamiltonian import system_from_dict
from bathkit.specdens import _finite_pairs, sd_from_config

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

DEBYE_JSON = '{"kind": "debye", "lambda": 35.0, "gamma": 106.1}'
PROPERTY_SETTINGS = hypothesis.settings(
    max_examples=40, deadline=None, derandomize=True, database=None
)
# non-finite values are drawn often on purpose: they are the interesting ones
ANY_FLOAT = st.sampled_from([math.nan, math.inf, -math.inf]) | st.floats(
    allow_nan=True, allow_infinity=True
)
POSITIVE = st.floats(min_value=1e-3, max_value=1e4)
# what a JSON number field may hold instead of a valid number
NOT_A_NUMBER = (
    ANY_FLOAT | st.integers() | POSITIVE.map(str) | st.text(max_size=4) | st.booleans() | st.none()
)
BATH_NUMBER_FIELDS = (
    ("temperature_K",),
    ("t_max_fs",),
    ("omega_max_cm1",),
    ("tol",),
    ("spectral_density", "lambda"),
    ("spectral_density", "gamma"),
    ("modes", 0, "omega_cm1"),
    ("modes", 0, "z"),
    ("modes", 0, "g_cm1"),
    ("diagnostics", "id_rank"),
    ("diagnostics", "rel_error"),
)


def replace(doc, path, value):
    """Set the node at ``path`` (keys and indices) inside ``doc`` to ``value``."""
    functools.reduce(operator.getitem, path[:-1], doc)[path[-1]] = value


def number_paths(node, path=()):
    """Paths to every number in a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [] if isinstance(node, str) else [path]
    return [p for key, value in items for p in number_paths(value, path + (key,))]


@st.composite
def edited(draw, valid):
    """A valid JSON document with up to two numbers, or arrays of them, replaced."""
    doc = draw(valid)
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from(number_paths(doc)))
        if isinstance(path[-1], int) and draw(st.booleans()):
            path = path[:-1]  # the whole [omega, J] point or matrix row
        replace(doc, path, draw(NOT_A_NUMBER | st.lists(POSITIVE | NOT_A_NUMBER, max_size=3)))
    return doc


SD_CONFIGS = edited(
    st.fixed_dictionaries({"kind": st.just("debye"), "lambda": POSITIVE, "gamma": POSITIVE})
    | st.fixed_dictionaries({"kind": st.just("ohmic_exp"), "alpha": POSITIVE, "omega_c": POSITIVE})
    | st.fixed_dictionaries(
        {
            "kind": st.just("lorentzian_sum"),
            "terms": st.lists(
                st.fixed_dictionaries({"lambda": POSITIVE, "gamma": POSITIVE, "omega0": POSITIVE}),
                min_size=1,
                max_size=3,
            ),
        }
    )
    | st.fixed_dictionaries(
        {
            "kind": st.just("tabulated"),
            "points": st.lists(POSITIVE, min_size=2, max_size=4, unique=True).flatmap(
                lambda omegas: st.tuples(*(st.tuples(st.just(w), POSITIVE) for w in sorted(omegas)))
            ).map(lambda points: [list(p) for p in points]),
        }
    )
)


@st.composite
def symmetric_matrices(draw, n):
    upper = [[draw(st.floats(-1e3, 1e3)) for _ in range(n)] for _ in range(n)]
    return [[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]


SYSTEM_DOCS = edited(
    st.integers(1, 3).flatmap(
        lambda n: st.fixed_dictionaries(
            {
                "dim": st.just(n),
                "h_s": symmetric_matrices(n),
                "couplings": st.lists(
                    st.fixed_dictionaries({"bath": st.just("b"), "v_sb": symmetric_matrices(n)}),
                    min_size=1,
                    max_size=2,
                ),
            }
        )
    )
)


@PROPERTY_SETTINGS
@hypothesis.given(
    edits=st.lists(st.tuples(st.sampled_from(BATH_NUMBER_FIELDS), ANY_FLOAT), min_size=1, max_size=3)
)
def test_bath_json_numbers_load_finite_or_raise(bath_doc, edits):
    doc = json.loads(json.dumps(bath_doc))
    for path, value in edits:
        replace(doc, path, value)
    try:
        model = load_bath_model(io.StringIO(json.dumps(doc)))
    except ValidationError:
        return
    scalars = [model.t_max_fs, model.omega_max_cm1, model.tol, model.temperature.kelvin or 0.0]
    assert all(np.all(np.isfinite(a)) for a in (model.omegas, model.z, model.g, scalars))


@PROPERTY_SETTINGS
@hypothesis.given(omega_min=ANY_FLOAT, omega_max=ANY_FLOAT, temp_k=st.none() | ANY_FLOAT)
def test_eval_sd_flags_exit_cleanly(tmp_path_factory, exit_code, omega_min, omega_max, temp_k):
    work = tmp_path_factory.mktemp("eval_sd")
    sd, out = work / "debye.json", work / "sd.csv"
    sd.write_text(DEBYE_JSON)
    argv = [
        "eval-sd", "--sd", str(sd), f"--omega-min={omega_min!r}", f"--omega-max={omega_max!r}",
        "--n", "4", "--out", str(out),
    ]
    if temp_k is not None:
        argv.append(f"--temp-k={temp_k!r}")
    code = exit_code(argv)
    assert code in {0, 2, 3, 4, 5}
    if code == 0:
        rows = [l for l in out.read_text().splitlines() if l and not l.startswith("#")][1:]
        assert np.all(np.isfinite([[float(x) for x in r.split(",")] for r in rows]))


@PROPERTY_SETTINGS
@hypothesis.given(config=SD_CONFIGS)
def test_sd_config_numbers_build_finite_or_raise(config):
    text = json.dumps(config)
    try:
        sd = sd_from_config(json.loads(text))
    except ValidationError:
        return
    built = sd.to_config()
    values = [functools.reduce(operator.getitem, p, built) for p in number_paths(built)]
    assert values and all(isinstance(v, float) and math.isfinite(v) for v in values)
    # nothing was converted from a string or dropped on the way
    assert built == json.loads(text, parse_int=float)


@PROPERTY_SETTINGS
@hypothesis.given(doc=SYSTEM_DOCS)
def test_system_json_numbers_load_finite_or_raise(doc):
    try:
        system = system_from_dict(json.loads(json.dumps(doc)), pointer="")
    except ValidationError:
        return
    for matrix in (system.h_s, *(v for _, v in system.couplings)):
        assert matrix.shape == (system.dim, system.dim)
        assert np.all(np.isfinite(matrix.view(float)))


# tabulated point values: finite doubles as JSON gives them, the largest as an
# int among them, and what may stand in for one: a bool, a string, None, NaN
# and Infinity as json.loads returns them, and ints beyond the double range
LARGEST = int(sys.float_info.max)
POINT_VALUES = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0, -7, 2**70, LARGEST, -LARGEST]
)
BAD_POINT_VALUES = st.sampled_from(
    [True, False, "1.0", None, *json.loads("[NaN, Infinity, -Infinity]"), LARGEST + 1, 10**400]
)
TABLE_POINTS = st.lists(
    st.lists(POINT_VALUES, min_size=2, max_size=2)
    | st.lists(POINT_VALUES | BAD_POINT_VALUES, min_size=2, max_size=2)
    | st.lists(POINT_VALUES, max_size=3)  # lengths 0, 1 and 3 are bad points
    | POINT_VALUES
    | BAD_POINT_VALUES,  # a point that is not a list
    max_size=5,
)


def is_point(p) -> bool:
    return isinstance(p, list) and len(p) == 2 and all(
        type(v) in (int, float) and abs(v) <= sys.float_info.max for v in p
    )


@hypothesis.settings(PROPERTY_SETTINGS, max_examples=200)
@hypothesis.given(points=TABLE_POINTS)
@hypothesis.example(points=[[1.0, 2.0], 3.0])
@hypothesis.example(points=[[1.0, 2.0], [], [1.0]])
@hypothesis.example(points=[[1.0], [1.0, 2.0]])
@hypothesis.example(points=[[1.0, 2.0, 3.0]])
@hypothesis.example(points=[[1.0, True]])
@hypothesis.example(points=[["1.0", 2.0]])
@hypothesis.example(points=[[1.0, 2.0], [None, 2.0]])
@hypothesis.example(points=json.loads("[[1.0, 2.0], [3.0, NaN]]"))
@hypothesis.example(points=json.loads("[[Infinity, 2.0]]"))
@hypothesis.example(points=[[1.0, 2.0], [3.0, 10**400]])
@hypothesis.example(points=[[1.0, LARGEST + 1]])
def test_tabulated_points_the_bulk_check_rejects_name_their_first_bad_point(points):
    # _finite_pairs rejects a table only if it has a bad point, and the per-point
    # rule then names the first one
    if _finite_pairs(points) is not None:
        return
    first = next((i for i, p in enumerate(points) if not is_point(p)), None)
    assert first is not None, points
    with pytest.raises(ValidationError, match=re.escape(f"config: /points/{first}: expected")):
        sd_from_config({"kind": "tabulated", "points": points})
