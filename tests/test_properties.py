"""Property tests: random numbers in bath JSON and in eval-sd flags.

Loading must give finite values or raise ValidationError, and the CLI may
only exit with 0 or 2-5.
"""

import io
import json
import math

import numpy as np
import pytest

from bathkit.discretize import load_bath_model
from bathkit.errors import ValidationError

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


@PROPERTY_SETTINGS
@hypothesis.given(
    edits=st.lists(st.tuples(st.sampled_from(BATH_NUMBER_FIELDS), ANY_FLOAT), min_size=1, max_size=3)
)
def test_bath_json_numbers_load_finite_or_raise(bath_doc, edits):
    doc = json.loads(json.dumps(bath_doc))
    for path, value in edits:
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
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
