"""Fuzzing the command line with extreme and ill-typed inputs.

Whatever ``simulate`` reads from its config and ``free-response`` from its
arguments, the command exits 0, 1 or 2 and prints no traceback; exit 2
writes nothing to ``--out``, and every ``simulate`` that exits 0 or 1
leaves a ``metrics.json`` that strict JSON parsing reads.  The values are
signed zeros, subnormals, magnitudes from 1e154 to 1e308, infinities and
NaN (JSON's ``Infinity`` and ``NaN`` tokens in a config), ordinary values
and values of the wrong type.  Every run takes 0.05 s steps.  The draws
are the same on every run.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from microinject import cli

FUZZ = settings(derandomize=True, max_examples=100, deadline=None,
                database=None)

QUINTIC = {
    "frame": {"alpha": 0.5235987755982988, "dx": 0.5, "dy": 0.5,
              "fx": 2.0, "fy": 4.0},
    "masses": {"mx": 1.0, "my": 1.0, "mp": 1.0},
    "impedance": {"m": 1.0, "b": 20.0, "k": 100.0},
    "trajectory": {"kind": "Quintic", "start": [0.0, 0.0], "end": [1.5, 0.5],
                   "duration": 3.0},
    "membrane": {"stiffness": 50.0, "damping": 2.0, "contact_x": 1.0},
    "fed": [0.5, 0.0],
    "run": {"t_end": 5.0, "dt": 0.05, "variants": [
        "StageConsistent", "Corrected", "SimPaper", "McPaper"]},
    "seed": 0,
}
SINUSOID = {**QUINTIC, "trajectory": {
    "kind": "Sinusoid", "start": [0.8, 0.0], "duration": 4.0,
    "amplitude": [0.4, 0.2], "frequency": 0.5}}

EDGE = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
    st.floats(5e-324, 2.2250738585072009e-308),
    st.floats(1e154, 1.7976931348623157e308),
).flatmap(lambda x: st.sampled_from([x, -x]))
# most fields must be positive
ORDINARY = st.one_of(st.floats(0.125, 4.0), st.floats(0.125, 4.0),
                     st.floats(-4.0, 4.0))
WRONG = st.one_of(
    st.sampled_from(["", "abc", "1e", True, None, [], {}, [1.0]]),
    # too large for a float
    st.integers(10 ** 308, 10 ** 309),
)


def _paths(node, path=()):
    """The path of every value of a config below ``path``, the pairs of
    numbers and their components included; ``run.variants`` counts as one
    value."""
    if isinstance(node, dict):
        return [p for key, value in node.items()
                for p in _paths(value, (*path, key))]
    if isinstance(node, list) and path[-1] != "variants":
        return [path, *((*path, i) for i in range(len(node)))]
    return [path]


def _edited(doc, edits):
    """``doc`` as JSON text with each ``(path, value)`` of ``edits`` put in
    place, the deepest path first: a replaced pair replaces the edits of
    its components."""
    doc = json.loads(json.dumps(doc))
    for (*keys, last), value in sorted(edits, key=lambda e: -len(e[0])):
        node = doc
        for key in keys:
            node = node[key]
        node[last] = value
    return json.dumps(doc)


def _values(name):
    """The values drawn for the field ``name``; an ordinary dt could take
    millions of steps."""
    if name in ("dt", "--dt"):
        return st.one_of(EDGE, WRONG)
    return st.one_of(ORDINARY, ORDINARY, EDGE, WRONG)


@st.composite
def configs(draw):
    """A config's text with one to three of its values replaced."""
    doc = draw(st.sampled_from([QUINTIC, SINUSOID]))
    paths = draw(st.lists(st.sampled_from(_paths(doc)), min_size=1,
                          max_size=3, unique=True))
    return _edited(doc, [(path, draw(_values(path[-1]))) for path in paths])


def _main(argv):
    """``cli.main(argv)``'s exit code, with argparse's exits as theirs, and
    what it printed to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def _refuse_constant(token):
    raise ValueError(f"not strict JSON: {token}")


@FUZZ
@given(configs())
@example(_edited(SINUSOID, [(("trajectory", "frequency"),
                             1.7976931348623157e308)]))
@example(_edited(SINUSOID, [(("trajectory", "frequency"), 1e307),
                            (("run", "t_end"), 2.0)]))
@example(_edited(QUINTIC, [(("trajectory", "duration"), 1e-170)]))
@example(_edited(QUINTIC, [(("masses", "mx"), 10 ** 309)]))
def test_simulate_exits_cleanly_on_any_config(config):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "scenario.json", Path(tmp) / "out"
        path.write_text(config)
        code, err = _main(["simulate", "--config", str(path), "--out",
                           str(out), "--svg"])
        assert code in (0, 1, 2), (code, err)
        assert "Traceback" not in err
        if code == 2:
            assert not out.exists(), err
        else:
            json.loads((out / "metrics.json").read_text(),
                       parse_constant=_refuse_constant)


FREE_ARGS = {"--mx": "1", "--my": "1", "--mp": "1", "--x0": "0", "--y0": "0",
             "--xd0": "1", "--yd0": "0", "--t-end": "0.5", "--dt": "0.05"}


@st.composite
def free_response_args(draw):
    """free-response's arguments with one to three of them replaced."""
    args = dict(FREE_ARGS)
    for name in draw(st.lists(st.sampled_from(sorted(args)), min_size=1,
                              max_size=3, unique=True)):
        value = draw(_values(name))
        args[name] = value if isinstance(value, str) else repr(value)
    return [token for item in args.items() for token in item]


@FUZZ
@given(free_response_args())
def test_free_response_exits_cleanly_on_any_arguments(args):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "free.csv"
        code, err = _main(["free-response", *args, "--out", str(out)])
        assert code in (0, 1, 2), (code, err)
        assert "Traceback" not in err
        if code == 2:
            assert not out.exists(), err
        elif code == 0:
            assert out.read_text().startswith("t,x_closed,")
