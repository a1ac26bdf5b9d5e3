"""The parameter names that bench/spans.py reads from the program.

The tracer reads a call's arguments by parameter name: select's model and
candidates (svm.decisions counts the candidates offered to select) and
enumerate_candidates' image_id (heatmaps.candidates_annotated). A rename
would otherwise show only in a traced benchmark run.
"""
import inspect

import pytest

from poseboot.heatmaps import enumerate_candidates
from poseboot.svm import select


@pytest.mark.parametrize(
    "fn, names",
    [(select, ("model", "candidates")), (enumerate_candidates, ("image_id",))],
)
def test_traced_parameters_keep_their_names(fn, names):
    params = inspect.signature(fn).parameters
    assert [n for n in names if n not in params] == []
