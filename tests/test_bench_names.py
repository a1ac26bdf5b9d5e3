"""The parameter names that bench/spans.py reads from the program.

The tracer reads a call's arguments by parameter name: select's model and
candidates (svm.decisions counts the candidates offered to select),
enumerate_candidates' image_id (heatmaps.candidates_annotated), train's ts
and tol (svm.coord_steps, svm.models_at_cap; a call that leaves tol out is
read at its default), sample_partitions' features and cfg
(dpmm.point_updates) and atomic_write's data (fileio.bytes_written). It
reads the first argument of every fileio.read_* and load_* function as the
path whose size is fileio.bytes_read. A rename would otherwise show only in
a traced benchmark run.
"""
import inspect

import pytest

from poseboot import fileio
from poseboot.dpmm import sample_partitions
from poseboot.heatmaps import enumerate_candidates
from poseboot.svm import select, train


@pytest.mark.parametrize(
    "fn, names",
    [
        (select, ("model", "candidates")),
        (enumerate_candidates, ("image_id",)),
        (train, ("ts", "tol")),
        (sample_partitions, ("features", "cfg")),
        (fileio.atomic_write, ("data",)),
    ],
)
def test_traced_parameters_keep_their_names(fn, names):
    params = inspect.signature(fn).parameters
    assert [n for n in names if n not in params] == []


def test_train_tol_has_a_float_default():
    assert isinstance(inspect.signature(train).parameters["tol"].default, float)


READERS = [name for name in fileio.__all__ if name.startswith(("read_", "load_"))]


def test_every_reader_is_found():
    assert READERS == ["read_pose_records", "read_pose_index", "read_heatmaps",
                       "load_svm_model", "load_config"]


@pytest.mark.parametrize("name", READERS)
def test_readers_take_the_path_first(name):
    first = next(iter(inspect.signature(getattr(fileio, name)).parameters))
    assert first == "path"
