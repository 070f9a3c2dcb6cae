import re
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxsub import (
    CoxFit,
    CsvSchema,
    CsvError,
    CumulativeHazard,
    Subsample,
    SubsamplePlan,
    SurvivalDataset,
    breslow_cumhaz,
    fit_pilot,
    hessian,
    load_csv,
    neg_log_partial_likelihood,
    newton_solve,
    score,
    two_step,
    validate,
    write_csv,
)
from coxsub.breslow import RiskSetMean, pilot_breslow, score_residual_norms, score_residuals
from coxsub.data import _checked_dataset, _parse_cells, _parse_vectorised
from coxsub.partial_likelihood import _SortedRows

from conftest import random_dataset, sweep_order
from oracles import (
    oracle_csv_error,
    oracle_sorted_rows,
    oracle_violations,
    oracle_write_cumhaz_csv,
    oracle_write_dataset_csv,
    oracle_write_plan_csv,
)

# fixed example sequence and no example database: the same cases every run
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def test_sort_index_definition():
    # times (2,1,3) -> ascending order is rows (1,0,2)
    ds = SurvivalDataset(covariates=[[0.0], [1.0], [2.0]], time=[2.0, 1.0, 3.0], status=[1, 0, 1])
    assert sweep_order(ds).tolist() == [1, 0, 2]
    assert ds.sorted_view()[2][:, 0].tolist() == [1.0, 0.0, 2.0]


def test_sort_ties_events_first_then_original_order():
    time = [1.0, 1.0, 1.0, 0.5]
    status = [0, 1, 0, 1]
    ds = SurvivalDataset(covariates=np.arange(4.0)[:, None], time=time, status=status)
    assert sweep_order(ds).tolist() == [3, 1, 0, 2]
    assert ds.sorted_view()[2][:, 0].tolist() == [3.0, 1.0, 0.0, 2.0]


def test_sort_is_deterministic():
    rng = np.random.default_rng(1)
    ds1 = random_dataset(rng, ties=True)
    ds2 = SurvivalDataset(covariates=ds1.covariates, time=ds1.time, status=ds1.status)
    assert np.array_equal(sweep_order(ds1), sweep_order(ds2))


def test_structural_errors():
    with pytest.raises(ValueError, match="length mismatch"):
        SurvivalDataset(covariates=np.zeros((3, 1)), time=[1.0, 2.0], status=[1, 0])
    with pytest.raises(ValueError, match="2-D"):
        SurvivalDataset(covariates=np.zeros((2, 2, 2)), time=[1.0, 2.0], status=[1, 0])
    with pytest.raises(ValueError, match="at least one record"):
        SurvivalDataset(covariates=np.zeros((0, 2)), time=[], status=[])


def test_construction_does_not_freeze_caller_arrays():
    t = np.array([1.0, 2.0])
    X = np.asfortranarray(np.array([[1.0], [2.0]]))
    SurvivalDataset(covariates=X, time=t, status=np.array([1, 1]))
    t[0] = 5.0  # caller arrays stay writable
    X[0, 0] = 5.0


def test_dataset_adopts_read_only_columns_of_its_layout():
    X = np.asfortranarray(np.arange(6.0).reshape(3, 2))
    t = np.array([1.0, 2.0, 3.0])
    s = np.array([1, 0, 1], dtype=np.int8)
    for a in (X, t, s):
        a.setflags(write=False)
    ds = SurvivalDataset(covariates=X, time=t, status=s)
    assert ds.covariates is X and ds.time is t and ds.status is s
    # read-only too, but in another layout or dtype: copied into the dataset's own
    C, wide = np.ascontiguousarray(X), s.astype(np.int64)
    for a in (C, wide):
        a.setflags(write=False)
    ds = SurvivalDataset(covariates=C, time=t, status=wide)
    assert ds.covariates.flags.f_contiguous and np.array_equal(ds.covariates, X)
    assert ds.status.dtype == np.int8 and np.array_equal(ds.status, s)


# every frozen container, built from keyword arrays given in the dtype and
# layout it stores them in
_CONTAINERS = {
    "dataset": (
        SurvivalDataset,
        dict(
            covariates=np.asfortranarray([[0.5, 1.0], [1.5, -1.0]]),
            time=np.array([1.0, 2.0]),
            status=np.array([1, 0], dtype=np.int8),
        ),
    ),
    "plan": (lambda **a: SubsamplePlan(delta=0.0, **a), dict(probs=np.array([0.25, 0.75]))),
    "subsample": (Subsample, dict(indices=np.array([0, 1], dtype=np.intp), weights=np.array([1.0, 2.0]))),
    "hazard": (CumulativeHazard, dict(jump_times=np.array([1.0, 2.0]), jumps=np.array([0.1, 0.2]))),
    "fit": (
        lambda **a: CoxFit(role="full_mpl", converged=True, iterations=0, final_score_norm=0.0, neg_logpl=0.0, **a),
        dict(
            beta=np.array([0.5, -0.5]),
            hessian=np.array([[2.0, 0.5], [0.5, 1.0]]),
            moments=np.array([[3.0, 0.0], [0.0, 2.0]]),
        ),
    ),
}


@pytest.mark.parametrize("kind", sorted(_CONTAINERS))
def test_containers_keep_read_only_inputs_and_copy_the_rest(kind):
    build, inputs = _CONTAINERS[kind]

    def copies(read_only):
        out = {name: a.copy(order="K") for name, a in inputs.items()}
        for a in out.values():
            a.setflags(write=not read_only)
        return out

    def unchanged_by(made, writes):
        for a in writes:
            a += 1
        return all(np.array_equal(getattr(made, name), a) for name, a in inputs.items())

    # later writes to writable inputs never reach the container
    writable = copies(read_only=False)
    made = build(**writable)
    assert unchanged_by(made, writable.values())
    # every stored array is read-only, derived ones (the hazard's cumulative) too
    stored = [v for v in vars(made).values() if isinstance(v, np.ndarray)]
    assert len(stored) >= len(inputs) and not any(a.flags.writeable for a in stored)
    # a read-only array that owns its data, of the stored dtype and layout, is kept as it is
    frozen = copies(read_only=True)
    made = build(**frozen)
    assert all(getattr(made, name) is a for name, a in frozen.items())
    # a read-only view of a writable buffer is copied
    buffers = copies(read_only=False)
    views = {name: buf[...] for name, buf in buffers.items()}
    for view in views.values():
        view.setflags(write=False)
    made = build(**views)
    assert not any(getattr(made, name) is view for name, view in views.items())
    assert unchanged_by(made, buffers.values())


# ---- one copy of the records: in record order until the first sweep, in sweep order after


def record_arrays(rng, n, p, ties=False):
    """(covariates, time, status) in record order, not sorted by time; at least one event."""
    X = rng.normal(0.0, 0.6, size=(n, p))
    time = rng.exponential(1.0, n)
    if ties:
        time = np.round(time, 1)
    status = (rng.random(n) < 0.7).astype(np.int64)
    status[0] = 1
    return X, time, status


def test_dataset_holds_one_copy_of_its_records():
    n, p = 10_000, 5
    X, time, status = record_arrays(np.random.default_rng(21), n, p)
    ds = SurvivalDataset(covariates=X, time=time, status=status)
    assert ds.sorted_view() and ds._rank is not None
    ds.covariates, ds.time, ds.status  # reads cache nothing
    newton_solve(ds)
    records = n * (8 * p + 8 + 1)  # float64 covariates and time, int8 status
    permutations = n * 4  # the int32 rank
    assert sum(a.nbytes for a in held_arrays(ds)) <= records + permutations


def held_arrays(ds):
    """The arrays a dataset holds, directly or in a tuple."""
    return [a for v in vars(ds).values() for a in (v if isinstance(v, tuple) else (v,)) if isinstance(a, np.ndarray)]


def test_records_in_sweep_order_hold_no_permutation():
    n, p = 10_000, 3
    X, time, status = record_arrays(np.random.default_rng(28), n, p, ties=True)
    order = np.lexsort((status != 1, time))
    ds = SurvivalDataset(covariates=X[order], time=time[order], status=status[order])
    newton_solve(ds)
    two_step(ds, 200, 500, 0.1, "lopt", np.random.default_rng(29))
    records = {id(a) for a in ds._records}  # the int8 status among them
    assert not [a.dtype for a in held_arrays(ds) if a.size == n and a.dtype.kind in "iu" and id(a) not in records]
    assert ds._swept


@pytest.mark.parametrize("in_sweep_order", [False, True])
def test_record_order_reads_equal_the_inputs(in_sweep_order):
    X, time, status = record_arrays(np.random.default_rng(22), 50, 3, ties=True)
    if in_sweep_order:
        order = np.lexsort((status != 1, time))
        X, time, status = X[order], time[order], status[order]
    ds = SurvivalDataset(covariates=X, time=time, status=status)
    for swept in (False, True):
        if swept:
            assert ds.sorted_view() and (ds._rank is None) == in_sweep_order
        for name, given in (("covariates", X), ("time", time), ("status", status)):
            first, second = getattr(ds, name), getattr(ds, name)
            assert np.array_equal(first, given) and np.array_equal(second, given)
            assert not first.flags.writeable
            # the stored array until a sort permutes it, then a gather per read
            assert (first is second) == (not swept or in_sweep_order)
        assert ds.covariates.flags.f_contiguous and ds.status.dtype == np.int8


def test_uniform_two_step_never_sorts_the_records():
    X, time, status = record_arrays(np.random.default_rng(24), 2_000, 2)
    ds = SurvivalDataset(covariates=X, time=time, status=status)
    res = two_step(ds, 200, 300, 0.1, "unif", np.random.default_rng(25))
    assert not ds._swept and ds.time is ds.time
    # the same estimate from a dataset swept first
    swept = SurvivalDataset(covariates=X, time=time, status=status)
    swept.sorted_view()
    again = two_step(swept, 200, 300, 0.1, "unif", np.random.default_rng(25))
    assert res.fit.beta.tobytes() == again.fit.beta.tobytes()
    assert res.covariance.standard_errors.tobytes() == again.covariance.standard_errors.tobytes()


# ---- the sort permutes the columns the dataset owns in place, and gathers the rest


def frozen_copy(a):
    """A read-only array that owns its data, which the dataset keeps as given."""
    out = np.array(a)
    out.setflags(write=False)
    return out


@st.composite
def dataset_inputs(draw):
    """(covariates, time, status) in record order, and per column whether it is given frozen (kept) or writable (copied)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X, time, status = record_arrays(rng, draw(st.integers(1, 40)), draw(st.integers(1, 3)), ties=draw(st.booleans()))
    if draw(st.booleans()):  # already in sweep order: the sort keeps the records as they are
        order = np.lexsort((status != 1, time))
        X, time, status = X[order], time[order], status[order]
    arrays = (time, status.astype(np.int8), np.asfortranarray(X))
    kept = draw(st.tuples(st.booleans(), st.booleans(), st.booleans()))
    time, status, X = (frozen_copy(a) if k else a.copy() for a, k in zip(arrays, kept))
    return X, time, status, kept


@PROPERTY
@given(inputs=dataset_inputs(), read=st.tuples(st.booleans(), st.booleans(), st.booleans()))
def test_a_read_taken_before_the_first_sweep_is_unchanged_after_it(inputs, read):
    X, time, status, kept = inputs
    ds = SurvivalDataset(covariates=X, time=time, status=status)
    names = ("time", "status", "covariates")
    early = {name: getattr(ds, name) for name, r in zip(names, read) if r}
    saved = {name: a.copy() for name, a in early.items()}
    stored = ds._records
    ds.sorted_view()
    for name, a in early.items():
        assert a.tobytes() == saved[name].tobytes() and np.array_equal(getattr(ds, name), a)
    # a column neither kept nor handed out is permuted in its own storage
    permuted = ds._rank is not None
    for k, (before, after) in enumerate(zip(stored, ds._records)):
        assert (after is before) == (not permuted or (not kept[k] and not read[k])), (k, kept, read)
        assert not after.flags.writeable


@PROPERTY
@given(inputs=dataset_inputs())
def test_a_kept_caller_array_is_never_written(inputs):
    X, time, status, kept = inputs
    given_arrays = [a for a, k in zip((time, status, X), kept) if k]
    saved = [a.copy() for a in given_arrays]
    ds = SurvivalDataset(covariates=X, time=time, status=status)
    beta = np.full(ds.p, 0.1)
    neg_log_partial_likelihood(ds, beta), score(ds, beta), hessian(ds, beta)
    ds.records_at(np.arange(ds.n)), ds.covariates, ds.time, ds.status
    for a, b in zip(given_arrays, saved):
        assert not a.flags.writeable and a.tobytes() == b.tobytes()


def test_sorting_an_owned_dataset_holds_one_extra_column():
    # tracemalloc peak of the sort above the dataset, in n-length float64
    # arrays: 1.5 for lexsort's int64 order beside its int32 narrowing, and
    # for the int32 order beside one scratch column; gathering the columns
    # instead holds a second copy of the records (6.7 at p = 5)
    import tracemalloc

    n, p = 100_000, 5
    ds = SurvivalDataset(*record_arrays(np.random.default_rng(23), n, p))
    stored = ds._records
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ds.sorted_view()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert ds._rank is not None and all(a is b for a, b in zip(ds._records, stored))
    assert peak < 1.75 * 8 * n, f"peak {peak / (8 * n):.2f} n-length arrays"


def test_a_record_order_gather_owns_its_data():
    # so a plan built over gathered norms keeps them as they are, without a copy
    ds = SurvivalDataset(*record_arrays(np.random.default_rng(27), 50, 2))
    assert ds.sorted_view() and ds._rank is not None
    for values in (np.full(50, 1 / 50), np.ones(50, dtype=np.int8), np.ones((50, 2), order="F")):
        out = ds.to_record_order(values)
        assert out.flags.owndata and out.shape == values.shape and out.dtype == values.dtype
    probs = ds.to_record_order(np.full(50, 1 / 50))
    probs.setflags(write=False)
    assert SubsamplePlan(probs=probs, delta=0.1).probs is probs


def test_a_pickled_dataset_keeps_its_records():
    import pickle

    ds = SurvivalDataset(*record_arrays(np.random.default_rng(26), 30, 2))
    for swept in (False, True):
        if swept:
            ds.sorted_view()
        copy = pickle.loads(pickle.dumps(ds))
        for name in ("covariates", "time", "status"):
            assert getattr(copy, name).tobytes() == getattr(ds, name).tobytes()
        assert copy._swept == swept and np.array_equal(sweep_order(copy), sweep_order(ds))


# (field, value) of each kind of broken value, -inf time included
STORED_FAULTS = {
    "nan_time": ("time", np.nan),
    "inf_time": ("time", np.inf),
    "minus_inf_time": ("time", -np.inf),
    "negative_time": ("time", -0.5),
    "status_2": ("status", 2),
    "status_257": ("status", 257),
    "status_negative": ("status", -1),
    "nan_covariate": ("covariates", np.nan),
    "inf_covariate": ("covariates", np.inf),
    "minus_inf_covariate": ("covariates", -np.inf),
}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    faults=st.lists(
        st.tuples(st.sampled_from(sorted(STORED_FAULTS)), st.integers(0, 19), st.integers(0, 1)), max_size=4
    ),
    seed=st.integers(0, 2**16),
    ties=st.booleans(),
    swept=st.booleans(),
)
def test_shuffled_broken_datasets_name_record_rows(faults, seed, ties, swept):
    X, time, status = record_arrays(np.random.default_rng(seed), 20, 2, ties)
    for kind, row, column in faults:
        field, value = STORED_FAULTS[kind]
        if field == "covariates":
            X[row, column] = value
        elif field == "time":
            time[row] = value
        else:
            status[row] = value
    ds = SurvivalDataset(covariates=X, time=time, status=status)
    if swept:  # judged in sweep order; else in record order
        ds.sorted_view()
    expected = oracle_violations(time, status, X)
    assert [(v.code, v.message, v.row, v.column) for v in validate(ds)] == expected
    value_faults = [v for v in expected if v[0] != "no_events"]
    if value_faults:
        with pytest.raises(ValueError) as err:
            ds.check_values()
        assert str(err.value) == f"invalid dataset: {value_faults[0][1]}"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        write_csv(ds, path)
        want = oracle_csv_error(time, status, X, ["x1", "x2"])
        if want is None:
            loaded = load_csv(path)
            for a, b in zip(loaded.sorted_view(), ds.sorted_view()):
                assert a.tobytes() == b.tobytes()
        else:
            with pytest.raises(CsvError) as err:
                load_csv(path)
            assert (str(err.value), err.value.row) == want


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 30),
    p=st.integers(1, 3),
    ties=st.booleans(),
    m=st.integers(1, 40),
    kind=st.sampled_from(["multiset", "weighted multiset", "weighted full data"]),
    swept=st.booleans(),
)
def test_subset_rows_equal_the_record_order_construction(seed, n, p, ties, m, kind, swept):
    rng = np.random.default_rng(seed)
    X, time, status = record_arrays(rng, n, p, ties)
    ds = SurvivalDataset(covariates=X, time=time, status=status)
    if swept:  # subsets read the sweep-order rows; else the record-order ones
        ds.sorted_view()
    full = kind == "weighted full data"
    subset = np.arange(n) if full else rng.integers(0, n, m)  # a multiset: indices repeat
    w = rng.uniform(0.5, 2.0, subset.size) if kind.startswith("weighted") else None
    rows = _SortedRows.of_dataset(ds, w, None if full else subset)
    t, s, X_s, w_s = oracle_sorted_rows(time, status.astype(np.int8), X, subset, w)
    assert rows.time.tobytes() == t.tobytes() and rows.status.tobytes() == s.tobytes()
    assert rows.X.flags.f_contiguous and rows.X.tobytes() == X_s.tobytes()
    assert np.all(rows.w == 1.0) if w is None else rows.w.tobytes() == w_s.tobytes()
    assert rows.n_ref == (subset.size if w is None else n)


def test_load_csv_duplicate_header_rejected(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("time,status,x1,x1\n1.0,1,0.0,0.0\n")
    with pytest.raises(CsvError, match="duplicate"):
        load_csv(path)


def test_validate_no_events():
    ds = SurvivalDataset(covariates=np.ones((3, 1)), time=[1.0, 2.0, 3.0], status=[0, 0, 0])
    codes = [v.code for v in validate(ds)]
    assert codes == ["no_events"]


def test_validate_clean_dataset():
    ds = random_dataset(np.random.default_rng(2))
    assert validate(ds) == []


def test_validate_locates_nan_covariate():
    X = np.ones((6, 3))
    X[4, 1] = np.nan
    ds = SurvivalDataset(covariates=X, time=np.arange(1.0, 7.0), status=[1, 0, 1, 0, 1, 0])
    vs = [v for v in validate(ds) if v.code == "nonfinite_covariate"]
    assert len(vs) == 1 and (vs[0].row, vs[0].column) == (4, 1)


def test_validate_flags_bad_status_and_negative_time():
    ds = SurvivalDataset(covariates=np.ones((3, 1)), time=[1.0, -2.0, 3.0], status=[1, 0, 2])
    codes = {v.code for v in validate(ds)}
    assert {"negative_time", "bad_status"} <= codes


def test_zero_times_accepted():
    ds = SurvivalDataset(covariates=np.ones((2, 1)), time=[0.0, 1.0], status=[1, 1])
    assert validate(ds) == []


def test_load_csv_basic(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("time,status,x1\n2.0,1,0.5\n1.0,0,-0.25\n3.0,1,0.125\n")
    ds = load_csv(path)
    assert ds.n == 3 and ds.p == 1
    assert sweep_order(ds).tolist() == [1, 0, 2]
    assert ds.covariates[:, 0].tolist() == [0.5, -0.25, 0.125]


def test_load_csv_bad_status_names_row(tmp_path):
    rows = ["1.0,1,0.0"] * 10
    rows[6] = "1.0,2,0.0"  # data row 7
    path = tmp_path / "d.csv"
    path.write_text("time,status,x1\n" + "\n".join(rows) + "\n")
    with pytest.raises(CsvError, match=r"^row 7: status must be 0 or 1, got 2\.0$") as err:
        load_csv(path)
    assert err.value.row == 7


def test_load_csv_non_numeric_cell_names_row(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("time,status,x1\n1.0,1,0.0\n1.5,0,abc\n")
    with pytest.raises(CsvError, match="row 2"):
        load_csv(path)


def test_load_csv_negative_time(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("time,status,x1\n-1.0,1,0.0\n")
    with pytest.raises(CsvError, match=r"^row 1: time must be a finite nonnegative number, got -1\.0$"):
        load_csv(path)


def test_load_csv_missing_column(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("t,status,x1\n1.0,1,0.0\n")
    with pytest.raises(CsvError, match="'time' not found"):
        load_csv(path)


def test_load_csv_nan_covariate_rejected(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("time,status,x1\n1.0,1,nan\n")
    with pytest.raises(CsvError, match="not finite"):
        load_csv(path)


def test_load_csv_custom_schema_and_delimiter(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("age;followup;died;weight\n3.5;2.0;1;0.5\n")
    schema = CsvSchema(
        time_column="followup",
        status_column="died",
        covariate_columns=("age", "weight"),
        delimiter=";",
    )
    ds = load_csv(path, schema)
    assert ds.covariates.tolist() == [[3.5, 0.5]]


def test_load_csv_headerless(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("1.0,1,0.5\n2.0,0,0.25\n")
    schema = CsvSchema(time_column="0", status_column="1", covariate_columns=("2",), has_header=False)
    ds = load_csv(path, schema)
    assert ds.n == 2 and ds.time.tolist() == [1.0, 2.0]


def test_schema_validation():
    with pytest.raises(ValueError, match="distinct"):
        CsvSchema(time_column="a", status_column="a", covariate_columns=("b",))
    with pytest.raises(ValueError, match="non-empty"):
        CsvSchema(covariate_columns=())
    with pytest.raises(ValueError, match="single character"):
        CsvSchema(delimiter=",,")


@pytest.mark.parametrize("seed", range(8))
def test_round_trip_is_bitwise_identity(tmp_path, seed):
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng, n=int(rng.integers(3, 60)), p=int(rng.integers(1, 5)), ties=bool(seed % 2))
    path = tmp_path / "rt.csv"
    write_csv(ds, path)
    back = load_csv(path)
    assert np.array_equal(back.time, ds.time)
    assert np.array_equal(back.status, ds.status)
    assert np.array_equal(back.covariates, ds.covariates)


def test_dataset_is_immutable(case1_ds):
    with pytest.raises(ValueError):
        case1_ds.time[0] = -1.0
    with pytest.raises(ValueError):
        case1_ds.covariates[0, 0] = 5.0


# ---- layout of the sorted view


@pytest.mark.parametrize("seed", range(4))
def test_sorted_view_is_a_frozen_column_major_gather(seed):
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng, n=int(rng.integers(1, 50)), p=int(rng.integers(1, 5)), ties=bool(seed % 2))
    time_s, status_s, X_s = ds.sorted_view()
    assert X_s.flags.f_contiguous and X_s.shape == (ds.n, ds.p)
    order = sweep_order(ds)
    assert np.array_equal(X_s, ds.covariates[order])
    assert np.array_equal(time_s, ds.time[order])
    assert np.array_equal(status_s, ds.status[order])
    for arr in (time_s, status_s, X_s):
        assert not arr.flags.writeable
    assert ds.sorted_view()[2] is X_s  # cached
    # a block of sorted rows, transposed, is a view with contiguous rows
    block = X_s[1:].T
    assert np.shares_memory(block, X_s) and block.strides[1] == X_s.itemsize


# ---- the sort rank


@pytest.mark.parametrize("seed", range(4))
def test_sort_rank_inverts_sort_index(seed):
    X, time, status = record_arrays(np.random.default_rng(seed), 40, 2, ties=bool(seed % 2))
    time[0] = time.max() + 1.0  # record 0 is last in sweep order, so the sort permutes the records
    ds = SurvivalDataset(covariates=X, time=time, status=status)
    time_s = ds.sorted_view()[0]
    rank = ds._rank
    assert np.array_equal(rank[np.lexsort((status != 1, time))], np.arange(ds.n))
    assert np.array_equal(time_s[rank], time)
    assert rank.dtype == np.int32 and not rank.flags.writeable
    assert ds.sorted_view()[0] is time_s and ds._rank is rank  # sorted once


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), in_sweep_order=st.booleans())
def test_the_sort_builds_the_rank_exactly_when_it_permutes_the_records(seed, n, in_sweep_order):
    X, time, status = record_arrays(np.random.default_rng(seed), n, 2, ties=True)
    order = np.lexsort((status != 1, time))
    if in_sweep_order:
        X, time, status, order = X[order], time[order], status[order], np.arange(n)
    ds = SurvivalDataset(covariates=X, time=time, status=status)
    assert not ds._swept and ds._rank is None
    ds.sorted_view()
    permutes = not np.array_equal(order, np.arange(n))
    assert ds._swept and (ds._rank is not None) == permutes
    if permutes:
        assert np.array_equal(ds._rank[order], np.arange(n))


@pytest.mark.parametrize("criterion", ["lopt", "aopt"])
def test_records_in_sweep_order_need_no_rank(criterion):
    X, time, status = record_arrays(np.random.default_rng(26), 3_000, 2, ties=True)
    order = np.lexsort((status != 1, time))
    X, time, status = X[order], time[order], status[order]
    ds = SurvivalDataset(covariates=X, time=time, status=status)
    res = two_step(ds, 200, 400, 0.1, criterion, np.random.default_rng(27))
    assert ds._swept and ds._rank is None
    # the same run with every record-order read gathered through an identity rank
    gathered = SurvivalDataset(covariates=X, time=time, status=status)
    gathered.sorted_view()
    object.__setattr__(gathered, "_rank", np.arange(ds.n, dtype=np.int32))
    again = two_step(gathered, 200, 400, 0.1, criterion, np.random.default_rng(27))
    assert res.plan.probs.tobytes() == again.plan.probs.tobytes()
    assert np.array_equal(res.subsample.indices, again.subsample.indices)
    assert res.fit.beta.tobytes() == again.fit.beta.tobytes()


def test_sweep_rows_are_left_unbuilt_by_a_two_step():
    ds = random_dataset(np.random.default_rng(6), n=400, p=2, ties=True)
    for criterion in ("lopt", "aopt", "unif"):
        two_step(ds, 60, 120, 0.1, criterion, np.random.default_rng(1))
    assert not hasattr(ds, "_sweep_rows")  # a two-step sweeps subsets only
    newton_solve(ds)
    assert ds._sweep_rows is _SortedRows.of_dataset(ds)


# ---- reading records by index, and stored-order values back in record order


DATASET_KINDS = ["unswept", "swept and permuted", "swept in sweep order"]


def dataset_of_kind(rng, kind, n, p):
    """A dataset of n records with ties: never sorted, or sorted, whether that permuted them or not."""
    X, time, status = record_arrays(rng, n, p, ties=True)
    time[0] = time.max() + 1.0  # record 0 is last in sweep order, so the sort permutes the records
    if kind == "swept in sweep order":
        order = np.lexsort((status != 1, time))
        X, time, status = X[order], time[order], status[order]
    ds = SurvivalDataset(covariates=X, time=time, status=status)
    if kind != "unswept":
        ds.sorted_view()
        assert (ds._rank is None) == (kind == "swept in sweep order")
    return ds


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 40),
    p=st.integers(1, 3),
    m=st.integers(1, 60),
    kind=st.sampled_from(DATASET_KINDS),
)
def test_record_accessors_read_in_record_order(seed, n, p, m, kind):
    rng = np.random.default_rng(seed)
    ds = dataset_of_kind(rng, kind, n, p)
    idx = rng.integers(0, n, m)  # a multiset: indices repeat
    time, status, X = ds.records_at(idx)
    assert time.tobytes() == ds.time[idx].tobytes()
    assert status.dtype == np.int8 and status.tobytes() == ds.status[idx].tobytes()
    assert X.flags.c_contiguous and X.tobytes() == ds.covariates[idx].tobytes()
    for v in (rng.normal(size=n), rng.integers(-128, 128, n).astype(np.int8), rng.normal(size=(n, p))):
        got = ds.to_record_order(v)
        assert (got is v) == (kind != "swept and permuted")
        if kind == "swept and permuted":
            assert got.flags.f_contiguous
        if kind != "unswept":
            want = v[np.argsort(np.lexsort((ds.status != 1, ds.time)))]
            assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()
    # neither reading by index nor putting values back sorts the records
    assert ds._swept == (kind != "unswept")


def covariate_layouts(X):
    """``X`` as a C-order, an F-order, a column-strided and a row-strided array."""
    n, p = X.shape
    wide = np.zeros((n, 2 * p))
    wide[:, ::2] = X
    tall = np.zeros((2 * n, p))
    tall[::2] = X
    return {
        "C": np.ascontiguousarray(X),
        "F": np.asfortranarray(X),
        "column-strided": wide[:, ::2],
        "row-strided": tall[::2],
    }


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40), p=st.integers(1, 4), ties=st.booleans())
def test_estimators_agree_across_covariate_layouts(seed, n, p, ties):
    rng = np.random.default_rng(seed)
    base = random_dataset(rng, n=n, p=p, ties=ties)
    beta = rng.normal(0.0, 0.5, p)
    idx = np.concatenate(([rng.choice(np.flatnonzero(base.status == 1))], rng.integers(0, n, 5)))
    M = rng.normal(size=(p, p))
    metric = M @ M.T + np.eye(p)

    def estimates(ds):
        xbar = RiskSetMean.build(ds.time[idx], np.ascontiguousarray(ds.covariates[idx]), beta)
        cumhaz = pilot_breslow(ds, idx, beta)
        return [
            np.atleast_1d(neg_log_partial_likelihood(ds, beta)),
            score(ds, beta),
            hessian(ds, beta).ravel(),
            score_residual_norms(ds, xbar, cumhaz, beta),
            score_residual_norms(ds, xbar, cumhaz, beta, metric),
        ]

    layouts = covariate_layouts(base.covariates)
    assert not layouts["column-strided"].flags.c_contiguous and not layouts["row-strided"].flags.f_contiguous
    ref = estimates(SurvivalDataset(covariates=layouts.pop("C"), time=base.time, status=base.status))
    for X in layouts.values():
        got = estimates(SurvivalDataset(covariates=X, time=base.time, status=base.status))
        for a, b in zip(got, ref):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=0.0)


# ---- input contract on the library path


BAD_SUBSETS = {
    "negative": (np.array([0, -1]), "subset indices out of range"),
    "out of range": (np.array([0, 60]), "subset indices out of range"),
    "boolean": (np.ones(60, dtype=bool), "subset must be a non-empty 1-D integer index array"),
}


@pytest.mark.parametrize("kind", sorted(BAD_SUBSETS))
def test_subset_reads_reject_bad_indices_before_any_sweep(kind):
    bad, message = BAD_SUBSETS[kind]
    X, time, status = record_arrays(np.random.default_rng(29), 60, 2)
    idx, beta = np.flatnonzero(status == 1)[:5], np.zeros(2)
    xbar = RiskSetMean.build(time[idx], X[idx], beta)
    cumhaz = pilot_breslow(SurvivalDataset(covariates=X, time=time, status=status), idx, beta)
    ds = SurvivalDataset(covariates=X, time=time, status=status)
    with pytest.raises(ValueError, match=re.escape(message)):
        score_residuals(ds, xbar, cumhaz, beta, subset=bad)
    # fit_pilot reads only the indices; a Subsample would refuse a boolean array itself
    with pytest.raises(ValueError, match=re.escape(message)):
        fit_pilot(ds, types.SimpleNamespace(indices=bad))
    assert not ds._swept and "_sweep_rows" not in vars(ds)


BROKEN_VALUES = {
    "nonfinite_time": ("time", 3, np.nan, "time at row 3 is not finite"),
    "negative_time": ("time", 5, -1.0, "time at row 5 is negative"),
    "bad_status": ("status", 2, 2, "status at row 2 is 2, expected 0 or 1"),
    "nonfinite_covariate": ("covariates", 4, np.nan, r"covariate \(4,1\) is not finite"),
}


def broken_dataset(field, row, value):
    ds = random_dataset(np.random.default_rng(11), n=60, p=2)
    arrays = {"time": ds.time.copy(), "status": ds.status.astype(np.int64), "covariates": ds.covariates.copy()}
    if field == "covariates":
        arrays[field][row, 1] = value
    else:
        arrays[field][row] = value
    return SurvivalDataset(**arrays)  # construction stays tolerant


@pytest.mark.parametrize("code", sorted(BROKEN_VALUES))
def test_estimators_reject_broken_values(code):
    field, row, value, message = BROKEN_VALUES[code]
    ds = broken_dataset(field, row, value)
    assert code in {v.code for v in validate(ds)}
    for _ in range(2):  # the cached verdict raises again
        with pytest.raises(ValueError, match=f"invalid dataset: {message}"):
            newton_solve(ds)
    with pytest.raises(ValueError, match=message):
        newton_solve(ds, subset=np.arange(10))
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=message):
        two_step(ds, 20, 30, 0.1, "lopt", rng)
    assert rng.bit_generator.state == state  # rejected before the pilot draw


def _hazard_and_residual_calls():
    clean = random_dataset(np.random.default_rng(11), n=60, p=2)
    beta = np.array([0.3, -0.2])
    xbar = RiskSetMean.build(clean.time, np.ascontiguousarray(clean.covariates), beta)
    cumhaz = breslow_cumhaz(clean, beta)
    return {
        "breslow_cumhaz": lambda ds: breslow_cumhaz(ds, beta),
        "pilot_breslow": lambda ds: pilot_breslow(ds, np.arange(10), beta),
        "score_residuals": lambda ds: score_residuals(ds, xbar, cumhaz, beta),
        "score_residual_norms": lambda ds: score_residual_norms(ds, xbar, cumhaz, beta),
    }


@pytest.mark.parametrize(
    "entry", ["breslow_cumhaz", "pilot_breslow", "score_residuals", "score_residual_norms"]
)
@pytest.mark.parametrize("code", sorted(BROKEN_VALUES))
def test_hazard_and_residuals_reject_broken_values(entry, code):
    field, row, value, message = BROKEN_VALUES[code]
    call = _hazard_and_residual_calls()[entry]
    with pytest.raises(ValueError, match=f"invalid dataset: {message}"):
        call(broken_dataset(field, row, value))


def test_cumulative_hazard_rejects_nonfinite_jump_times():
    with pytest.raises(ValueError, match="finite and strictly increasing"):
        CumulativeHazard(jump_times=[1.0, np.nan, 3.0], jumps=[0.1, 0.2, 0.3])
    with pytest.raises(ValueError, match="finite and strictly increasing"):
        CumulativeHazard(jump_times=[1.0, np.inf], jumps=[0.1, 0.2])


def test_check_values_names_first_violation_in_validate_order():
    ds = SurvivalDataset(covariates=[[np.nan], [1.0], [1.0]], time=[1.0, -2.0, 3.0], status=[1, 0, 2])
    first = validate(ds)[0]
    assert first.code == "negative_time"
    with pytest.raises(ValueError) as err:
        ds.check_values()
    assert str(err.value) == f"invalid dataset: {first.message}"


def test_check_values_passes_clean_dataset():
    ds = random_dataset(np.random.default_rng(12))
    ds.check_values()
    ds.check_values()


def test_validate_flags_broken_sort_index():
    for bad in ([0, 0, 2], [0, 1, 3], [-1, 1, 2], [2, 1]):
        ds = SurvivalDataset(covariates=np.ones((3, 1)), time=[2.0, 1.0, 3.0], status=[1, 0, 1])
        assert ds.sorted_view() and validate(ds) == []
        object.__setattr__(ds, "_rank", np.array(bad, dtype=np.int32))
        assert [v.code for v in validate(ds)] == ["bad_sort_index"]
    # stored records out of time order, with or without a rank
    for time in ([2.0, 1.0, 3.0], [1.0, 2.0, 3.0]):
        ds = SurvivalDataset(covariates=np.ones((3, 1)), time=time, status=[1, 0, 1])
        ds.sorted_view()
        object.__setattr__(ds, "_time", ds._time[::-1])
        assert [v.code for v in validate(ds)] == ["bad_sort_index"]


def test_validate_leaves_an_unswept_dataset_unsorted():
    X, time, status = record_arrays(np.random.default_rng(30), 50, 2)
    ds = SurvivalDataset(covariates=X, time=time, status=status)
    assert validate(ds) == []
    assert not ds._swept and ds.time is ds.time


@pytest.mark.parametrize("dtype", [np.int64, np.float64])
@pytest.mark.parametrize("value", [256, 257, -255])
def test_array_status_beyond_int8_is_rejected_not_wrapped(value, dtype):
    clean = random_dataset(np.random.default_rng(11), n=60, p=2)
    status = clean.status.astype(dtype)
    status[2] = value
    ds = SurvivalDataset(covariates=clean.covariates, time=clean.time, status=status)
    assert ds.status[2] == value
    first = validate(ds)[0]
    assert (first.code, first.row) == ("bad_status", 2)
    assert first.message == f"status at row 2 is {dtype(value).item()!r}, expected 0 or 1"
    with pytest.raises(ValueError, match="invalid dataset: status at row 2 is"):
        newton_solve(ds)


def test_csv_status_beyond_int8_is_rejected(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("time,status,x1\n1.0,1,0.0\n2.0,257,0.5\n")
    with pytest.raises(CsvError, match=r"^row 2: status must be 0 or 1, got 257\.0$") as err:
        load_csv(path)
    assert err.value.row == 2
    assert_paths_agree(path, CsvSchema())


def test_valid_status_is_stored_as_int8():
    for status in ([1, 0, 1], [1.0, 0.0, -0.0], [True, False, True], np.array([1, 0, 1], dtype=np.uint16)):
        ds = SurvivalDataset(covariates=np.ones((3, 1)), time=[1.0, 2.0, 3.0], status=status)
        assert ds.status.dtype == np.int8 and ds.status.tolist() == [1, 0, int(status[2])]


# (field, value) of each kind of broken value an array can carry and a CSV file can spell
CSV_FAULTS = {
    "nan_time": ("time", np.nan),
    "inf_time": ("time", np.inf),
    "negative_time": ("time", -1.5),
    "status_2": ("status", 2),
    "status_257": ("status", 257),
    "status_negative": ("status", -1),
    "nan_covariate": ("covariates", np.nan),
    "inf_covariate": ("covariates", -np.inf),
}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    faults=st.lists(
        st.tuples(st.sampled_from(sorted(CSV_FAULTS)), st.integers(0, 29), st.integers(0, 2)),
        min_size=1, max_size=2,
    ),
    seed=st.integers(0, 2**16),
)
def test_csv_and_arrays_name_the_same_first_violation(faults, seed):
    ds = random_dataset(np.random.default_rng(seed), n=30, p=3)
    arrays = {"time": ds.time.copy(), "status": ds.status.astype(np.int64), "covariates": ds.covariates.copy()}
    for kind, row, column in faults:
        field, value = CSV_FAULTS[kind]
        if field == "covariates":
            arrays[field][row, column] = value
        else:
            arrays[field][row] = value
    broken = SurvivalDataset(**arrays)
    first = validate(broken)[0]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        write_csv(broken, path)
        with pytest.raises(CsvError) as err:
            load_csv(path)
    assert (err.value.row - 1, err.value.column) == (first.row, first.column)


def test_loaded_file_is_scanned_once(tmp_path, monkeypatch):
    from coxsub import data

    calls = []
    scan = data._value_violations
    monkeypatch.setattr(data, "_value_violations", lambda ds: calls.append(ds) or scan(ds))
    path = tmp_path / "d.csv"
    write_csv(random_dataset(np.random.default_rng(15), n=200, p=2), path)
    ds = load_csv(path)
    assert len(calls) == 1
    two_step(ds, 60, 80, 0.1, "lopt", np.random.default_rng(0))
    assert len(calls) == 1


def test_load_csv_holds_the_parsed_block_and_the_dataset_only(tmp_path):
    # tracemalloc peak of a load, in bytes per record: the parsed block of
    # p + 2 columns, the dataset's one copy of the records taken from it,
    # and at most two n-length arrays besides; no second copy of the covariates
    n, p = 20_000, 5
    path = tmp_path / "d.csv"
    write_csv(random_dataset(np.random.default_rng(23), n=n, p=p), path)
    import tracemalloc

    tracemalloc.start()
    try:
        load_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block, dataset = 8 * (p + 2), 8 * p + 8 + 1
    assert peak < (block + dataset + 2 * 8) * n, f"peak {peak / n:.1f} bytes per record"


# ---- the two CSV read paths agree


def scan_csv(path, schema):
    """load_csv through the cell-by-cell scan only."""
    return _checked_dataset(*_parse_cells(path, schema))


def outcome(read, path, schema):
    try:
        ds = read(path, schema)
    except CsvError as exc:
        return ("error", str(exc), exc.row, exc.column)
    return ("ok", *(a.dtype.str + a.tobytes().hex() for a in (ds.time, ds.status, ds.covariates)))


def assert_paths_agree(path, schema):
    fast = outcome(load_csv, path, schema)
    assert fast == outcome(scan_csv, path, schema)
    return fast


# cells on which np.loadtxt and float() disagree, or that no parse accepts
ODD_CELLS = [
    "", " ", "#", "#1", '"1.5"', '"1,5"', "1_5", " 2.5 ", "\t3", "nan", "inf", "-inf", "Infinity",
    "2", "1.0", "-1", "1e400", "\u0661", "\u0663.5", "abc", "0x10", "+.5", "1.", "1 2",
]
ODD_STATUS = ["2", "1.0", "0.0", "-0", "nan", " 1", "1_0", "\u0661", '"0"', ""]


def odd(draw, rate):
    """True with probability 1/rate; never when rate is 0."""
    return rate > 0 and draw(st.integers(0, rate - 1)) == 0


@st.composite
def cells(draw, column, rate):
    if odd(draw, rate):
        return draw(st.sampled_from(ODD_STATUS if column == "status" else ODD_CELLS))
    if column == "status":
        return draw(st.sampled_from(["0", "1"]))
    if column == "id":
        return draw(st.sampled_from(["a", "b7", "1", "x y", "-"]))
    if column == "time":
        return repr(draw(st.floats(0.0, 1e6)))
    return repr(draw(st.floats(-1e300, 1e300)))


@st.composite
def csv_files(draw):
    """(text, schema) mixing well-formed rows with the divergences of the two parsers.

    A file's divergence rate is 0 (well formed but for an unused text
    column or lone-CR endings), 1 in 30 or 1 in 6 per cell, row and line.
    """
    rate = draw(st.sampled_from([0, 30, 6]))
    delimiter = draw(st.sampled_from([",", ";", "\t", "|", " "]))
    has_header = draw(st.booleans())
    covariates = [f"x{j + 1}" for j in range(draw(st.integers(1, 3)))]
    names = draw(st.permutations(["time", "status", *covariates, *(["id"] if draw(st.booleans()) else [])]))
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        row = [draw(cells(name, rate)) for name in names]
        if odd(draw, rate):
            row = draw(st.sampled_from([row[:-1], [*row, "0"]]))
        lines.append(delimiter.join(row))
        if odd(draw, rate):
            lines.append(draw(st.sampled_from(["", " ", "\t", "  "])))
    if has_header:
        quote = draw(st.booleans())
        lines.insert(0, delimiter.join(f'"{n}"' if quote else n for n in names))
        listed = draw(st.booleans())
        schema = CsvSchema(covariate_columns=tuple(covariates) if listed else None, delimiter=delimiter)
    else:
        pos = {n: str(k) for k, n in enumerate(names)}
        schema = CsvSchema(time_column=pos["time"], status_column=pos["status"],
                           covariate_columns=tuple(pos[c] for c in covariates),
                           delimiter=delimiter, has_header=False)
    eol = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) if odd(draw, rate) else eol for _ in lines]
    if not draw(st.integers(0, 3)):
        ends[-1] = ""  # no final newline
    return "".join(line + end for line, end in zip(lines, ends)), schema


@PROPERTY
@given(csv_files())
def test_read_paths_agree_on_generated_files(case):
    text, schema = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        assert_paths_agree(path, schema)


def test_vectorised_path_reads_well_formed_files(tmp_path):
    ds = random_dataset(np.random.default_rng(14), n=40, p=3, ties=True)
    for delimiter in (",", ";", "\t"):
        path = tmp_path / "w.csv"
        write_csv(ds, path, CsvSchema(delimiter=delimiter))
        schema = CsvSchema(delimiter=delimiter)
        assert _parse_vectorised(path, schema) is not None
        assert assert_paths_agree(path, schema)[0] == "ok"
    # padding, CRLF endings and a missing final newline stay on the fast path
    path.write_bytes(b"time,status,x1\r\n 2.0 ,1,0.5\r\n1.0,\t0,-0.25")
    assert _parse_vectorised(path, CsvSchema()) is not None
    assert load_csv(path).time.tolist() == [2.0, 1.0]


@pytest.mark.parametrize("eol", ["\n", "\r\n"])
def test_vectorised_path_skips_a_header_with_a_quoted_line_break(tmp_path, eol):
    # csv.reader's line_num counts the physical lines of the header, which
    # loadtxt's skiprows then skips
    path = tmp_path / "d.csv"
    path.write_bytes(f'time,status,"x{eol}1",x2{eol}2.0,1,0.5,3.0{eol}1.0,0,-0.25,4.0{eol}'.encode())
    assert _parse_vectorised(path, CsvSchema()) is not None
    assert assert_paths_agree(path, CsvSchema())[0] == "ok"
    assert load_csv(path).covariates.tolist() == [[0.5, 3.0], [-0.25, 4.0]]


def test_plain_csv_named_like_an_archive_loads(tmp_path):
    # numpy would open these names as compressed archives; the scan reads them as text
    ds = random_dataset(np.random.default_rng(16), n=30, p=2)
    for name in ("d.csv.gz", "d.csv.bz2", "d.csv.xz"):
        path = tmp_path / name
        write_csv(ds, path)
        assert assert_paths_agree(path, CsvSchema())[0] == "ok"
        assert np.array_equal(load_csv(path).time, ds.time)


@pytest.mark.parametrize(
    "body",
    [
        "1.0,1,0.5\n\n2.0,0,0.25\n",  # blank line: loadtxt skips it
        "1.0,1,0.5\n2.0,0,0.25\n\n",  # trailing blank line
        "1.0,1,0.5\r2.0,0,0.25\r",  # lone CR endings
        "1.0,1,0.5\r\r\n",  # lone CR, then a blank CRLF line loadtxt skips
        '1.0,1,"0.5"\n',  # quoted cell
        "1_0,1,0.5\n",  # underscore in a number
        "1.0,1,\u0663\n",  # non-ASCII digit
        "1.0,1\n",  # short row
        "1.0,1,,\n",  # long row with an empty cell
        "1.0,1,#\n",  # comment character
    ],
)
def test_vectorised_path_defers_to_scan(tmp_path, body):
    path = tmp_path / "d.csv"
    path.write_bytes(("time,status,x1\n" + body).encode("utf-8"))
    assert _parse_vectorised(path, CsvSchema()) is None
    assert_paths_agree(path, CsvSchema())


def test_unused_non_numeric_column_takes_scan(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("id,time,status,x1\na,1.0,1,0.5\nb,2.0,0,0.25\n")
    schema = CsvSchema(covariate_columns=("x1",))
    assert _parse_vectorised(path, schema) is None
    assert load_csv(path, schema).covariates.tolist() == [[0.5], [0.25]]


def test_blank_line_error_unchanged(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("time,status,x1\n1.0,1,0.5\n\n2.0,0,0.25\n")
    with pytest.raises(CsvError, match=r"^row 2: expected 3 fields, got 0$") as err:
        load_csv(path)
    assert err.value.row == 2


# ---- the vectorised writers emit the csv.writer loop's bytes

SPECIAL_FLOATS = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-5, 1e-4, 123456789012345680.0,
                  0.1, 1 / 3, -2.5, 1e300, float("inf"), float("-inf"), float("nan")]
WRITE_DELIMITERS = [",", ";", "\t", "|", " ", ".", "e", "-", "+", "1", "a", "n", '"', "'", "x"]


def floats_with_specials(**kwargs):
    return st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(**kwargs))


@PROPERTY
@given(
    rows=st.lists(
        st.tuples(floats_with_specials(), st.integers(-3, 3), st.lists(floats_with_specials(), min_size=2, max_size=2)),
        min_size=1,
        max_size=12,
    ),
    delimiter=st.sampled_from(WRITE_DELIMITERS),
    has_header=st.booleans(),
)
def test_dataset_writer_matches_row_loop(rows, delimiter, has_header):
    time, status, covs = zip(*rows)
    ds = SurvivalDataset(covariates=np.array(covs), time=np.array(time), status=np.array(status))
    schema = CsvSchema(covariate_columns=("a,b", 'q"'), delimiter=delimiter, has_header=has_header)
    with tempfile.TemporaryDirectory() as tmp:
        new, old = Path(tmp) / "new.csv", Path(tmp) / "old.csv"
        write_csv(ds, new, schema)
        oracle_write_dataset_csv(ds, old, cov_names=["a,b", 'q"'], delimiter=delimiter, has_header=has_header)
        assert new.read_bytes() == old.read_bytes()


@PROPERTY
@given(
    weights=st.lists(floats_with_specials(min_value=1e-300, max_value=1e300), min_size=1, max_size=30),
    with_status=st.booleans(),
)
def test_plan_writer_matches_row_loop(weights, with_status):
    w = np.array([x if np.isfinite(x) and x > 0 else 1.0 for x in weights])
    plan = SubsamplePlan(probs=w / w.sum(), delta=0.0)
    status = np.arange(plan.n) % 2 if with_status else None
    with tempfile.TemporaryDirectory() as tmp:
        new, old = Path(tmp) / "new.csv", Path(tmp) / "old.csv"
        plan.write_csv(new, status=status)
        oracle_write_plan_csv(plan.probs, old, status=status)
        assert new.read_bytes() == old.read_bytes()


@PROPERTY
@given(
    times=st.lists(floats_with_specials(allow_nan=False, allow_infinity=False), max_size=30, unique=True),
    jumps=st.lists(floats_with_specials(min_value=5e-324, max_value=1e300), min_size=30, max_size=30),
)
def test_cumhaz_writer_matches_row_loop(times, jumps):
    # a hazard's jump times are finite (CumulativeHazard rejects others)
    jt = np.unique(np.array([t for t in times if np.isfinite(t)], dtype=np.float64))
    j = np.array([x if np.isfinite(x) and x > 0 else 1.0 for x in jumps[: jt.size]])
    ch = CumulativeHazard(jump_times=jt, jumps=j)
    with tempfile.TemporaryDirectory() as tmp:
        new, old = Path(tmp) / "new.csv", Path(tmp) / "old.csv"
        ch.write_csv(new)
        oracle_write_cumhaz_csv(ch.jump_times, ch.cumulative, old)
        assert new.read_bytes() == old.read_bytes()
