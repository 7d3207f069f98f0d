"""What ``SystemParams`` and ``SweepSpec`` promise as records.

Both are immutable: built positionally or by keyword, validated once when
built, compared and hashed by their field values, printed as
``Name(field=value, ...)``, and rebuilt through their constructor by
``pickle`` and ``copy``. Each validation message is pinned here, in the order
the checks run.
"""

import copy
import math
import pickle

import pytest

from qjunction import BathKind, DegeneratePhysicsError, SweepSpec, SweepVariable, SystemParams

PARAMS = SystemParams(0.2, 1.0)
SPEC_FIELDS = ("params", "kind", "gamma_left", "gamma_right", "variable", "lo", "hi", "count",
               "t_left", "t_avg")
SPEC_VALUES = (PARAMS, BathKind.SPIN, 1.0, 0.3, SweepVariable.T_RIGHT, 0.1, 2.0, 5, 1.5, None)
SPEC = SweepSpec(*SPEC_VALUES)


def delta_t(lo, hi, t_avg, **changes):
    fields = dict(params=PARAMS, kind=BathKind.BOSON, gamma_left=1.0, gamma_right=1.0,
                  variable=SweepVariable.DELTA_T, lo=lo, hi=hi, count=5, t_avg=t_avg)
    return SweepSpec(**{**fields, **changes})


def common(lo=0.1, hi=2.0, count=5, **changes):
    fields = dict(params=PARAMS, kind=BathKind.BOSON, gamma_left=1.0, gamma_right=1.0,
                  variable=SweepVariable.T_COMMON, lo=lo, hi=hi, count=count)
    return SweepSpec(**{**fields, **changes})


class TestConstruction:
    def test_system_params_positional_and_keyword(self):
        for params in (SystemParams(0.2, 1.0), SystemParams(epsilon=0.2, kappa=1.0),
                       SystemParams(0.2, kappa=1.0)):
            assert (params.epsilon, params.kappa) == (0.2, 1.0)
            assert params == PARAMS

    def test_sweep_spec_positional_and_keyword(self):
        by_keyword = SweepSpec(**dict(zip(SPEC_FIELDS, SPEC_VALUES)))
        assert by_keyword == SPEC
        assert tuple(getattr(SPEC, name) for name in SPEC_FIELDS) == SPEC_VALUES

    def test_sweep_spec_defaults_are_none(self):
        spec = common()
        assert spec.t_left is None and spec.t_avg is None
        assert spec == common(t_left=None, t_avg=None)

    def test_missing_and_unknown_arguments(self):
        with pytest.raises(TypeError):
            SystemParams(0.2)
        with pytest.raises(TypeError):
            SystemParams(0.2, 1.0, 3.0)
        with pytest.raises(TypeError):
            SystemParams(0.2, kappa=1.0, delta=3.0)
        with pytest.raises(TypeError):
            SweepSpec(*SPEC_VALUES[:7])
        with pytest.raises(TypeError):
            SweepSpec(*SPEC_VALUES, None)

    def test_match_args(self):
        match PARAMS:
            case SystemParams(eps, kap):
                assert (eps, kap) == (0.2, 1.0)
        match SPEC:
            case SweepSpec(params, kind, gl, gr, variable, lo, hi, count, t_left, t_avg):
                assert (params, kind, gl, gr, variable, lo, hi, count, t_left, t_avg) == \
                    SPEC_VALUES


class TestValueSemantics:
    def test_equality(self):
        assert SystemParams(0.2, 1.0) == PARAMS
        assert not SystemParams(0.2, 1.0) != PARAMS
        assert SystemParams(0.2, 2.0) != PARAMS
        assert SweepSpec(*SPEC_VALUES) == SPEC
        assert SweepSpec(SystemParams(0.2, 1.0), *SPEC_VALUES[1:]) == SPEC
        assert SweepSpec(*SPEC_VALUES[:7], 6, *SPEC_VALUES[8:]) != SPEC

    def test_not_equal_to_a_tuple_or_the_other_record(self):
        assert PARAMS != (0.2, 1.0)
        assert (0.2, 1.0) != PARAMS
        assert SPEC != SPEC_VALUES
        assert PARAMS != SPEC and SPEC != PARAMS
        assert PARAMS.__eq__((0.2, 1.0)) is NotImplemented
        assert SPEC.__eq__(PARAMS) is NotImplemented

    def test_hash_is_the_hash_of_the_fields(self):
        assert hash(PARAMS) == hash((0.2, 1.0)) == hash(SystemParams(0.2, 1.0))
        assert hash(SPEC) == hash(SPEC_VALUES)
        assert len({PARAMS, SystemParams(0.2, 1.0), SystemParams(1.0, 0.2)}) == 2

    def test_repr(self):
        assert repr(PARAMS) == "SystemParams(epsilon=0.2, kappa=1.0)"
        assert repr(SPEC) == (
            "SweepSpec(params=SystemParams(epsilon=0.2, kappa=1.0), "
            "kind=<BathKind.SPIN: 'spin'>, gamma_left=1.0, gamma_right=0.3, "
            "variable=<SweepVariable.T_RIGHT: 't_right'>, lo=0.1, hi=2.0, count=5, "
            "t_left=1.5, t_avg=None)"
        )

    @pytest.mark.parametrize("record, name", [(PARAMS, "epsilon"), (PARAMS, "kappa"),
                                              (SPEC, "params"), (SPEC, "t_avg")])
    def test_fields_cannot_be_assigned_or_deleted(self, record, name):
        before = getattr(record, name)
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(record, name, 0.5)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(record, name)
        assert getattr(record, name) is before

    @pytest.mark.parametrize("record", [PARAMS, SPEC])
    def test_no_new_attributes(self, record):
        with pytest.raises(AttributeError):
            record.extra = 1.0
        assert not hasattr(record, "extra")

    @pytest.mark.parametrize("record", [PARAMS, SPEC, common(), delta_t(-0.5, 0.5, 1.0)])
    def test_pickle_and_copy_round_trips(self, record):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            again = pickle.loads(pickle.dumps(record, protocol))
            assert again == record and type(again) is type(record)
        assert copy.copy(record) == record
        deep = copy.deepcopy(record)
        assert deep == record and hash(deep) == hash(record)
        assert repr(deep) == repr(record)


class TestSystemParamsValidation:
    @pytest.mark.parametrize("eps, kap, message", [
        (0.0, 1.0, "epsilon must be positive and finite, got 0.0"),
        (-0.1, 1.0, "epsilon must be positive and finite, got -0.1"),
        (math.inf, 1.0, "epsilon must be positive and finite, got inf"),
        (math.nan, 1.0, "epsilon must be positive and finite, got nan"),
        (-1.0, -1.0, "epsilon must be positive and finite, got -1.0"),
        (0.2, 0.0, "kappa must be positive and finite, got 0.0"),
        (0.2, math.inf, "kappa must be positive and finite, got inf"),
        (0.2, math.nan, "kappa must be positive and finite, got nan"),
    ])
    def test_value_errors(self, eps, kap, message):
        with pytest.raises(ValueError) as error:
            SystemParams(eps, kap)
        assert type(error.value) is ValueError and str(error.value) == message

    def test_degenerate_spectrum(self):
        with pytest.raises(DegeneratePhysicsError) as error:
            SystemParams(epsilon=0.5, kappa=0.5)
        assert str(error.value) == "degenerate spectrum: epsilon == kappa == 0.5"


class TestSweepSpecValidation:
    @pytest.mark.parametrize("build, message", [
        (lambda: common(lo=math.nan), "grid ends must be finite, got [nan, 2.0]"),
        (lambda: common(hi=math.inf, count=1), "grid ends must be finite, got [0.1, inf]"),
        (lambda: common(lo=2.0, hi=1.0, count=1), "need lo < hi, got [2.0, 1.0]"),
        (lambda: common(count=1, gamma_left=-1.0), "need at least 2 grid points, got 1"),
        (lambda: common(gamma_left=-1.0, lo=-1.0), "couplings must be nonnegative"),
        (lambda: common(gamma_right=math.nan), "couplings must be nonnegative"),
        (lambda: common(gamma_right=math.inf), "couplings must be finite"),
        (lambda: delta_t(-0.5, 0.5, None), "DELTA_T sweeps need a positive, finite t_avg"),
        (lambda: delta_t(-0.5, 0.5, 0.0), "DELTA_T sweeps need a positive, finite t_avg"),
        (lambda: delta_t(-0.5, 0.5, math.inf), "DELTA_T sweeps need a positive, finite t_avg"),
        (lambda: delta_t(-1.0, 0.5, 1.0),
         "bias grid [-1.0, 0.5] leaves (-T_a, T_a) for T_a = 1.0"),
        (lambda: delta_t(-0.5, 1.0, 1.0),
         "bias grid [-0.5, 1.0] leaves (-T_a, T_a) for T_a = 1.0"),
        (lambda: delta_t(-1e307, 1e308, 1.7e308), "T_a + |dT| overflows for T_a = 1.7e+308"),
        (lambda: common(variable=SweepVariable.T_RIGHT),
         "T_RIGHT sweeps need a nonnegative, finite t_left"),
        (lambda: common(variable=SweepVariable.T_RIGHT, t_left=-1.0, lo=-1.0),
         "T_RIGHT sweeps need a nonnegative, finite t_left"),
        (lambda: common(variable=SweepVariable.T_RIGHT, t_left=math.inf),
         "T_RIGHT sweeps need a nonnegative, finite t_left"),
        (lambda: common(variable=SweepVariable.T_RIGHT, t_left=1.0, lo=-0.1),
         "temperatures must be nonnegative"),
        (lambda: common(lo=-0.1), "temperatures must be nonnegative"),
    ])
    def test_messages_in_order(self, build, message):
        with pytest.raises(ValueError) as error:
            build()
        assert type(error.value) is ValueError and str(error.value) == message

    def test_fields_ignored_by_the_variable_are_kept(self):
        # T_COMMON reads neither t_left nor t_avg, and T_RIGHT not t_avg: they are kept as given
        spec = common(t_left=-1.0, t_avg=math.inf)
        assert (spec.t_left, spec.t_avg) == (-1.0, math.inf)
        assert delta_t(-0.5, 0.5, 1.0, t_left=7.0).t_left == 7.0
