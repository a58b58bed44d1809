"""Wire protocol: payload parsing, budget identity, result shaping."""

import pytest

from repro.core.results import Status
from repro.core.specs import Property
from repro.sat.limits import Limits
from repro.service.protocol import (
    ServiceError,
    cancelled_payload,
    limits_from_payload,
    limits_key,
    max_resiliency_payload,
    spec_from_payload,
    vectors_payload,
)
from repro.core.search import SearchBounds


def test_spec_defaults_to_observability():
    spec = spec_from_payload({"k": 2})
    assert spec.property is Property.OBSERVABILITY
    assert spec.budget.k == 2


def test_spec_split_budgets_and_property():
    spec = spec_from_payload({"property": "secured-observability",
                             "k1": 1, "k2": 2})
    assert spec.property is Property.SECURED_OBSERVABILITY
    assert (spec.budget.k1, spec.budget.k2) == (1, 2)


def test_spec_requires_some_budget():
    with pytest.raises(ServiceError) as err:
        spec_from_payload({})
    assert err.value.status == 400


@pytest.mark.parametrize("payload, fragment", [
    ({"property": "nope"}, "unknown property"),
    ({"k": -1}, "non-negative"),
    ({"k": "two"}, "non-negative"),
    ({"k": True}, "non-negative"),
])
def test_spec_rejects_malformed(payload, fragment):
    with pytest.raises(ServiceError) as err:
        spec_from_payload(payload)
    assert err.value.status == 400
    assert fragment in err.value.message


def test_limits_parsing_and_identity():
    assert limits_from_payload(None) is None
    assert limits_from_payload({}) is None
    limits = limits_from_payload({"max_time": 1.5, "max_conflicts": 10})
    assert limits == Limits(max_time=1.5, max_conflicts=10)
    # coalescing identity: equal budgets share, distinct budgets don't
    assert limits_key(limits) == limits_key(
        Limits(max_time=1.5, max_conflicts=10))
    assert limits_key(limits) != limits_key(Limits(max_time=1.5))
    assert limits_key(None) != limits_key(limits)


def test_limits_rejects_unknown_and_negative():
    with pytest.raises(ServiceError):
        limits_from_payload({"max_tiem": 1})
    with pytest.raises(ServiceError):
        limits_from_payload({"max_time": -3})
    # json.loads accepts NaN and Infinity; max_conflicts NaN used to
    # escape as a ValueError (a 500) and max_time NaN as no bound.
    for field in ("max_time", "max_conflicts", "max_propagations",
                  "max_memory_mb"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ServiceError) as err:
                limits_from_payload({field: value})
            assert err.value.code == "bad-limits", (field, value)


def test_cancelled_payload_is_exit_code_3_unknown():
    payload = cancelled_payload("1-resilient observability",
                                "client-disconnect")
    assert payload["exit_code"] == 3
    assert payload["status"] == Status.UNKNOWN.value
    assert payload["limit_reason"] == "interrupt"
    assert payload["cancelled"] is True


def test_vectors_payload_exit_codes():
    spec = spec_from_payload({"k": 1})
    assert vectors_payload(spec, [])["exit_code"] == 0
    incomplete = vectors_payload(spec, [], incomplete=True,
                                 limit_reason="time")
    assert incomplete["exit_code"] == 3
    assert incomplete["status"] == "incomplete"


def test_max_resiliency_payload_exactness():
    exact = SearchBounds(2, 2)
    loose = SearchBounds(1, 3, (2,))
    good = max_resiliency_payload("observability", exact, exact, exact)
    assert good["exit_code"] == 0 and good["status"] == "complete"
    bad = max_resiliency_payload("observability", exact, loose, exact)
    assert bad["exit_code"] == 3 and bad["limit_reason"] == "budget"
    assert bad["ied"]["unknown_budgets"] == [2]
