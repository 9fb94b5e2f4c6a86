"""JobSpec / TenantQuota validation and the artifact-reader helpers.

Everything here is pure (no fabric, no worker pool): admission-time
validation must fail fast with actionable messages, and the JSON schemas
must round-trip exactly — they are the service's public API surface.
"""

import json

import pytest

from repro.ga.config import GAParams
from repro.service import (
    JobSpec,
    TenantQuota,
    history_digest,
    job_dir,
    list_statuses,
    read_result,
    read_status,
    write_submit_request,
)


def _spec(**overrides):
    base = dict(
        tenant="alice",
        target="YBL051C",
        seed=3,
        generations=5,
        population_size=8,
        candidate_length=20,
        deadline_s=12.5,
        demand=2,
        job_id="job-0001",
    )
    base.update(overrides)
    return JobSpec(**base)


def test_spec_payload_roundtrip():
    spec = _spec(non_targets=("YBR001A", "YBR002B"), non_target_limit=None)
    payload = spec.to_payload()
    assert payload["format"] == "repro-job-spec"
    # The payload is plain JSON (it travels through queue files).
    restored = JobSpec.from_payload(json.loads(json.dumps(payload)))
    assert restored == spec


@pytest.mark.parametrize(
    "overrides, match",
    [
        (dict(tenant=""), "tenant"),
        (dict(tenant="bad tenant!"), "tenant"),
        (dict(target=""), "target"),
        (dict(generations=0), "generations"),
        (dict(population_size=1), "population_size"),
        (dict(candidate_length=1), "candidate_length"),
        (dict(checkpoint_every=0), "checkpoint_every"),
        (dict(deadline_s=0.0), "deadline_s"),
        (dict(demand=0), "demand"),
        (dict(job_id="no spaces allowed"), "job_id"),
        (dict(seed=-1), "seed"),
        (dict(non_targets=("YBL051C",)), "non-target"),
        (dict(non_targets=("A1", "A1")), "duplicates"),
        (dict(params="not-params"), "params"),
    ],
)
def test_spec_validation_rejects(overrides, match):
    with pytest.raises(ValueError, match=match):
        _spec(**overrides).validate()


def test_spec_from_payload_rejects_wrong_format_and_version():
    payload = _spec().to_payload()
    with pytest.raises(ValueError, match="format"):
        JobSpec.from_payload({**payload, "format": "something-else"})
    with pytest.raises(ValueError, match="version"):
        JobSpec.from_payload({**payload, "version": 99})
    with pytest.raises(ValueError, match="JSON object"):
        JobSpec.from_payload(["not", "a", "dict"])


def test_spec_params_roundtrip_exactly():
    params = GAParams(p_mutate_aa=0.033)
    spec = _spec(params=params)
    restored = JobSpec.from_payload(spec.to_payload())
    assert restored.params == params


def test_tenant_quota_validation():
    with pytest.raises(ValueError, match="max_running"):
        TenantQuota(max_running=0)
    with pytest.raises(ValueError, match="max_demand"):
        TenantQuota(max_running=1, max_demand=0)
    assert TenantQuota().max_demand is None


def test_history_digest_is_deterministic_and_order_insensitive():
    a = {"generations": [{"g": 0, "f": 0.25}], "degradations": []}
    b = {"degradations": [], "generations": [{"f": 0.25, "g": 0}]}
    assert history_digest(a) == history_digest(b)
    assert history_digest(a) != history_digest({**a, "degradations": [1]})


def test_artifact_readers_fail_loudly_on_unknown_job(tmp_path):
    with pytest.raises(FileNotFoundError, match="status"):
        read_status(tmp_path, "job-nope")
    with pytest.raises(FileNotFoundError, match="result"):
        read_result(tmp_path, "job-nope")
    assert list_statuses(tmp_path) == []


def test_write_submit_request_is_fifo_ordered(tmp_path):
    first = write_submit_request(tmp_path, _spec(job_id="job-a"))
    second = write_submit_request(tmp_path, _spec(job_id="job-b"))
    queued = sorted((tmp_path / "queue").glob("*.json"))
    assert [p.name for p in queued] == [first.name, second.name]
    assert json.loads(first.read_text())["job_id"] == "job-a"


def test_job_dir_layout(tmp_path):
    assert job_dir(tmp_path, "job-1") == tmp_path / "jobs" / "job-1"


@pytest.mark.parametrize(
    "field, value",
    [
        ("seed", None),
        ("generations", [1]),
        ("params", 5),
        ("params", {"p_copy": 0.1, "not_a_param": 1}),
        ("non_targets", 5),
        ("non_targets", [["YBR001A"]]),
        ("job_id", 5),
        # Integer fields are not truncated or coerced: validate() rejects
        # these, so a submit request may not carry them either.
        ("generations", 2.5),
        ("seed", 7.9),
        ("demand", 1.5),
        ("seed", True),
        ("checkpoint_every", True),
        ("population_size", 8.0),
        # json.loads accepts NaN; a NaN deadline never expires.
        ("deadline_s", float("nan")),
    ],
)
def test_spec_from_payload_names_wrong_typed_field(field, value):
    # Regression: a wrong-typed field raised TypeError out of from_payload,
    # which the control-plane poll does not catch, so one bad request
    # killed `serve`.  It is now a ValueError naming the field.  A float
    # in an integer field used to be truncated ("generations": 2.5 ran 2
    # generations, "seed": true gave seed 1) where validate() rejects it.
    payload = {**_spec().to_payload(), field: value}
    with pytest.raises(ValueError, match=field):
        JobSpec.from_payload(json.loads(json.dumps(payload)))
