"""Malformed requests and lost artifacts get typed 4xx, never a 500.

Each case sends raw bytes over a socket (the stdlib client would
refuse to build some of these requests), checks the status line and
the JSON error body, and then checks that the server still answers.
"""

import json
import os
import socket
from urllib.parse import urlsplit

import pytest

from repro.service.client import ServiceClient, ServiceError
from repro.service.http import ServerThread

FIG7 = {"kind": "figure", "scenario": "fig7", "samples": 60, "seed": 1}


def raw_request(address, head, body=b""):
    """Send *head* (request line + headers) and return (status, body)."""
    url = urlsplit(address)
    with socket.create_connection((url.hostname, url.port),
                                  timeout=30) as sock:
        sock.sendall(head.encode("latin-1") + b"\r\n\r\n" + body)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    response = b"".join(chunks)
    status_line, _, rest = response.partition(b"\r\n")
    _headers, _, payload = rest.partition(b"\r\n\r\n")
    return int(status_line.split()[1]), payload


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    """One live server with one finished job."""
    root = str(tmp_path_factory.mktemp("svc") / "store")
    with ServerThread(root, workers=1) as address:
        client = ServiceClient(address)
        job_id = client.submit(FIG7)["id"]
        assert client.wait(job_id, poll_s=15.0)["state"] == "done"
        yield address, job_id


def assert_still_serving(address):
    assert ServiceClient(address).health()["queue"]["capacity"] > 0


class TestMalformedRequests:
    @pytest.mark.parametrize("length", ["abc", "-5", "1.5", "+3", "²"])
    def test_bad_content_length_is_400(self, server, length):
        address = server[0]
        status, payload = raw_request(
            address, f"POST /jobs HTTP/1.1\r\nContent-Length: {length}",
            b"{}")
        assert status == 400
        assert "Content-Length" in json.loads(payload)["error"]
        assert_still_serving(address)

    def test_oversized_content_length_is_413(self, server):
        address = server[0]
        status, _ = raw_request(
            address, "POST /jobs HTTP/1.1\r\nContent-Length: 99999999")
        assert status == 413
        assert_still_serving(address)

    @pytest.mark.parametrize("wait", ["nan", "inf", "-inf", "-1", "x"])
    def test_bad_wait_is_400(self, server, wait):
        address, job_id = server
        status, payload = raw_request(
            address, f"GET /jobs/{job_id}?wait={wait} HTTP/1.1")
        assert status == 400
        assert "wait" in json.loads(payload)["error"]
        assert_still_serving(address)

    def test_good_wait_still_answers(self, server):
        address, job_id = server
        status, payload = raw_request(
            address, f"GET /jobs/{job_id}?wait=0.5 HTTP/1.1")
        assert status == 200
        assert json.loads(payload)["state"] == "done"


class TestLostArtifact:
    def test_missing_or_corrupt_journal_is_410(self, tmp_path):
        root = str(tmp_path / "store")
        with ServerThread(root, workers=1) as address:
            client = ServiceClient(address)
            job_id = client.submit(FIG7)["id"]
            client.wait(job_id, poll_s=15.0)
            assert client.artifact(job_id).endswith(b"\n")
            path = os.path.join(root, "service", "jobs", f"{job_id}.json")
            with open(path, "w") as fh:
                fh.write("{torn")
            for fetch in (client.artifact, client.report):
                with pytest.raises(ServiceError) as err:
                    fetch(job_id)
                assert err.value.status == 410
            os.remove(path)
            with pytest.raises(ServiceError) as err:
                client.artifact(job_id)
            assert err.value.status == 410
            # The status route needs no journal read and still works.
            assert client.status(job_id)["state"] == "done"
            assert_still_serving(address)


#: Job bodies with one mistyped field each: every one is a 400 at
#: submission, never a 500 or a job that fails later in a worker.
MISTYPED = {
    "priority-string": dict(FIG7, priority="high"),
    "seed-string": dict(FIG7, seed="x"),
    "samples-string": dict(FIG7, samples="7"),
    "seed-bool": dict(FIG7, seed=True),
    "samples-float": dict(FIG7, samples=7.0),
    "capacity-zero": {"kind": "twin-diff", "scenario": "storm-fig6",
                      "capacity": 0},
    "seeds-object": {"kind": "campaign", "scenarios": "fig7",
                     "seeds": {"1": 2}},
    "intensity-nan": {"kind": "twin-diff", "scenario": "storm-fig6",
                      "intensity": float("nan")},
    "bound-infinite": {"kind": "margin", "scenario": "fig6",
                       "bound_us": float("inf")},
    "use-cache-int": dict(FIG7, use_cache=1),
    "fault-plan-unknown": {"kind": "campaign", "scenarios": "fig7",
                           "fault_plan": "no-such-plan"},
}


class TestMistypedJobFields:
    @pytest.mark.parametrize("name", sorted(MISTYPED))
    def test_mistyped_field_is_400(self, server, name):
        address = server[0]
        body = json.dumps(MISTYPED[name]).encode()
        status, payload = raw_request(
            address, f"POST /jobs HTTP/1.1\r\n"
                     f"Content-Length: {len(body)}", body)
        assert status == 400
        assert json.loads(payload)["error"]
        assert_still_serving(address)

    def test_valid_job_after_rejected_ones_completes(self, tmp_path):
        """A rejected body leaves no ghost job: the scheduler still
        dispatches the next valid submission and the server stops."""
        root = str(tmp_path / "store")
        with ServerThread(root, workers=1) as address:
            client = ServiceClient(address, timeout=60.0)
            for body in MISTYPED.values():
                with pytest.raises(ServiceError) as err:
                    client.submit(body)
                assert err.value.status == 400
            job_id = client.submit(dict(FIG7, seed=2))["id"]
            assert client.wait(job_id, poll_s=15.0)["state"] == "done"
            health = client.health()
            assert health["queue"]["by_state"] == {
                "queued": 0, "running": 0, "done": 1, "failed": 0,
                "cancelled": 0}
