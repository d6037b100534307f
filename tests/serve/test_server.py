"""The HTTP server: lifecycle, parity with direct calls, and error mapping."""

import asyncio

import pytest

from repro.serve import ServeClient
from repro.serve.schema import ServeError
from repro.sta.cells import standard_cell_library
from repro.sta.delaycalc import DelayModel
from repro.sta.parasitics import lumped

LIBRARY = standard_cell_library()


def test_health_and_session_lifecycle(workload, serve_harness):
    async def scenario(server, client):
        health = await client.healthz()
        assert health == {"ok": True, "sessions": 0}
        assert await client.sessions() == []

        created = await client.create_session(workload.session_payload("alpha"))
        assert created["ok"] and created["session"] == "alpha"
        assert created["store_backed"] is False
        assert await client.sessions() == ["alpha"]

        info = await client.session_info("alpha")
        assert info["version"] == 0
        assert info["batching"]["requests"] == 0

        # Duplicate names are a conflict, not a silent replacement.
        with pytest.raises(ServeError) as excinfo:
            await client.create_session(workload.session_payload("alpha"))
        assert excinfo.value.status == 409

        closed = await client.close_session("alpha")
        assert closed["closed"] is True
        assert await client.sessions() == []
        with pytest.raises(ServeError) as excinfo:
            await client.slack("alpha")
        assert excinfo.value.status == 404

    serve_harness(scenario)


def test_queries_match_direct_graph(workload, serve_harness):
    direct = workload.direct_graph()
    spec = [
        {"name": "typ"},
        {"name": "slow", "r_derate": 1.25, "c_derate": 1.1},
    ]

    async def scenario(server, client):
        await client.create_session(workload.session_payload("d"))
        slack = await client.slack("d")
        summary = await client.summary("d")
        corners = await client.corners("d", spec, paths=True)
        pins = sorted(direct.pin_slacks(DelayModel.ELMORE))[:3]
        pin_slacks = await client.slack("d", model="elmore", pins=pins)
        return slack, summary, corners, pin_slacks

    slack, summary, corners, pin_slacks = serve_harness(scenario)

    assert slack["worst_slack"] == direct.worst_slack(DelayModel.UPPER_BOUND)
    endpoint = direct.endpoint_slacks(DelayModel.UPPER_BOUND)
    assert slack["endpoint_slacks"] == pytest.approx(endpoint, abs=0.0)

    import json

    expected_summary = json.loads(
        json.dumps(direct.summary(path_model=DelayModel.UPPER_BOUND).to_dict())
    )
    assert summary["summary"] == expected_summary

    from repro.scenarios import ScenarioSet

    expected_report = json.loads(
        json.dumps(
            direct.analyze_scenarios(
                ScenarioSet.from_dict(spec), path_model=DelayModel.UPPER_BOUND
            ).to_dict()
        )
    )
    assert corners["report"] == expected_report

    direct_pins = direct.pin_slacks(DelayModel.ELMORE)
    for pin, value in pin_slacks["pin_slacks"].items():
        assert value == direct_pins[pin]


def test_eco_edits_match_direct_graph(workload, serve_harness):
    direct = workload.direct_graph()
    (instance, cell), = workload.resizable_instances(1)
    some_net = next(
        p.net for p in workload.parasitics.values() if p.tree is None
    )
    new_cap = workload.parasitics[some_net].lumped_capacitance * 3.0

    async def scenario(server, client):
        await client.create_session(workload.session_payload("d"))
        first = await client.resize_instance("d", instance, cell.name)
        second = await client.update_net(
            "d", {"net": some_net, "lumped_capacitance": new_cap}
        )
        after = await client.slack("d")
        return first, second, after

    first, second, after = serve_harness(scenario)
    assert first["version"] == 1 and second["version"] == 2
    assert after["version"] == 2

    direct.resize_instance(instance, cell)
    direct.update_net(some_net, lumped(some_net, new_cap))
    assert after["worst_slack"] == direct.worst_slack(DelayModel.UPPER_BOUND)
    assert after["endpoint_slacks"] == pytest.approx(
        direct.endpoint_slacks(DelayModel.UPPER_BOUND), abs=0.0
    )


def test_whatif_matches_direct_graph_and_coalesces(workload, serve_harness):
    direct = workload.direct_graph()
    swaps = workload.resizable_instances(6)

    async def scenario(server, client):
        await client.create_session(workload.session_payload("d"))
        # Six concurrent single-swap clients, each on its own connection.
        clients = []
        for _ in swaps:
            extra = ServeClient("127.0.0.1", server.port)
            await extra.connect()
            clients.append(extra)
        try:
            responses = await asyncio.gather(
                *[
                    extra.whatif("d", [[instance, cell.name]])
                    for extra, (instance, cell) in zip(clients, swaps)
                ]
            )
        finally:
            for extra in clients:
                await extra.close()
        info = await client.session_info("d")
        return responses, info

    responses, info = serve_harness(scenario, tick=0.01)
    expected = direct.whatif_resize_worst_slack(swaps)
    for response, value in zip(responses, expected):
        assert response["scores"] == [float(value)]
    stats = info["batching"]
    assert stats["requests"] == 6
    assert stats["batches"] < 6
    assert stats["max_batch_requests"] > 1


def test_store_backed_session_serves_queries_and_ecos(
    workload, serve_harness, tmp_path
):
    direct = workload.direct_graph()
    (instance, cell), = workload.resizable_instances(1)

    async def scenario(server, client):
        await client.create_session(
            workload.session_payload("d", store_dir=str(tmp_path / "shards"))
        )
        info = await client.session_info("d")
        before = await client.slack("d")
        await client.resize_instance("d", instance, cell.name)
        after = await client.slack("d")
        # What-if needs in-RAM planes; a store session must refuse cleanly.
        with pytest.raises(ServeError) as excinfo:
            await client.whatif("d", [[instance, cell.name]])
        return info, before, after, excinfo.value

    info, before, after, error = serve_harness(scenario)
    assert info["store_backed"] is True
    assert before["worst_slack"] == direct.worst_slack(DelayModel.UPPER_BOUND)
    direct.resize_instance(instance, cell)
    assert after["worst_slack"] == direct.worst_slack(DelayModel.UPPER_BOUND)
    assert error.status == 400


def test_error_mapping(workload, serve_harness):
    async def scenario(server, client):
        await client.create_session(workload.session_payload("d"))
        cases = []
        for method, path, payload, want in [
            ("GET", "/bogus", None, 404),
            ("PUT", "/healthz", None, 405),
            ("DELETE", "/sessions", None, 405),
            ("POST", "/sessions/none/query/slack", {}, 404),
            ("POST", "/sessions/d/query/whatif", {"swaps": []}, 400),
            ("POST", "/sessions/d/query/slack", {"model": "median"}, 400),
            ("POST", "/sessions/d/query/corners", {}, 400),
            ("POST", "/sessions/d/eco/update_net", {"net": "ghost",
                                                    "lumped_capacitance": 1e-15}, 400),
            ("POST", "/sessions", {"name": "x", "netlist": 17}, 400),
            # engine and jobs are checked when the session loads, not by
            # its first solve.
            *[
                ("POST", "/sessions", dict(workload.session_payload("x"), **bad), 400)
                for bad in (
                    {"engine": "bogus"},
                    {"engine": "native"},
                    {"engine": 3},
                    {"jobs": "two"},
                    {"jobs": 0},
                    {"jobs": 1.5},
                    {"jobs": True},
                )
            ],
        ]:
            try:
                await client.request(method, path, payload)
                cases.append((path, None))
            except ServeError as error:
                cases.append((path, (error.status, want)))
        return cases

    cases = serve_harness(scenario)
    for path, outcome in cases:
        assert outcome is not None, f"{path} unexpectedly succeeded"
        status, want = outcome
        assert status == want, f"{path}: got {status}, wanted {want}"


def test_malformed_http_body_is_a_400(workload, serve_harness):
    async def scenario(server, client):
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        body = b"this is not json"
        writer.write(
            b"POST /sessions HTTP/1.1\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
        )
        await writer.drain()
        status_line = await reader.readline()
        writer.close()
        await writer.wait_closed()
        return status_line

    status_line = serve_harness(scenario)
    assert b"400" in status_line


def test_concurrent_sessions_are_independent(workload, serve_harness):
    direct = workload.direct_graph()
    (instance, cell), = workload.resizable_instances(1)

    async def scenario(server, client):
        await client.create_session(workload.session_payload("a"))
        await client.create_session(workload.session_payload("b"))
        await client.resize_instance("a", instance, cell.name)
        slack_a = await client.slack("a")
        slack_b = await client.slack("b")
        return slack_a, slack_b

    slack_a, slack_b = serve_harness(scenario)
    untouched = direct.worst_slack(DelayModel.UPPER_BOUND)
    assert slack_b["worst_slack"] == untouched
    direct.resize_instance(instance, cell)
    assert slack_a["worst_slack"] == direct.worst_slack(DelayModel.UPPER_BOUND)
    assert slack_a["version"] == 1 and slack_b["version"] == 0
