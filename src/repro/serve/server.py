"""The asyncio HTTP/JSON timing server.

:class:`TimingServer` is a hand-rolled HTTP/1.1 keep-alive server on
:func:`asyncio.start_server` -- stdlib only, no framework.  Handler
coroutines are traffic plumbing: they parse payloads through
:mod:`repro.serve.schema`, take the session lock, and hand the actual
compute (a synchronous :class:`~repro.serve.session.Session` method) to a
thread-pool executor.  No handler coroutine calls a solve/sweep kernel or
ECO hook directly -- reprolint RL009 rejects the module if one does -- so
the event loop never blocks on a forest sweep and stays responsive to
other clients while one is solving.

Routes (all bodies JSON)::

    GET    /healthz                              liveness + session count
    GET    /sessions                             list session names
    POST   /sessions                             load a design (in-RAM or store)
    GET    /sessions/{name}                      version + coalescing stats
    DELETE /sessions/{name}                      close and drop the session
    POST   /sessions/{name}/close                alias for DELETE
    POST   /sessions/{name}/eco/update_net       {"net", "lumped_capacitance"|"tree"}
    POST   /sessions/{name}/eco/resize_instance  {"instance", "cell"}
    POST   /sessions/{name}/query/slack          {"model"?, "pins"?}
    POST   /sessions/{name}/query/summary        {"model"?}
    POST   /sessions/{name}/query/corners        {"scenarios", "model"?, "paths"?}
    POST   /sessions/{name}/query/whatif         {"swaps", "model"?}

Every mutating response carries the session ``version`` stamped under the
lock; what-if responses carry the version the scores were computed
against.  That version order *is* the linearization the property tests
replay.
"""

from __future__ import annotations

import asyncio
import json
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Optional, Tuple

from repro.core.exceptions import RCTreeError
from repro.scenarios import ScenarioSet
from repro.serve.batcher import WhatIfBatcher
from repro.serve.schema import (
    ServeError,
    cell_from_payload,
    design_from_payload,
    execution_from_payload,
    model_from_payload,
    parasitics_from_payload,
    parse_json_body,
    swaps_from_payload,
)
from repro.serve.session import Session, SessionRegistry
from repro.sta.delaycalc import DelayModel

__all__ = ["TimingServer", "run_server"]

_MAX_BODY = 64 * 1024 * 1024
_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    500: "Internal Server Error",
}


def _method_not_allowed(method: str) -> ServeError:
    return ServeError(
        f"method {method} not allowed here", status=405, code="method_not_allowed"
    )


class TimingServer:
    """One server process: a session registry behind an asyncio listener."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        tick: float = 0.002,
        engine: Optional[str] = None,
        jobs: Optional[int] = None,
        executor_workers: int = 4,
    ):
        self._host = host
        self._port = port
        self._tick = tick
        self._engine = engine
        self._jobs = jobs
        self.registry = SessionRegistry()
        self._batchers: Dict[str, WhatIfBatcher] = {}
        self._executor = ThreadPoolExecutor(
            max_workers=executor_workers, thread_name_prefix="repro-serve"
        )
        self._server: Optional[asyncio.AbstractServer] = None

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections (port 0 picks an ephemeral one)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port
        )

    @property
    def port(self) -> int:
        """The bound port (resolves 0 to the ephemeral port after start)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting, flush batchers, close every session, free the pool."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for batcher in list(self._batchers.values()):
            await batcher.close()
        self._batchers.clear()
        for session in await self.registry.drain():
            session.close()
        self._executor.shutdown(wait=True)

    async def serve_forever(self) -> None:
        """Run until cancelled (the CLI entry point); starts if needed."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # -- HTTP plumbing ------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, path, body, keep_alive = request
                status, payload = await self._dispatch(method, path, body)
                await self._write_response(writer, status, payload, keep_alive)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, bytes, bool]]:
        try:
            request_line = await reader.readline()
        except (ConnectionError, asyncio.IncompleteReadError):
            return None
        if not request_line:
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            return None
        method, target, protocol = parts
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length < 0 or length > _MAX_BODY:
            return None
        body = await reader.readexactly(length) if length else b""
        connection = headers.get("connection", "").lower()
        keep_alive = connection != "close" and protocol.upper() != "HTTP/1.0"
        return method.upper(), target.split("?", 1)[0], body, keep_alive

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, Any],
        keep_alive: bool,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    # -- routing ------------------------------------------------------------

    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, Any]]:
        try:
            return 200, await self._route(method, path, body)
        except ServeError as error:
            return error.status, error.to_payload()
        except RCTreeError as error:
            # Engine-level refusals (bad net, incompatible swap, ...) are
            # client errors: the session state is untouched.
            return 400, {
                "ok": False,
                "error": {"code": "analysis_error", "message": str(error)},
            }
        except Exception as error:  # noqa: BLE001 - last-resort boundary
            return 500, {
                "ok": False,
                "error": {"code": "internal_error", "message": repr(error)},
            }

    async def _route(
        self, method: str, path: str, body: bytes
    ) -> Dict[str, Any]:
        segments = [part for part in path.split("/") if part]
        if segments == ["healthz"]:
            if method != "GET":
                raise _method_not_allowed(method)
            return {
                "ok": True,
                "sessions": len(await self.registry.names()),
            }
        if segments == ["sessions"]:
            if method == "GET":
                return {"ok": True, "sessions": await self.registry.names()}
            if method == "POST":
                return await self._create_session(parse_json_body(body))
            raise _method_not_allowed(method)
        if len(segments) >= 2 and segments[0] == "sessions":
            name = segments[1]
            rest = segments[2:]
            if not rest:
                if method == "GET":
                    return await self._session_info(name)
                if method == "DELETE":
                    return await self._close_session(name)
                raise _method_not_allowed(method)
            if rest == ["close"] and method == "POST":
                return await self._close_session(name)
            if len(rest) == 2 and method == "POST":
                group, action = rest
                payload = parse_json_body(body)
                if group == "eco" and action == "update_net":
                    return await self._eco_update_net(name, payload)
                if group == "eco" and action == "resize_instance":
                    return await self._eco_resize_instance(name, payload)
                if group == "query" and action == "slack":
                    return await self._query_slack(name, payload)
                if group == "query" and action == "summary":
                    return await self._query_summary(name, payload)
                if group == "query" and action == "corners":
                    return await self._query_corners(name, payload)
                if group == "query" and action == "whatif":
                    return await self._query_whatif(name, payload)
        raise ServeError(f"no route for {path!r}", status=404, code="unknown_route")

    # -- session lifecycle handlers -----------------------------------------

    async def _create_session(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        name = payload.get("name")
        if not isinstance(name, str) or not name:
            raise ServeError("payload field 'name' must be a non-empty string")
        design = design_from_payload(payload)
        raw_parasitics = payload.get("parasitics", [])
        if not isinstance(raw_parasitics, list):
            raise ServeError("'parasitics' must be a list of per-net objects")
        parasitics = {}
        for item in raw_parasitics:
            if not isinstance(item, dict):
                raise ServeError("each parasitics entry must be a JSON object")
            parsed = parasitics_from_payload(item)
            parasitics[parsed.net] = parsed
        store_dir = payload.get("store_dir")
        if store_dir is not None and not isinstance(store_dir, str):
            raise ServeError("'store_dir' must be a directory path string")
        engine, jobs = execution_from_payload(payload, self._engine, self._jobs)

        def build() -> Session:
            return Session(
                name,
                design,
                parasitics,
                clock_period=float(payload.get("clock_period", 1e-9)),
                threshold=float(payload.get("threshold", 0.5)),
                input_drive_resistance=float(
                    payload.get("input_drive_resistance", 0.0)
                ),
                default_wire_capacitance=float(
                    payload.get("default_wire_capacitance", 0.0)
                ),
                store_dir=store_dir,
                engine=engine,
                jobs=jobs,
            )

        loop = asyncio.get_running_loop()
        session = await loop.run_in_executor(self._executor, build)
        try:
            await self.registry.add(session)
        except ServeError:
            session.close()
            raise
        self._batchers[name] = WhatIfBatcher(
            session, tick=self._tick, executor=self._executor
        )
        return {
            "ok": True,
            "session": name,
            "nets": len(list(session.db.timed_nets())),
            "store_backed": session.store_backed,
            "version": session.version,
        }

    async def _session_info(self, name: str) -> Dict[str, Any]:
        session = await self.registry.get(name)
        batcher = self._batchers.get(name)
        return {
            "ok": True,
            "session": name,
            "version": session.version,
            "store_backed": session.store_backed,
            "engine": session.engine,
            "jobs": session.jobs,
            "batching": batcher.stats.to_payload() if batcher else None,
        }

    async def _close_session(self, name: str) -> Dict[str, Any]:
        session = await self.registry.close(name)
        batcher = self._batchers.pop(name, None)
        if batcher is not None:
            await batcher.close()
        async with session.lock:
            session.close()
        return {"ok": True, "session": name, "closed": True}

    # -- ECO handlers (serialized writers) ----------------------------------

    async def _eco_update_net(
        self, name: str, payload: Dict[str, Any]
    ) -> Dict[str, Any]:
        session = await self.registry.get(name)
        parasitics = parasitics_from_payload(payload)
        loop = asyncio.get_running_loop()
        async with session.lock:
            cone = await loop.run_in_executor(
                self._executor, session.apply_update_net, parasitics.net, parasitics
            )
            version = session.bump()
        return {
            "ok": True,
            "net": parasitics.net,
            "cone_vertices": cone,
            "version": version,
        }

    async def _eco_resize_instance(
        self, name: str, payload: Dict[str, Any]
    ) -> Dict[str, Any]:
        session = await self.registry.get(name)
        instance = payload.get("instance")
        if not isinstance(instance, str) or not instance:
            raise ServeError("payload field 'instance' must be a non-empty string")
        cell = cell_from_payload(payload.get("cell"), session.library)
        loop = asyncio.get_running_loop()
        async with session.lock:
            cone = await loop.run_in_executor(
                self._executor, session.apply_resize_instance, instance, cell
            )
            version = session.bump()
        return {
            "ok": True,
            "instance": instance,
            "cell": cell.name,
            "cone_vertices": cone,
            "version": version,
        }

    # -- query handlers ------------------------------------------------------

    async def _query_slack(
        self, name: str, payload: Dict[str, Any]
    ) -> Dict[str, Any]:
        session = await self.registry.get(name)
        model = model_from_payload(payload, DelayModel.UPPER_BOUND)
        pins = payload.get("pins")
        if pins is not None and (
            not isinstance(pins, list)
            or not all(isinstance(pin, str) for pin in pins)
        ):
            raise ServeError("'pins' must be a list of pin-name strings")
        loop = asyncio.get_running_loop()
        async with session.lock:
            version = session.version
            result = await loop.run_in_executor(
                self._executor, session.slack_payload, model, pins
            )
        result.update({"ok": True, "version": version})
        return result

    async def _query_summary(
        self, name: str, payload: Dict[str, Any]
    ) -> Dict[str, Any]:
        session = await self.registry.get(name)
        model = model_from_payload(payload, DelayModel.UPPER_BOUND)
        loop = asyncio.get_running_loop()
        async with session.lock:
            version = session.version
            summary = await loop.run_in_executor(
                self._executor, session.summary_payload, model
            )
        return {"ok": True, "version": version, "summary": summary}

    async def _query_corners(
        self, name: str, payload: Dict[str, Any]
    ) -> Dict[str, Any]:
        session = await self.registry.get(name)
        model = model_from_payload(payload, DelayModel.UPPER_BOUND)
        spec = payload.get("scenarios")
        if spec is None:
            raise ServeError("payload field 'scenarios' is required")
        try:
            scenarios = ScenarioSet.from_dict(spec)
        except RCTreeError as error:
            raise ServeError(f"bad scenario spec: {error}") from None
        with_paths = bool(payload.get("paths", False))
        loop = asyncio.get_running_loop()
        async with session.lock:
            version = session.version
            report = await loop.run_in_executor(
                self._executor,
                session.corners_payload,
                scenarios,
                model,
                with_paths,
            )
        return {"ok": True, "version": version, "report": report}

    async def _query_whatif(
        self, name: str, payload: Dict[str, Any]
    ) -> Dict[str, Any]:
        session = await self.registry.get(name)
        batcher = self._batchers.get(name)
        if batcher is None:
            raise ServeError(
                f"no session named {name!r}", status=404, code="unknown_session"
            )
        model = model_from_payload(payload, DelayModel.UPPER_BOUND)
        swaps = swaps_from_payload(payload, session.library)
        scores, version = await batcher.submit(swaps, model)
        return {
            "ok": True,
            "version": version,
            "model": model.value,
            "scores": scores,
        }


def run_server(
    host: str = "127.0.0.1",
    port: int = 8787,
    *,
    tick: float = 0.002,
    engine: Optional[str] = None,
    jobs: Optional[int] = None,
    executor_workers: int = 4,
) -> None:
    """Blocking entry point: start a :class:`TimingServer` and serve forever."""
    server = TimingServer(
        host,
        port,
        tick=tick,
        engine=engine,
        jobs=jobs,
        executor_workers=executor_workers,
    )

    async def main() -> None:
        await server.start()
        print(f"repro serve: listening on {host}:{server.port}", flush=True)
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass
