"""CI smoke gate for ``repro serve`` (the ``serve-smoke`` job).

Exercises the serving stack the way a user would, end to end:

1. Run the bundled ChIP-seq example once through ``repro run`` (a cold
   subprocess), read the materialised outputs back, and digest them --
   the identity reference.
2. Boot an in-process server (:class:`~repro.serve.server.ServerThread`)
   over the same bundled CHIP dataset and fire concurrent clients at it;
   every response must be a 200 carrying exactly the CLI digest, the
   warm result cache must report hits (the warm state actually engaged),
   and some responses must reuse the digest memoised with their cached
   result instead of re-hashing it.
3. Boot the real ``python -m repro serve`` subprocess on an ephemeral
   port, query it over HTTP, and shut it down with SIGINT -- the
   listener line, the query path and the graceful-exit path of the CLI
   entry point all get covered.
4. Assert no worker processes leaked past shutdown.

Exits non-zero (with a FAIL line) on the first violated invariant.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")
sys.path.insert(0, SRC_DIR)

CHIP_DIR = os.path.join(REPO_ROOT, "examples", "data", "CHIP")
QUERY_PATH = os.path.join(
    REPO_ROOT, "examples", "queries", "chipseq_overview.gmql"
)
CLIENTS = 4
REQUESTS_PER_CLIENT = 3


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def subprocess_env_from_env() -> dict:
    env = dict(os.environ)
    previous = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = SRC_DIR + (os.pathsep + previous if previous else "")
    return env


def cli_reference_digest(program: str) -> str:
    """Digest of the example's outputs from one cold ``repro run``."""
    from repro.formats import read_dataset
    from repro.gdm.digest import results_digest

    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as out_dir:
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "run", QUERY_PATH,
             "--source", f"CHIP={CHIP_DIR}", "--engine", "auto",
             "--out", out_dir],
            env=subprocess_env_from_env(), capture_output=True, text=True,
        )
        if completed.returncode != 0:
            fail(f"reference `repro run` exited {completed.returncode}: "
                 f"{completed.stderr.strip()}")
        results = {
            name: read_dataset(os.path.join(out_dir, name), name)
            for name in sorted(os.listdir(out_dir))
        }
    if sorted(results) != ["COUNTS", "PAIRS"]:
        fail(f"reference run materialised {sorted(results)}, expected "
             f"['COUNTS', 'PAIRS']")
    return results_digest(results)


def in_process_server_check(program: str, reference_digest: str) -> None:
    """Concurrent clients against an embedded server: 200s + identity."""
    import multiprocessing

    from repro.formats import read_dataset
    from repro.serve.admission import AdmissionController, TenantQuota
    from repro.serve.client import ServeClient
    from repro.serve.server import QueryServer, ServerThread
    from repro.serve.state import WarmState
    from repro.store.cache import reset_result_cache

    reset_result_cache()
    state = WarmState(
        {"CHIP": read_dataset(CHIP_DIR, "CHIP")},
        engine="auto", workers=2,
    )
    server = QueryServer(
        state,
        admission=AdmissionController(default_quota=TenantQuota(
            max_concurrent=CLIENTS * 2, max_deadline_seconds=None,
        )),
        max_concurrency=3,
    )
    outcomes: list = []
    lock = threading.Lock()

    def client_worker(index: int) -> None:
        client = ServeClient(port=thread.port)
        try:
            for __ in range(REQUESTS_PER_CLIENT):
                response = client.query(program, tenant=f"smoke-{index}")
                with lock:
                    outcomes.append(
                        (response.status, response.payload.get("digest"))
                    )
        finally:
            client.close()

    with ServerThread(server) as thread:
        workers = [
            threading.Thread(target=client_worker, args=(index,))
            for index in range(CLIENTS)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        probe = ServeClient(port=thread.port)
        stats = probe.stats().payload
        probe.close()

    expected = CLIENTS * REQUESTS_PER_CLIENT
    if len(outcomes) != expected:
        fail(f"expected {expected} responses, got {len(outcomes)}")
    bad = [status for status, __ in outcomes if status != 200]
    if bad:
        fail(f"{len(bad)} response(s) were not 200: {sorted(set(bad))}")
    wrong = [d for __, d in outcomes if d != reference_digest]
    if wrong:
        fail(f"{len(wrong)} served digest(s) differ from the CLI run "
             f"({wrong[0]} != {reference_digest})")
    hits = stats["result_cache"]["hits"]
    if hits <= 0:
        fail("warm server reports zero result-cache hits under a "
             "repeated-query load")
    reused = stats["scheduler"]["digests_reused"]
    if reused <= 0:
        fail("warm server reports zero reused digests under a "
             "repeated-query load")
    leaked = multiprocessing.active_children()
    if leaked:
        fail(f"worker processes leaked past server shutdown: {leaked}")
    print(f"in-process server: {expected} concurrent responses, all 200 "
          f"and CLI-identical; {hits} warm cache hit(s), {reused} "
          f"reused digest(s); no leaked workers")


def cli_server_check(program: str, reference_digest: str) -> None:
    """The real ``repro serve`` subprocess: boot, query, SIGINT."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--source", f"CHIP={CHIP_DIR}", "--port", "0",
         "--engine", "auto", "--workers", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=subprocess_env_from_env(),
    )
    try:
        line = proc.stdout.readline()
        match = re.search(r"http://([\d.]+):(\d+)", line)
        if not match:
            proc.kill()
            fail(f"`repro serve` printed no listen address: {line!r}")
        connection = http.client.HTTPConnection(
            match.group(1), int(match.group(2)), timeout=120
        )
        connection.request(
            "POST", "/query",
            body=json.dumps({"program": program}).encode(),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        payload = json.loads(response.read())
        connection.close()
        if response.status != 200:
            fail(f"`repro serve` answered {response.status}: {payload}")
        if payload.get("digest") != reference_digest:
            fail(f"`repro serve` digest {payload.get('digest')} differs "
                 f"from the CLI run {reference_digest}")
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
        exit_code = proc.wait(timeout=60)
    if exit_code != 0:
        fail(f"`repro serve` exited {exit_code} after SIGINT")
    print("subprocess server: booted, answered identically, "
          "exited 0 on SIGINT")


def main() -> int:
    with open(QUERY_PATH) as handle:
        program = handle.read()
    reference_digest = cli_reference_digest(program)
    print(f"reference digest from cold CLI run: {reference_digest}")
    in_process_server_check(program, reference_digest)
    cli_server_check(program, reference_digest)
    print("serve smoke gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
