"""Workload ``service``: a ``repro serve`` process under closed-loop load,
then SIGKILLed with an acknowledged multi-day job in flight.

Load: 2 clients share a seeded list of single-day table-mode jobs over
grid cells, each cell listed twice, in whole rounds (see ``job_list``):
one untimed warm-up round, then timed rounds.  Each job is ``POST /jobs``
(202 = acknowledged), then the job's WebSocket until its terminal state.
First requests compute, store to the disk cache and journal; repeats hit
memory or coalesce.  Throughput is the median over timed rounds.

Crash: a sweep job of ``CRASH_DAYS`` uncached days is submitted, the
server is SIGKILLed shortly after the job starts running, and a new
server is started on the same journal and cache directories.  Its
recovered job waits out the dead process's compute leases (the default
``--lease-stale`` of 30 s: takeover checks lease age only, never whether
the owner is alive) before it finishes.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import re
import signal
import threading
import time

import checks
import common
import layers
import wl_grid

SETUPS = 5
#: Timed load rounds run at least: 5 rounds of 40 jobs put 10 beyond p95.
MIN_ROUNDS = 5
#: ``job_tail_s`` percentile, fixed so the figure keeps its meaning when
#: a faster service fits more rounds into the run.
TAIL_PERCENTILE = 95
#: ``repro simulate`` runs of served cells per run (median -> cli_p50_s).
CLI_RUNS = 5
CLI_SPACING_S = 4.0
CRASH_DAYS = 40
#: Served cells compared with a library compute per run (plus the twins),
#: and half as many days of the crash job.
CHECK_CELLS = 16
#: Seconds the crash job runs before the SIGKILL.
KILL_AFTER_S = 0.3
TERMINAL = ("done", "failed", "cancelled", "deadline_exceeded")
READY = "solarcore service on http://"


def task_doc(task) -> dict:
    doc = {"kind": task.kind, "mix": task.mix_name, "site": task.location_code,
           "month": task.month}
    if task.kind == "mppt":
        doc["policy"] = task.policy
    elif task.kind == "fixed":
        doc["budget_w"] = task.budget_w
    else:
        doc["derating"] = task.derating
    return doc


def job_list(seed: int, rounds: int):
    """``rounds`` rounds of jobs, and spare cells no round uses.

    Round ``r`` holds one day per (station, month) cell -- cell ``i``
    under scheme ``(i + r) mod 10``, its mix drawn from the seed -- so
    every run sees the same blend of stations, months and schemes, plus
    the four twin cells, which after the first round are memory hits.
    Each cell is listed twice, back to back, so the two clients usually
    submit the pair together and the second coalesces onto the first.
    """
    rng = common.rng_for(seed, "jobs")
    twins = wl_grid.twin_tasks()
    grid = wl_grid.paper_grid(0)
    cells = sorted({t.cell for t in grid})
    schemes = sorted({checks.scheme_of(t) for t in grid})
    by_key = {(t.cell, t.mix_name, checks.scheme_of(t)): t for t in grid}
    used = set(twins)
    out = []
    for r in range(rounds):
        picks = []
        for i, cell in enumerate(cells):
            scheme = schemes[(i + r) % len(schemes)]
            mixes = [m for m in common.MIXES if by_key[(cell, m, scheme)] not in used]
            task = by_key[(cell, rng.choice(mixes), scheme)]
            used.add(task)
            picks.append(task)
        picks += twins
        rng.shuffle(picks)
        out.append([t for t in picks for _ in range(2)])
    spare = [t for t in grid if t not in used]
    rng.shuffle(spare)
    return out, spare


class Server:
    """One ``repro serve`` child on fixed journal and cache directories."""

    def __init__(self, work, trace_file=None) -> None:
        self.work = work
        self.trace_file = trace_file
        args = ["serve", "--port", "0", "--solver", "table",
                "--cache-dir", str(work / "cache"),
                "--journal-dir", str(work / "journal"),
                "--snapshot-interval", "0"]
        if trace_file:
            cmd = common.probe_cmd("run", "--trace", str(trace_file), "--", *args)
        else:
            cmd = common.repro_cmd(*args)
        self.log = open(work / "server.log", "a")
        t0 = time.perf_counter()
        self.proc = common.spawn(cmd, stderr=self.log)
        line = common.wait_ready(self.proc, READY)
        self.ready_s = time.perf_counter() - t0
        self.port = int(re.search(r":(\d+)\s", line).group(1))

    def client(self):
        from repro.service.client import ServiceClient

        return ServiceClient("127.0.0.1", self.port)

    def dump_trace(self) -> None:
        """Ask a traced server to write its layer metrics now."""
        before = self.trace_file.stat().st_mtime_ns if self.trace_file.exists() else 0
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if self.trace_file.exists() and self.trace_file.stat().st_mtime_ns != before:
                return
            time.sleep(0.01)
        raise RuntimeError("traced server did not write its layer metrics")

    def peak_rss_mb(self) -> float:
        """The server's peak resident set so far (``VmHWM``) [MB]."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def stop(self, sig=signal.SIGTERM) -> None:
        common.stop(self.proc, sig)
        self.log.close()


async def one_job(client, task, samples: dict) -> dict:
    """Submit ``task``; follow its WebSocket to the terminal state."""
    t0 = time.perf_counter()
    ack = await client.submit({**task_doc(task), "solver": "table"})
    t_ack = time.perf_counter()
    t_running = None
    ws = await client.ws(f"/ws/jobs/{ack['job_id']}")
    try:
        while True:
            msg = await ws.recv()
            if msg is None:
                raise RuntimeError(f"job {ack['job_id']} stream closed early")
            if msg.get("state") == "running" and t_running is None:
                t_running = time.perf_counter()
            if msg.get("state") in TERMINAL:
                break
    finally:
        await ws.close()
    t_end = time.perf_counter()
    samples["job"].append(t_end - t0)
    samples["ack"].append(t_ack - t0)
    if t_running is not None:
        samples["queue_wait"].append(t_running - t_ack)
        samples["run"].append(t_end - t_running)
    return await client.job(ack["job_id"])


async def load(server, rounds_jobs, seconds: float, samples: dict):
    """2 closed-loop clients over whole rounds: one untimed warm-up round
    (a fresh server's first requests are slow and would otherwise make up
    much of the tail), then timed rounds until ``seconds`` pass and at
    least ``MIN_ROUNDS`` have run.

    Returns:
        (task, final status) of every job, and each timed round's jobs per
        second.
    """
    client = server.client()
    done: list[tuple] = []

    async def one_round(jobs, into: dict) -> float:
        queue = list(jobs)

        async def worker():
            while queue:
                task = queue.pop(0)
                status = await asyncio.wait_for(one_job(client, task, into), 60)
                done.append((task, status))

        t0 = time.perf_counter()
        await asyncio.gather(worker(), worker())
        return len(jobs) / (time.perf_counter() - t0)

    await one_round(rounds_jobs[0], {name: [] for name in samples})
    deadline = common.Deadline(seconds)
    rates: list[float] = []
    while len(rates) < MIN_ROUNDS or deadline.more(len(rates)):
        rates.append(await one_round(rounds_jobs[1 + len(rates)], samples))
    return done, rates


async def crash(server, work, tasks, cli_tasks, trace: bool) -> dict:
    """Submit a sweep, SIGKILL mid-job, restart, wait for every job.

    While the new server waits out the dead one's leases (it is idle for
    most of ``--lease-stale``), ``repro simulate`` runs of ``cli_tasks``
    start ``CLI_SPACING_S`` apart, so their walls sample a stretch of the
    run rather than one moment of it.
    """
    client = server.client()
    ack = await client.submit({"tasks": [task_doc(t) for t in tasks], "solver": "table"})
    deadline = time.monotonic() + 30
    while (state := (await client.job(ack["job_id"]))["state"]) != "running":
        if state in TERMINAL or time.monotonic() > deadline:
            raise RuntimeError(f"crash job reached {state!r} before the kill")
        await asyncio.sleep(0.005)
    await asyncio.sleep(KILL_AFTER_S)
    if trace:
        server.dump_trace()
    loaded_rss_mb = server.peak_rss_mb()
    t_kill = time.perf_counter()
    server.stop(signal.SIGKILL)
    leases = {p: p.read_bytes() for p in (work / "cache").glob("*.lease")}
    restarted = Server(work, work / "trace-restart.json" if trace else None)
    t_ready = time.perf_counter()
    client = restarted.client()
    stats = await client.stats()
    cli_out: list = []
    cli_thread = threading.Thread(
        target=cli_runs, args=(cli_tasks, work, t_ready, cli_out), daemon=True)
    cli_thread.start()
    # A dead server's lease ends when the new one takes it over (or drops
    # it); leases on keys whose result was already stored are never
    # touched again and do not delay anything.
    taken: dict = {}
    deadline = time.monotonic() + 120
    while True:
        now = time.perf_counter()
        for path, raw in leases.items():
            if path not in taken and not _same(path, raw):
                taken[path] = now - t_ready
        jobs = await client.jobs()
        if all(j["state"] in TERMINAL for j in jobs):
            break
        if time.monotonic() > deadline:
            raise RuntimeError("recovered jobs did not finish within 120 s")
        # Coarse polling: recovery takes ~30 s, and the CLI runs timed
        # meanwhile should not share the CPU with a busy poll loop.
        await asyncio.sleep(0.1)
    recovery_s = time.perf_counter() - t_kill
    final = {j["job_id"]: await client.job(j["job_id"]) for j in jobs}
    cli_thread.join(timeout=120)
    if len(cli_out) != len(cli_tasks):
        raise RuntimeError("repro simulate runs did not finish")
    return dict(server=restarted, ack=ack, jobs=final, recovery_s=recovery_s,
                cli=cli_out,
                loaded_rss_mb=loaded_rss_mb,
                restart_ready_s=restarted.ready_s,
                lease_wait_s=max(taken.values(), default=0.0),
                journal_replay_s=stats["recovery"]["replay_s"],
                leases=len(leases))


def _same(path, raw: bytes) -> bool:
    try:
        return path.read_bytes() == raw
    except OSError:
        return False


def run(seed: int, seconds: float, trace: bool) -> dict:
    from repro.harness.parallel import compute_task

    work = common.run_dir("service")
    config = wl_grid.table_config()
    problems: list[str] = []
    servers: list[Server] = []
    try:
        setups = []
        for _ in range(1 if trace else SETUPS):
            if servers:
                servers.pop().stop()
                common.cleanup(work / "cache")
                common.cleanup(work / "journal")
            servers.append(Server(work, work / "trace.json" if trace else None))
            setups.append(servers[-1].ready_s)
        server = servers[-1]

        rounds_jobs, spare = job_list(seed, rounds=60)
        samples = {"job": [], "ack": [], "queue_wait": [], "run": []}
        done, rates = asyncio.run(load(server, rounds_jobs, seconds, samples))

        served = {}
        for task, status in done:
            if status["state"] != "done":
                problems.append(f"{task.describe()}: job ended {status['state']}")
                continue
            served.setdefault(task, []).append(status["result"][0])

        cli_tasks = common.rng_for(seed, "cli").sample(sorted(served, key=str), CLI_RUNS)
        crash_tasks = spare[:CRASH_DAYS]
        out = asyncio.run(crash(server, work, crash_tasks, cli_tasks, trace))
        cli_walls = [wall for wall, _ in out["cli"]]
        for task, (_, stdout) in zip(cli_tasks, out["cli"]):
            problems += cli_check(task, stdout, work)
        servers.append(out["server"])
        acked = [status["job_id"] for _, status in done] + [out["ack"]["job_id"]]
        lost = [j for j in acked if out["jobs"].get(j, {}).get("state") != "done"]
        if lost:
            problems.append(f"{len(lost)} acknowledged job(s) not done after recovery")
        if not out["leases"]:
            problems.append("no compute lease was in flight at the SIGKILL")
        servers.pop().stop()

        # Every job's summary equals its cell's other summaries; a seeded
        # sample of cells (the twins always among them) and of crash-job
        # days equals a library compute (``checks.summary_matches``).
        rng = common.rng_for(seed, "check")
        crash_job = out["jobs"].get(out["ack"]["job_id"], {})
        crash_days = list(zip(crash_tasks, crash_job.get("result") or []))
        if len(crash_days) != len(crash_tasks):
            problems.append("crash job returned the wrong number of days")
        twins = [t for t in wl_grid.twin_tasks() if t in served]
        others = [t for t in served if t not in twins]
        sampled = twins + rng.sample(others, min(CHECK_CELLS, len(others)))
        crash_sample = rng.sample(crash_days, min(CHECK_CELLS // 2, len(crash_days)))
        library = {t: compute_task(t, config)
                   for t in sampled + [t for t, _ in crash_sample]}
        for task, summaries in served.items():
            if any(s != summaries[0] for s in summaries):
                problems.append(f"{task.describe()}: jobs of one cell disagree")
        for task in sampled:
            problems += checks.summary_matches(served[task][0], task, library[task])
            problems += checks.day_invariants(library[task])
        for task, summary in crash_sample:
            problems += checks.summary_matches(summary, task, library[task])
        exact = wl_grid.table_config("exact")
        errs = []
        for twin in twins:
            want = compute_task(twin, exact).ptp
            errs.append(abs(served[twin][0]["ptp"] - want) / want)

        statuses = [status for _, status in done]
        values = {
            "service.ack_s": common.median(samples["ack"]),
            "service.queue_wait_s": common.median(samples["queue_wait"] or [0.0]),
            "service.run_s": common.median(samples["run"] or [0.0]),
            "service.cache_hits": sum(s["cache_hits"] for s in statuses),
            "service.coalesced": sum(s["coalesced"] for s in statuses),
            "service.restart_ready_s": out["restart_ready_s"],
            "service.journal_replay_s": out["journal_replay_s"],
            "service.lease_wait_s": out["lease_wait_s"],
        }
        if trace:
            for name in ("trace.json", "trace-restart.json"):
                layer = common.read_json(work / name)
                values["cli.import_s"] = layer.pop("cli.import_s")
                layers.merge(values, layer)
            return dict(problems=problems, attempted=len(done), failed=0, metrics=values)
        metrics = {
            "setup_s": common.median(setups),
            "days_per_s": common.median(rates),
            "peak_rss_mb": out["loaded_rss_mb"],
            "table_err_rel": sum(errs) / len(errs),
            "job_p50_s": common.median(samples["job"]),
            "job_tail_s": common.percentile(samples["job"], TAIL_PERCENTILE),
            "jobs_per_s": common.median(rates),
            "recovery_s": out["recovery_s"],
            "cli_p50_s": common.median(cli_walls),
        }
        return dict(problems=problems, attempted=len(done), failed=0, metrics=metrics)
    finally:
        for server in servers:
            server.stop(signal.SIGKILL)
        common.cleanup(work)


def export_path(task, work):
    digest = hashlib.sha256(task.describe().encode()).hexdigest()[:12]
    return work / f"simulate-{digest}.json"


def cli_runs(tasks, work, t_ready: float, out: list) -> None:
    """Run ``repro simulate`` for each task, ``CLI_SPACING_S`` apart from
    ``t_ready`` + ``CLI_SPACING_S``; append (wall, stdout) to ``out``."""
    for i, task in enumerate(tasks):
        time.sleep(max(0.0, t_ready + (i + 1) * CLI_SPACING_S - time.perf_counter()))
        export = None if task.kind == "battery" else export_path(task, work)
        out.append(common.run_child(common.repro_cmd(
            *common.simulate_args(task, "table", export))))


def cli_check(task, stdout: str, work) -> list[str]:
    """The CLI's exported or printed figures equal the library day's."""
    from repro.harness.parallel import compute_task

    day = compute_task(task, wl_grid.table_config())
    if task.kind == "battery":
        return checks.printed_matches(stdout, [checks.battery_line(day)])
    return checks.export_matches(json.loads(export_path(task, work).read_text()), day)
