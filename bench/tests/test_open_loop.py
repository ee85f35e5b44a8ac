import asyncio
import time

from bench.harness import open_loop

RATE = 100.0  # one request due every 10 ms
STALL_S = 0.06


def test_latency_runs_from_the_due_time_so_a_stall_delays_later_requests():
    stalled_at = 2

    async def send(i: int) -> None:
        if i == stalled_at:
            time.sleep(STALL_S)  # blocks the loop, like a long CPU-bound step
        await asyncio.sleep(0.001)

    result = asyncio.run(open_loop(send, 12, RATE))
    assert len(result.latencies_s) == 12 and not result.failures
    # requests due during the stall start late; timed from when they were
    # due, each is charged the wait (timed from the send, none would be)
    held_back = [lat for lat in result.latencies_s if lat > 0.015]
    assert len(held_back) >= 4
    assert max(result.latencies_s) >= STALL_S - 0.01
    assert result.lag_max_s >= 0.03


def test_failed_requests_are_counted_not_timed():
    async def send(i: int) -> None:
        if i % 2:
            raise RuntimeError("refused")

    result = asyncio.run(open_loop(send, 6, 1000.0))
    assert len(result.latencies_s) == 3
    assert len(result.failures) == 3
