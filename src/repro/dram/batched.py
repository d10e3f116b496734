"""Batched memory-system replay (crossbar + FR-FCFS DRAM).

The scalar replay path (:class:`~repro.interconnect.crossbar.Crossbar`
feeding :class:`~repro.dram.memory_system.MemorySystem`) walks one
request at a time through Python method calls; profiling shows nearly
all of its cost is interpreter overhead — object construction,
per-burst method dispatch, ``_BurstQueue`` bookkeeping — not model
work. This module adds the columnar twin: :class:`BatchedReplay`
consumes :class:`~repro.core.columnar.ColumnarTrace` blocks and
replays them **bit-identically** to the scalar event loop, field for
field on :class:`~repro.dram.stats.MemorySystemStats`.

Span transcription
------------------

Each block replays as one span: a faithful transcription of the whole
scalar loop — crossbar forward times, ``MemorySystem.submit``
(including queue-full backpressure relief), the
:class:`~repro.dram.controller.MemoryController` event loop (FR-FCFS
pick, open-adaptive row retention, write-drain watermarks, turnaround
records) and per-request completion, including the
``on_request_complete`` hook in scalar completion order — over
primitive ints, dicts and lists instead of ``Burst`` objects and
per-burst method dispatch. Backpressure is handled inline exactly as
the scalar loop handles it, so a span never diverges and commits
whole: queues, bank states, flags and statistics are written back into
the real objects, so spans interleave freely with scalar sends and
with the final scalar drain.

Feedback (Option B)
-------------------

With ``feedback=True`` the engine replays the paper's coupled mode
("Simulator Feedback"): each request is shifted by the sum of the
crossbar delays every earlier request saw, exactly as
:class:`~repro.core.synthesis.FeedbackSynthesizer` feeding
``Crossbar.send`` does. Feedback never changes *which* requests are
drawn, so Option B is open-loop replay carrying one extra integer —
the offset — across spans and blocks.

Fallback matrix
---------------

The fast path disengages entirely (every request runs scalar) when any
of these hold; results stay identical, only speed changes:

* numpy is unavailable (stdlib ``array`` column store),
* refresh is enabled (``t_refi > 0``),
* a ChargeCache is attached,
* the page policy is not ``open`` or ``open_adaptive``,
* an observability event sink is attached (per-burst events cannot be
  replayed from columns),
* timestamps exceed the int64 fast-path ceiling.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .. import obs
from ..core.columnar import ColumnarTrace, numpy_or_none
from ..core.request import MemoryRequest, Operation
from ..interconnect.crossbar import Crossbar, CrossbarConfig
from .address_map import Burst
from .config import MemoryConfig
from .controller import _BankState, _BurstQueue
from .memory_system import MemorySystem
from .stats import MemorySystemStats

#: Timestamp ceiling for the int64 fast-path arithmetic.
_TIME_CEILING = 1 << 61


def batched_replay_supported(
    config: Optional[MemoryConfig] = None,
    crossbar_config: Optional[CrossbarConfig] = None,
) -> bool:
    """Whether the batched fast path can engage for this setup.

    ``False`` means batched replay would be pure pass-through — callers
    should keep the plain scalar loop. The checks mirror the fallback
    matrix in the module docstring; ``crossbar_config`` imposes no
    constraints today but participates in the signature so dispatch
    sites stay future-proof.
    """
    del crossbar_config  # no crossbar constraints; any latency/gap works
    if numpy_or_none() is None:
        return False
    config = config if config is not None else MemoryConfig()
    if config.timing.t_refi:
        return False
    if config.charge_cache is not None:
        return False
    if config.page_policy not in ("open", "open_adaptive"):
        return False
    registry = obs.active()
    if registry is not None and registry.sink is not None:
        return False
    return True


class BatchedReplay:
    """Replay engine over column blocks.

    Feed time-ordered :class:`ColumnarTrace` blocks with :meth:`feed`
    (or requests the column store cannot hold with :meth:`send_each`),
    then call :meth:`finish` to drain and read the statistics. The
    engine owns a real :class:`MemorySystem` + :class:`Crossbar`; every
    span commit writes queues, bank states, flags and statistics back
    into those objects, so fast spans and scalar interop mix
    seamlessly. ``feedback=True`` replays Option B (see the module
    docstring).
    """

    __slots__ = ("memory", "crossbar", "_np", "_fast_ok", "_feedback", "_offset", "_obs")

    def __init__(
        self,
        config: Optional[MemoryConfig] = None,
        crossbar_config: Optional[CrossbarConfig] = None,
        feedback: bool = False,
    ) -> None:
        self.memory = MemorySystem(config)
        self.crossbar = Crossbar(self.memory, crossbar_config)
        self._np = numpy_or_none()
        self._fast_ok = batched_replay_supported(self.memory.config, self.crossbar.config)
        self._feedback = feedback
        self._offset = 0
        self._obs = obs.active()

    @property
    def stats(self) -> MemorySystemStats:
        return self.memory.stats

    # -- driving ---------------------------------------------------------------

    def feed(self, block: ColumnarTrace) -> None:
        """Replay one column block (requests in time order)."""
        if not len(block):
            return
        if self._fast_ok:
            ts = self._np.asarray(block.timestamps, dtype=self._np.uint64)
            if int(ts.max()) <= _TIME_CEILING:
                self._run_span(block, ts.tolist())
                return
        self.send_each(block.iter_requests())

    def send_each(self, requests: Iterable[MemoryRequest]) -> None:
        """Forward requests one at a time through the scalar crossbar.

        The path for requests the span loop cannot take; in feedback
        mode it shifts each request by the offset, as
        :class:`~repro.core.synthesis.FeedbackSynthesizer` does.
        """
        if not self._feedback:
            self.crossbar.send_many(requests)
            return
        send = self.crossbar.send
        offset = self._offset
        events = 0
        for request in requests:
            if offset:
                request = MemoryRequest(
                    request.timestamp + offset,
                    request.address,
                    request.operation,
                    request.size,
                )
            delay = send(request)
            if delay:
                offset += delay
                events += 1
        self._commit_feedback(offset, events)

    def finish(self) -> MemorySystemStats:
        """Drain every queued burst and return the system statistics."""
        self.memory.drain()
        return self.memory.stats

    # -- internals -------------------------------------------------------------

    def _commit_feedback(self, offset: int, events: int) -> None:
        """Advance the feedback offset; ``events`` delays were nonzero."""
        registry = self._obs
        if registry is not None and events:
            registry.counter("synthesis.backpressure_events").inc(events)
            registry.counter("synthesis.backpressure_delay_cycles").inc(offset - self._offset)
            registry.gauge("synthesis.accumulated_delay_cycles").set(offset)
        self._offset = offset

    def _run_span(self, block: ColumnarTrace, ts_l) -> None:
        """Replay one block as a transcription of the scalar loop.

        One pass over the block reproduces, over primitive ints, exactly
        what ``Crossbar.send`` + ``MemorySystem.submit`` + the
        controllers' ``service_until``/``service_one``/``enqueue`` do —
        including queue-full backpressure relief and every statistics
        side effect — then commits the resulting state into the real
        objects. Completion accounting mutates ``memory._outstanding``
        directly (the commit is unconditional, so no rollback is ever
        needed).
        """
        memory = self.memory
        crossbar = self.crossbar
        address_map = memory.address_map
        expand = address_map.expand_many(block.addresses, block.sizes)
        decoded = address_map.decode_many(expand.addresses)
        addresses = expand.addresses
        off_l = expand.offsets.tolist()
        chan_l = decoded.channel.tolist()
        bank_l = decoded.bank_id.tolist()
        row_l = decoded.row.tolist()
        ops_l = _tolist(block.ops)
        n = len(ts_l)
        config = memory.config
        timing = config.timing
        t_rp = timing.t_rp
        t_rcd = timing.t_rcd
        t_cl = timing.t_cl
        t_burst = timing.t_burst
        t_rtw = timing.t_rtw
        t_wtr = timing.t_wtr
        adaptive = config.page_policy == "open_adaptive"
        low = config.write_low_watermark
        high = config.write_high_watermark
        read_capacity = config.read_queue_size
        write_capacity = config.write_queue_size
        latency = crossbar.config.latency
        gap = crossbar.config.min_gap
        track = self._obs is not None

        # -- load carried state from the real objects ----------------------
        num_channels = config.num_channels
        controllers = memory.controllers
        banks_l = []
        busf_l = []
        lww_l = []
        drain_l = []
        rs_l = []
        rq_l = []
        wq_l = []
        byr_l = []
        byw_l = []
        rseq_l = []
        wseq_l = []
        for controller in controllers:
            banks_l.append(
                {
                    bank: [state.open_row, state.ready_at]
                    for bank, state in controller._banks.items()
                }
            )
            busf_l.append(controller._bus_free_at)
            lww_l.append(controller._last_was_write)
            drain_l.append(controller._draining_writes)
            rs_l.append(controller._reads_since_turnaround)
            for queue, store_q, store_by, store_seq in (
                (controller._read_queue, rq_l, byr_l, rseq_l),
                (controller._write_queue, wq_l, byw_l, wseq_l),
            ):
                entries = {}
                byrow = {}
                seq = 0
                for burst in queue:
                    row = burst.coordinates.row
                    entries[seq] = (
                        burst.arrival_time, burst.bank_id, row,
                        burst.request_id, burst,
                    )
                    byrow.setdefault((burst.bank_id, row), []).append(seq)
                    seq += 1
                store_q.append(entries)
                store_by.append(byrow)
                store_seq.append(seq)

        nr_l = [0] * num_channels
        nw_l = [0] * num_channels
        rh_l = [0] * num_channels
        wh_l = [0] * num_channels
        turn_l = [[] for _ in range(num_channels)]
        firstst_l = [-1] * num_channels
        lastf_l = [0] * num_channels
        rqseen_l = [{} for _ in range(num_channels)]
        wqseen_l = [{} for _ in range(num_channels)]
        pbr_l = [{} for _ in range(num_channels)]
        pbw_l = [{} for _ in range(num_channels)]
        depr_l = [[0, 0, None, None] for _ in range(num_channels)]
        depw_l = [[0, 0, None, None] for _ in range(num_channels)]

        outstanding = memory._outstanding
        hook = memory.on_request_complete
        feedback = self._feedback
        offset = self._offset
        lat = [0, 0]  # latency_sum delta, latency_count delta
        xb = [0, 0, None, None]  # crossbar delay count/total/min/max
        stalls = [0, 0]  # count, cycles
        bp_total = 0
        xb_total = 0
        carry = crossbar._last_forward_time
        last_submit = memory._last_submit_time
        next_id = memory._next_request_id
        presented = memory._last_presented_time

        def service(ch, limit):
            """``service_until(limit)``; ``limit=None`` = ``service_one``.

            Returns the issued burst's finish time in the ``service_one``
            case (the backpressure relief path), else 0.
            """
            banks = banks_l[ch]
            rq = rq_l[ch]
            wq = wq_l[ch]
            byr = byr_l[ch]
            byw = byw_l[ch]
            bus_free = busf_l[ch]
            last_was_write = lww_l[ch]
            draining = drain_l[ch]
            reads_since = rs_l[ch]
            turn = turn_l[ch]
            freed = 0
            while rq or wq:
                # _choose_direction (records turnarounds even when the
                # decision-time check below then cuts the issue off).
                if draining and wq and not (len(wq) <= low and rq):
                    direction = True
                else:
                    draining = False
                    if len(wq) >= high:
                        draining = True
                        turn.append(reads_since)
                        reads_since = 0
                        direction = True
                    elif rq:
                        direction = False
                    elif wq:
                        draining = True
                        turn.append(reads_since)
                        reads_since = 0
                        direction = True
                    else:
                        break
                if direction:
                    entries, byrow = wq, byw
                else:
                    entries, byrow = rq, byr
                earliest = entries[next(iter(entries))][0]
                decision = bus_free if bus_free > earliest else earliest
                if limit is not None and decision >= limit:
                    break
                # _pick_burst: first-arrived row hit, else the FIFO-oldest
                # (whose arrival never exceeds decision, by construction).
                best = None
                for bank_id, bank_state in banks.items():
                    open_row = bank_state[0]
                    if open_row is None:
                        continue
                    key = (bank_id, open_row)
                    row_queue = byrow.get(key)
                    if row_queue is None:
                        continue
                    while row_queue and row_queue[0] not in entries:
                        del row_queue[0]
                    if not row_queue:
                        del byrow[key]
                        continue
                    seq = row_queue[0]
                    if best is None or seq < best:
                        best = seq
                if best is not None and entries[best][0] <= decision:
                    seq = best
                else:
                    seq = next(iter(entries))
                # _issue
                _arrival, bank_id, row, rid, _payload = entries.pop(seq)
                key = (bank_id, row)
                row_queue = byrow.get(key)
                if row_queue is not None:
                    while row_queue and row_queue[0] not in entries:
                        del row_queue[0]
                    if not row_queue:
                        del byrow[key]
                bank_state = banks.get(bank_id)
                if bank_state is None:
                    banks[bank_id] = bank_state = [None, 0]
                row_hit = bank_state[0] == row
                start = decision if decision > bank_state[1] else bank_state[1]
                if last_was_write is not None and last_was_write != direction:
                    stalled = bus_free + (t_wtr if last_was_write else t_rtw)
                    if stalled > start:
                        start = stalled
                if not row_hit:
                    if bank_state[0] is not None:
                        start += t_rp
                    start += t_rcd
                finish = start + t_burst
                bus_free = finish
                last_was_write = direction
                bank_state[0] = row
                bank_state[1] = finish
                if adaptive:
                    # open-adaptive: precharge unless a queued burst
                    # (either queue) still targets this row.
                    pending_hit = False
                    for other_entries, other_byrow in ((rq, byr), (wq, byw)):
                        row_queue = other_byrow.get(key)
                        if row_queue is None:
                            continue
                        while row_queue and row_queue[0] not in other_entries:
                            del row_queue[0]
                        if row_queue:
                            pending_hit = True
                            break
                        del other_byrow[key]
                    if not pending_hit:
                        bank_state[0] = None
                        bank_state[1] = finish + t_rp
                # _record_issue + _complete_burst
                if firstst_l[ch] < 0:
                    firstst_l[ch] = start
                lastf_l[ch] = finish
                if direction:
                    nw_l[ch] += 1
                    wh_l[ch] += row_hit
                    per_bank = pbw_l[ch]
                    completion = finish
                else:
                    nr_l[ch] += 1
                    rh_l[ch] += row_hit
                    per_bank = pbr_l[ch]
                    reads_since += 1
                    completion = finish + t_cl
                per_bank[bank_id] = per_bank.get(bank_id, 0) + 1
                entry = outstanding[rid]
                entry[0] -= 1
                if completion > entry[2]:
                    entry[2] = completion
                if entry[0] == 0:
                    latency = entry[2] - entry[1]
                    lat[0] += latency
                    lat[1] += 1
                    del outstanding[rid]
                    if hook is not None:
                        hook(rid, latency)
                if limit is None:
                    freed = finish
                    break
            busf_l[ch] = bus_free
            lww_l[ch] = last_was_write
            drain_l[ch] = draining
            rs_l[ch] = reads_since
            return freed

        # -- the scalar outer loop: crossbar.send + memory.submit ----------
        for k in range(n):
            t_k = ts_l[k] + offset
            forward = t_k + latency
            if carry is not None:
                shifted = carry + gap
                if shifted > forward:
                    forward = shifted
            presented = forward
            accept = presented if presented > last_submit else last_submit
            rid = next_id
            next_id += 1
            first_burst = off_l[k]
            last_burst = off_l[k + 1]
            outstanding[rid] = [last_burst - first_burst, t_k, 0]
            is_write = ops_l[k]
            for j in range(first_burst, last_burst):
                ch = chan_l[j]
                service(ch, accept)
                if is_write:
                    entries = wq_l[ch]
                    capacity = write_capacity
                else:
                    entries = rq_l[ch]
                    capacity = read_capacity
                while len(entries) >= capacity:
                    freed = service(ch, None)
                    if freed > accept:
                        accept = freed
                depth = len(entries)
                bank = bank_l[j]
                row = row_l[j]
                if is_write:
                    seen = wqseen_l[ch]
                    seq = wseq_l[ch]
                    wseq_l[ch] = seq + 1
                    byrow = byw_l[ch]
                else:
                    seen = rqseen_l[ch]
                    seq = rseq_l[ch]
                    rseq_l[ch] = seq + 1
                    byrow = byr_l[ch]
                seen[depth] = seen.get(depth, 0) + 1
                entries[seq] = (accept, bank, row, rid, j)
                row_queue = byrow.get((bank, row))
                if row_queue is None:
                    byrow[(bank, row)] = [seq]
                else:
                    row_queue.append(seq)
                if track:
                    depth += 1
                    dep = depw_l[ch] if is_write else depr_l[ch]
                    dep[0] += 1
                    dep[1] += depth
                    if dep[2] is None or depth < dep[2]:
                        dep[2] = depth
                    if dep[3] is None or depth > dep[3]:
                        dep[3] = depth
            bp_total += accept - presented
            last_submit = accept
            carry = accept
            delay = accept - (t_k + latency)
            xb_total += delay
            if feedback:
                offset += delay
            if track:
                xb[0] += 1
                xb[1] += delay
                if xb[2] is None or delay < xb[2]:
                    xb[2] = delay
                if xb[3] is None or delay > xb[3]:
                    xb[3] = delay
                if delay > 0:
                    stalls[0] += 1
                    stalls[1] += delay

        # -- commit back into the real objects -----------------------------
        issued_total = 0
        hits_total = 0
        for ch, controller in enumerate(controllers):
            stats = controller.stats
            issues = nr_l[ch] + nw_l[ch]
            issued_total += issues
            hits_total += rh_l[ch] + wh_l[ch]
            stats.read_bursts += nr_l[ch]
            stats.write_bursts += nw_l[ch]
            stats.read_row_hits += rh_l[ch]
            stats.write_row_hits += wh_l[ch]
            for length, count in rqseen_l[ch].items():
                stats.read_queue_len_seen[length] += count
            for length, count in wqseen_l[ch].items():
                stats.write_queue_len_seen[length] += count
            for bank, count in pbr_l[ch].items():
                stats.per_bank_reads[bank] += count
            for bank, count in pbw_l[ch].items():
                stats.per_bank_writes[bank] += count
            stats.reads_per_turnaround.extend(turn_l[ch])
            if issues:
                if stats.first_issue_time < 0:
                    stats.first_issue_time = firstst_l[ch]
                stats.last_finish_time = lastf_l[ch]
                stats.data_bus_busy_cycles += t_burst * issues
            real_banks = controller._banks
            for bank, state in banks_l[ch].items():
                real = real_banks.get(bank)
                if real is None:
                    real_banks[bank] = real = _BankState()
                real.open_row = state[0]
                real.ready_at = state[1]
            controller._bus_free_at = busf_l[ch]
            controller._last_was_write = lww_l[ch]
            controller._draining_writes = drain_l[ch]
            controller._reads_since_turnaround = rs_l[ch]
            controller._read_queue = _rebuild_queue(
                rq_l[ch], Operation.READ, addresses, address_map
            )
            controller._write_queue = _rebuild_queue(
                wq_l[ch], Operation.WRITE, addresses, address_map
            )
            if track:
                for summary, histogram in (
                    (depr_l[ch], controller._obs_read_depth),
                    (depw_l[ch], controller._obs_write_depth),
                ):
                    if summary[0]:
                        histogram.observe_summary(*summary)

        memory.stats.latency_sum += lat[0]
        memory.stats.latency_count += lat[1]
        memory.stats.backpressure_delay += bp_total
        memory._next_request_id = next_id
        memory.last_request_id = next_id - 1
        memory._last_presented_time = presented
        memory._last_submit_time = last_submit
        crossbar._last_forward_time = carry
        crossbar.total_delay += xb_total
        if track:
            registry = self._obs
            registry.counter("dram.enqueued").inc(off_l[n])
            if issued_total:
                registry.counter("dram.issued").inc(issued_total)
            if hits_total:
                registry.counter("dram.row_hits").inc(hits_total)
            registry.counter("crossbar.forwarded").inc(n)
            registry.histogram("crossbar.delay_cycles").observe_summary(*xb)
            if stalls[0]:
                registry.counter("crossbar.stalls").inc(stalls[0])
                registry.counter("crossbar.stall_cycles").inc(stalls[1])
        if feedback:
            self._commit_feedback(offset, stalls[0])


def _rebuild_queue(records, operation, addresses, address_map):
    """Real ``_BurstQueue`` holding a span's leftover bursts.

    ``records`` is the span's primitive queue dict (insertion order ==
    FIFO order == arrival order). Block-born leftovers carry their
    global burst column index and are materialized here; carried-in
    ``Burst`` objects pass through untouched.
    """
    queue = _BurstQueue()
    for arrival, _bank, _row, request_id, payload in records.values():
        if type(payload) is int:
            address = int(addresses[payload])
            burst = Burst(
                address=address,
                operation=operation,
                coordinates=address_map.decode(address),
                arrival_time=arrival,
                request_id=request_id,
            )
        else:
            burst = payload  # carried in from before the span
        queue.append(burst)
    return queue


def _tolist(column):
    """Plain-int list from a numpy or stdlib-array column."""
    return [int(v) for v in column.tolist()]
