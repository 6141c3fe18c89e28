"""Failure injection: the simulated machine must fail loudly, promptly
and attributably — never hang, never corrupt another rank's results."""

import time

import numpy as np
import pytest

from repro.cluster import (
    ClusterAborted,
    CommMismatchError,
    DeadlockError,
    SpmdProgramError,
)

from conftest import make_cluster


class TestAbortPropagation:
    def test_failure_during_alltoall_releases_peers(self):
        c = make_cluster(4, timeout=10.0)

        def prog(ctx):
            if ctx.rank == 2:
                raise RuntimeError("dies before the exchange")
            ctx.comm.alltoall([ctx.rank] * ctx.size)

        with pytest.raises(SpmdProgramError) as e:
            c.run(prog)
        assert e.value.rank == 2

    def test_failure_inside_subgroup_cascades(self):
        """A rank failing while peers wait in a *sub*-communicator's
        barrier must still release them (abort cascade)."""
        c = make_cluster(4, timeout=10.0)

        def prog(ctx):
            sub = ctx.comm.split(ctx.rank % 2)
            if ctx.rank == 3:
                raise RuntimeError("dies after split")
            # rank 1 now waits for rank 3 inside the odd subgroup
            sub.allreduce(1)

        with pytest.raises(SpmdProgramError) as e:
            c.run(prog)
        assert e.value.rank == 3

    def test_crash_right_after_a_collective_lets_peers_complete_it(self):
        """A rank that crashes the moment it leaves a collective must not
        abort peers still waking inside it: every rank had arrived, so
        each completes the collective whatever the host scheduling."""
        for _ in range(20):
            completed = []

            def prog(ctx):
                ctx.comm.barrier()
                if ctx.rank == 1:
                    raise RuntimeError("dies right after the barrier")
                completed.append(ctx.rank)
                ctx.comm.barrier()

            with pytest.raises(SpmdProgramError) as e:
                make_cluster(3, timeout=10.0).run(prog)
            assert e.value.rank == 1
            assert sorted(completed) == [0, 2]

    def test_first_failing_rank_reported(self):
        c = make_cluster(4, timeout=10.0)

        def prog(ctx):
            raise ValueError(f"rank {ctx.rank}")

        with pytest.raises(SpmdProgramError) as e:
            c.run(prog)
        # deterministic attribution: the lowest failing rank wins
        assert e.value.rank == 0

    def test_failure_during_p2p_wait(self):
        c = make_cluster(3, timeout=10.0)

        def prog(ctx):
            if ctx.rank == 0:
                raise RuntimeError("sender dies")
            if ctx.rank == 1:
                ctx.comm.recv(src=0)  # never arrives; must be released

        with pytest.raises(SpmdProgramError) as e:
            c.run(prog)
        assert e.value.rank == 0

    def test_abort_wakes_rank_blocked_in_recv(self):
        """A peer crash must release a blocked recv within milliseconds,
        not after the full (here: 300 s) rendezvous timeout."""
        c = make_cluster(3, timeout=300.0)

        def prog(ctx):
            if ctx.rank == 0:
                raise RuntimeError("sender dies")
            ctx.comm.recv(src=0)

        t0 = time.monotonic()
        with pytest.raises(SpmdProgramError) as e:
            c.run(prog)
        assert e.value.rank == 0
        assert time.monotonic() - t0 < 5.0

    def test_abort_wakes_rank_blocked_in_request_wait(self):
        c = make_cluster(2, timeout=300.0)

        def prog(ctx):
            if ctx.rank == 0:
                raise RuntimeError("sender dies")
            ctx.comm.irecv(src=0).wait()

        t0 = time.monotonic()
        with pytest.raises(SpmdProgramError):
            c.run(prog)
        assert time.monotonic() - t0 < 5.0

    def test_recv_after_abort_fails_immediately(self):
        """A rank that opens its mailbox only after the abort happened
        must still be released (the sentinel is pre-seeded)."""
        c = make_cluster(2, timeout=300.0)

        def prog(ctx):
            if ctx.rank == 0:
                raise RuntimeError("dies first")
            # give the abort time to land before the first recv call
            time.sleep(0.2)
            ctx.comm.recv(src=0, tag=42)

        t0 = time.monotonic()
        with pytest.raises(SpmdProgramError):
            c.run(prog)
        assert time.monotonic() - t0 < 5.0

    def test_cluster_reusable_after_failure(self):
        c = make_cluster(2, timeout=10.0)
        with pytest.raises(SpmdProgramError):
            c.run(lambda ctx: (_ for _ in ()).throw(RuntimeError("x")))
        # a fresh run on the same Cluster object works (fresh CommWorld)
        assert c.run(lambda ctx: ctx.comm.allreduce(1)).results == [2, 2]


class TestContractViolations:
    def test_mixed_collectives_diagnosed_not_hung(self):
        c = make_cluster(3, timeout=10.0)

        def prog(ctx):
            if ctx.rank == 0:
                ctx.comm.scan(1)
            else:
                ctx.comm.allreduce(1)

        with pytest.raises(SpmdProgramError) as e:
            c.run(prog)
        assert isinstance(e.value.cause, CommMismatchError)
        assert "scan" in str(e.value.cause) or "allreduce" in str(e.value.cause)

    def test_partial_participation_times_out(self):
        c = make_cluster(3, timeout=0.5)

        def prog(ctx):
            if ctx.rank != 0:
                ctx.comm.barrier()  # rank 0 never shows up

        with pytest.raises(SpmdProgramError) as e:
            c.run(prog)
        assert isinstance(e.value.cause, DeadlockError)

    def test_scatter_root_without_parts(self):
        c = make_cluster(2, timeout=10.0)

        def prog(ctx):
            return ctx.comm.scatter(None, root=0)

        with pytest.raises(SpmdProgramError) as e:
            c.run(prog)
        assert isinstance(e.value.cause, ValueError)

    def test_scatter_wrong_part_count(self):
        c = make_cluster(3, timeout=10.0)

        def prog(ctx):
            parts = [1, 2] if ctx.rank == 0 else None
            return ctx.comm.scatter(parts, root=0)

        with pytest.raises(SpmdProgramError):
            c.run(prog)


class TestDataIntegrityUnderErrors:
    def test_disks_survive_a_failed_program(self, schema, quest_small):
        """A failed run must not corrupt previously written fragments."""
        from repro.data import shuffle_split
        from repro.data.distribute import load_fragment

        cols, labels = quest_small
        frags = shuffle_split(cols, labels, 2, seed=1)
        c = make_cluster(2, timeout=10.0)
        ctxs = c.make_contexts()
        run = c.run(load_fragment, schema, frags, 256, contexts=ctxs)
        columnsets = run.results

        def bad(ctx):
            if ctx.rank == 1:
                raise RuntimeError("mid-run crash")
            ctx.comm.barrier()

        with pytest.raises(SpmdProgramError):
            c.run(bad, contexts=ctxs)

        def readback(ctx):
            return columnsets[ctx.rank].read_labels().sum()

        out = c.run(readback, contexts=ctxs).results
        expected = [int(f[1].sum()) for f in frags]
        assert out == expected

    def test_numpy_payloads_not_shared_through_disk(self):
        """Backend copy semantics: callers cannot alias disk contents."""
        from repro.ooc import OocArray

        c = make_cluster(1)

        def prog(ctx):
            f = OocArray(ctx.disk, np.float64)
            buf = np.ones(8)
            f.append(buf)
            buf[:] = -1
            first = f.read_all().copy()
            got = f.read_all()
            got[:] = -2
            return first, f.read_all()

        first, second = c.run(prog).results[0]
        assert (first == 1.0).all()
        assert (second == 1.0).all()
