"""The LSM's reads in lockstep with the reference reads (DESIGN.md §13.4).

Over drawn streams of writes, gets, scans and their batch forms on the
multi-level ``populate()`` tree, with bloom filters on, nearly useless
and off, on an aged filesystem or one where every table page is its
own extent: every read returns what ``reference_reads`` says and pays
exactly its ``(file, offset, nbytes)`` reads, in order — a batch the
concatenation of its ops' — as device requests recorded at the block
layer.  Run it after any change to an engine's read path.

CI also runs this file under the derandomized ``ci`` hypothesis
profile (``tests/conftest.py``): ``--hypothesis-profile=ci``.
"""

from __future__ import annotations

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.kv.values import Value
from repro.lsm.store import LSMStore
from tests.lsm import reference_reads
from tests.lsm.test_scan_kernel import device_reads, make_store, populate

BULK = LSMStore.BULK_PROBE_MIN
key = st.integers(-5, 450)  # populate() writes 0..399
written = st.integers(0, 450)  # a negative key cannot be scanned over
count = st.sampled_from([0, 1, 7, 100])
ops = st.lists(st.one_of(
    st.tuples(st.just("put"), written, st.sampled_from([24, 48, 5000])),
    st.tuples(st.just("delete"), written),
    st.tuples(st.just("get"), key),
    # Below LSMStore.BULK_PROBE_MIN keys: a tree walk per key, as the
    # fleet and the short runs of mixed workloads issue them; from it
    # up: the planned path.
    st.tuples(st.just("get_many"),
              st.lists(key, min_size=1, max_size=BULK - 1)),
    st.tuples(st.just("get_many"),
              st.lists(key, min_size=BULK, max_size=BULK + 12)),
    st.tuples(st.just("scan"), key, count),
    st.tuples(st.just("scan_many"), st.lists(key, min_size=1, max_size=6), count),
), min_size=1, max_size=40)


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(bloom_bits=st.sampled_from([0, 2, 10]), fragmented=st.booleans(),
       ops=ops)
# Multi-page values at the low keys, then scans that start below them:
# heads and reached windows several extents long.
@example(bloom_bits=10, fragmented=True,
         ops=[("put", k, 5000) for k in range(0, 400, 5)]
         + [("scan_many", [-5, 0, 1, 100, 250], 7), ("scan", 3, 100)])
def test_reads_return_and_pay_what_the_reference_says(bloom_bits, fragmented,
                                                      ops):
    store = make_store(fragmented, bloom_bits_per_key=bloom_bits)
    populate([store])
    key_bytes = store.config.key_bytes
    for i, (name, arg, *rest) in enumerate(ops):
        if name == "put":
            store.put(arg, Value(i, rest[0]))
            continue
        if name == "delete":
            store.delete(arg)
            continue
        mark, before = len(store.preads), store.stats.user_bytes_read
        if name == "get":
            value, reads = reference_reads.get(store, arg)
            assert store.get(arg)[1] == value
            values = [value]
        elif name == "get_many":
            expected = [reference_reads.get(store, k) for k in arg]
            assert store.get_many(arg) == len(arg)
            values = [value for value, _reads in expected]
            reads = [read for _value, op_reads in expected for read in op_reads]
        elif name == "scan":
            pairs, reads = reference_reads.scan(store, arg, rest[0])
            assert store.scan(arg, rest[0])[1] == pairs
            values = [value for _key, value in pairs]
        else:
            expected = [reference_reads.scan(store, k, rest[0]) for k in arg]
            assert store.scan_many(arg, rest[0]) == len(arg)
            values = [value for pairs, _reads in expected for _key, value in pairs]
            reads = [read for _pairs, op_reads in expected for read in op_reads]
        assert store.preads[mark:] == device_reads(store, reads)
        assert store.stats.user_bytes_read - before == sum(
            key_bytes + value.length for value in values if value is not None)
    store.check_invariants()
