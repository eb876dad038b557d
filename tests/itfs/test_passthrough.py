"""ITFS pass-through read/write mode (the paper's cited optimization)."""

import pytest

from repro.errors import AccessBlocked
from repro.itfs import ITFS, AppendOnlyLog, PolicyManager, document_blocking_policy
from repro.kernel import MemoryFilesystem


@pytest.fixture()
def fs():
    backing = MemoryFilesystem()
    backing.populate({"data": {"a.txt": "aaa", "doc.pdf": b"%PDF secret"}})
    return backing


class TestPassthroughSemantics:
    def test_repeat_reads_hit_cache(self, fs):
        itfs = ITFS(fs, document_blocking_policy(), audit=AppendOnlyLog(),
                    passthrough=True)
        for _ in range(5):
            itfs.read("/data/a.txt")
        assert itfs.cache_hits == 4
        # only the first read is audited
        assert len(itfs.audit.filter(op="read")) == 1

    def test_denials_also_cached(self, fs):
        itfs = ITFS(fs, document_blocking_policy(), audit=AppendOnlyLog(),
                    passthrough=True)
        for _ in range(3):
            with pytest.raises(AccessBlocked):
                itfs.read("/data/doc.pdf")
        assert itfs.cache_hits == 2
        assert itfs.ops_denied == 3

    def test_cache_invalidated_on_rename(self, fs):
        policy = document_blocking_policy()
        itfs = ITFS(fs, policy, audit=AppendOnlyLog(), passthrough=True)
        itfs.read("/data/a.txt")  # cached: allowed
        # a rename turns the path into a blocked type; stale 'allow' must die
        itfs_unchecked = ITFS(fs, PolicyManager(log_all=False))
        itfs_unchecked.rename("/data/a.txt", "/data/a.bak")
        fs.write("/data/a.txt", b"%PDF now a document")
        with pytest.raises(AccessBlocked):
            # signature policy would miss by extension; use signature mode
            sig = ITFS(fs, document_blocking_policy(by_signature=True),
                       audit=AppendOnlyLog(), passthrough=True)
            sig.read("/data/a.txt")

    def test_own_mutations_invalidate_cache(self, fs):
        itfs = ITFS(fs, document_blocking_policy(), audit=AppendOnlyLog(),
                    passthrough=True)
        itfs.read("/data/a.txt")
        assert ("read", "/data/a.txt") in itfs._decision_cache
        itfs.unlink("/data/a.txt")
        assert ("read", "/data/a.txt") not in itfs._decision_cache

    def test_disabled_by_default(self, fs):
        itfs = ITFS(fs, document_blocking_policy(), audit=AppendOnlyLog())
        for _ in range(3):
            itfs.read("/data/a.txt")
        assert itfs.cache_hits == 0
        assert len(itfs.audit.filter(op="read")) == 3

    def test_passthrough_is_faster_on_signature_mode(self, fs):
        import time
        from collections import Counter
        big = MemoryFilesystem()
        for i in range(300):
            big.write(f"/f{i}", b"payload " * 8)

        def sweep(target, repeats=4):
            start = time.perf_counter()
            for _ in range(repeats):
                for i in range(300):
                    target.read(f"/f{i}")
            return time.perf_counter() - start

        def count_evaluations(itfs):
            calls = Counter()
            evaluate = itfs.policy.evaluate

            def counting(op, path, *args, **kwargs):
                calls[path] += 1
                return evaluate(op, path, *args, **kwargs)

            itfs.policy.evaluate = counting
            return calls

        plain = ITFS(big, document_blocking_policy(by_signature=True),
                     audit=AppendOnlyLog())
        fast = ITFS(big, document_blocking_policy(by_signature=True),
                    audit=AppendOnlyLog(), passthrough=True)
        plain_calls = count_evaluations(plain)
        fast_calls = count_evaluations(fast)
        # min of several sweeps: one wall-clock sample per side is at the
        # mercy of whatever else the machine runs at that moment
        fast_best = min(sweep(fast) for _ in range(5))
        plain_best = min(sweep(plain) for _ in range(5))
        # the mechanism behind the speed-up, independent of timing: the
        # pass-through ITFS evaluates the signature policy once per file
        files = {f"/f{i}" for i in range(300)}
        assert fast_calls == Counter({f: 1 for f in files})
        assert plain_calls == Counter({f: 5 * 4 for f in files})
        assert fast.cache_hits == 5 * 4 * 300 - 300
        assert fast_best < plain_best
