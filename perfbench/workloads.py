"""The three benchmark workloads.  Each one puts most of its timed wall
into a different layer of the engine (see NOTES.md):

- ``bulk``:   fresh full build, then no-op resumes (tokenize, partition
  indexing, run merge, manifest);
- ``search``: a seeded query stream on one warm reader, on fresh
  readers, through the 2-slice service one query at a time, and in
  ``topk_many`` batches (term lookup, postings fetch and decode,
  scoring, fan-out);
- ``churn``:  per-document source changes made searchable by
  ``delta_reindex`` and a fresh reader (manifest, delta diff,
  generational merge, epoch publish, reader open).

Inputs come from ``generate_corpus`` and the seed, outside the engine;
the engine sees only the parquet files written here.  Results are
checked against ``index.bm25.BruteForceIndex`` or a full rebuild.
"""

from __future__ import annotations

import os
import shutil
import time
import traceback
from typing import Dict, List, Optional, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from jesterj_ray.index import build_rows, compact, query, repartition, serving
from jesterj_ray.index.bm25 import BruteForceIndex
from jesterj_ray.sources.corpus import generate_corpus
from jesterj_ray.tokenize.tokenizer import code_tokenize

from measure import (CheckFailed, HostSpeed, median, peak_rss_mb,
                     same_ranking, tail)

TOKENIZER = "code"
TEXT = "content"
KEY = "doc_no"


def nproc() -> int:
    """CPUs as ``nproc`` counts them: OMP_NUM_THREADS when set, else the
    CPUs this process may run on."""
    try:
        n = int(os.environ.get("OMP_NUM_THREADS", ""))
        if n > 0:
            return n
    except ValueError:
        pass
    return len(os.sched_getaffinity(0))


def corpus(n: int, seed: int) -> pa.Table:
    """``generate_corpus`` plus a row-number key column, so doc keys are
    stable across rewrites and map to oracle ids."""
    t = generate_corpus(n, seed)
    return t.append_column(KEY, pa.array(np.arange(n, dtype=np.int64)))


def dir_bytes(path: str) -> int:
    total = 0
    for d, _, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(d, f))
    return total


def doc_rows(reader, hits) -> List[Tuple[int, float]]:
    """Engine hits as (row number, score)."""
    if not hits:
        return []
    keys = reader.doc_keys(np.array([d for d, _ in hits], dtype=np.int64))
    return [(int(k), s) for k, (_, s) in zip(keys, hits)]


def vocabulary(texts: List[str]) -> Tuple[List[str], Dict[str, int]]:
    """Terms sorted by descending document frequency, and their dfs."""
    df: Dict[str, int] = {}
    for t in texts:
        for term in set(code_tokenize(t or "")):
            df[term] = df.get(term, 0) + 1
    terms = sorted(df, key=lambda t: (-df[t], t))
    return terms, df


class Workload:
    """One workload: inputs, a repeatable set-up, a timed loop, checks.

    ``setup`` is called several times (after ``undo_setup``) so the
    runner can report the median set-up time.  ``run`` appends samples;
    ``metrics`` turns them into the end-to-end numbers."""

    name = ""
    traced = False      # set for a traced run: record per-layer detail too

    def __init__(self, tmp: str, seed: int, scale: float,
                 corrupt: bool = False):
        self.tmp = tmp
        self.seed = seed
        self.scale = scale
        self.corrupt = corrupt
        self.attempted = 0
        self.failed = 0
        self.rss_mb = 0.0
        self.setup_parts: Dict[str, List[float]] = {}
        self._ray_up = False
        self._setup_no = 0
        self.extra_tmp: Optional[str] = None
        self.clock = HostSpeed()

    def scaled(self, docs: int) -> int:
        return max(20, int(docs * self.scale))

    # ---- set-up shared by every workload ----

    def _start_ray(self) -> None:
        import ray
        from ray.data import DataContext
        ray_tmp = os.path.join(self.tmp, "ray")
        if len(ray_tmp) > 44:
            # Ray's AF_UNIX socket paths (<= 107 bytes) live under the
            # temp dir: fall back to a short private dir, removed on exit
            if self.extra_tmp is None:
                import tempfile
                self.extra_tmp = tempfile.mkdtemp(prefix="pb-")
            ray_tmp = self.extra_tmp
        t0 = time.perf_counter()
        ray.init(address="local", num_cpus=nproc(), include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False,
                 object_store_memory=256 << 20, _temp_dir=ray_tmp)
        DataContext.get_current().enable_progress_bars = False
        self._ray_up = True
        self._part("setup.ray_init_s", time.perf_counter() - t0)
        # warm-up (part of set-up): the first Ray Data job after init
        # pays worker start and imports, so timed builds run warm
        t0 = time.perf_counter()
        warm = os.path.join(self.tmp, f"warm-{self._setup_no}")
        os.makedirs(warm)
        pq.write_table(corpus(20, self.seed + 1), os.path.join(warm, "w.parquet"))
        build_rows.build_index_rows([os.path.join(warm, "w.parquet")],
                                    os.path.join(warm, "idx"), text_col=TEXT,
                                    key_col=KEY, tokenizer=TOKENIZER)
        self._part("setup.warmup_s", time.perf_counter() - t0)

    def _part(self, name: str, secs: float) -> None:
        self.setup_parts.setdefault(name, []).append(secs)

    def stop_ray(self) -> None:
        if self._ray_up:
            import ray
            ray.shutdown()
            self._ray_up = False

    def setup(self) -> None:
        self._start_ray()
        self._setup_more()
        self._setup_no += 1

    def undo_setup(self) -> None:
        self._undo_more()
        self.stop_ray()

    # ---- per-workload hooks ----

    def make_inputs(self) -> None:
        raise NotImplementedError

    def _setup_more(self) -> None:
        pass

    def _undo_more(self) -> None:
        pass

    def run(self, seconds: float) -> None:
        raise NotImplementedError

    def check(self) -> None:
        raise NotImplementedError

    def metrics(self) -> Dict[str, float]:
        raise NotImplementedError

    def report(self) -> Dict[str, float]:
        """Issue-named metrics for the human report."""
        return {}

    def main_index(self) -> str:
        raise NotImplementedError

    def primary(self) -> List[float]:
        """Samples behind ``op_p50_ms``, in the order taken."""
        raise NotImplementedError

    def texts(self) -> List[str]:
        raise NotImplementedError

    def close(self) -> None:
        self.stop_ray()

    def _count(self, fn, *args, **kwargs):
        """Run one timed operation, counting attempts and failures.  A
        raised error is a failed operation; a wrong answer is not (the
        checks fail the run instead)."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except CheckFailed:
            raise
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None


class Bulk(Workload):
    """Fresh full build of a corpus split into tens of partitions, then
    no-op resumes of the same call on unchanged input."""

    name = "bulk"
    DOCS = 600
    ROWS_PER_PART = 40
    NOOP_REPEATS = 5

    def make_inputs(self) -> None:
        self.table = corpus(self.scaled(self.DOCS), self.seed)
        self.src = os.path.join(self.tmp, "bulk", "src.parquet")
        os.makedirs(os.path.dirname(self.src))
        pq.write_table(self.table, self.src, row_group_size=self.ROWS_PER_PART)
        self.idx = os.path.join(self.tmp, "bulk", "idx")
        self.build_s: List[float] = []
        self.noop_s: List[float] = []
        self.noop_windows: List[Tuple[float, float]] = []

    def _build(self) -> Dict:
        return build_rows.build_index_rows(
            [self.src], self.idx, text_col=TEXT, key_col=KEY,
            tokenizer=TOKENIZER, docs_per_partition=self.ROWS_PER_PART,
            positions=False)

    def run(self, seconds: float) -> None:
        end = time.perf_counter() + seconds
        while not self.build_s or time.perf_counter() < end:
            shutil.rmtree(self.idx, ignore_errors=True)
            t0 = time.perf_counter()
            stats = self._count(self._build)
            if stats is None:
                continue
            self.build_s.append(time.perf_counter() - t0)
            self.clock.tick()
            self.last_stats = stats
            for _ in range(self.NOOP_REPEATS):
                t0 = time.perf_counter()
                again = self._count(self._build)
                if again is None:
                    continue
                self.noop_s.append(time.perf_counter() - t0)
                self.noop_windows.append((t0, time.perf_counter()))
                self.clock.tick()
                if again["n_docs"] != stats["n_docs"]:
                    raise CheckFailed("no-op resume changed the doc count")
        self.rss_mb = peak_rss_mb()

    def check(self) -> None:
        n = self.table.num_rows
        if self.last_stats["n_docs"] != n:
            raise CheckFailed(f"built {self.last_stats['n_docs']} docs of {n}")
        if self.last_stats["num_partitions"] < min(10, n // self.ROWS_PER_PART):
            raise CheckFailed("build did not split into tens of partitions")
        texts = self.texts()
        bf = BruteForceIndex(range(n), texts, code_tokenize)
        terms, _ = vocabulary(texts)
        rng = np.random.default_rng(self.seed + 7)
        reader = query.IndexReader(self.idx)
        for i in range(12):
            q = " ".join(rng.choice(terms[:200], size=1 + i % 3))
            k = 10 if i % 2 else 100
            got = doc_rows(reader, reader.topk_pruned(q, k))
            if self.corrupt and i == 0 and got:
                got[0] = (got[0][0], got[0][1] + 1e-3)
            same_ranking(got, bf.topk(q, k), bf.score_all(q), f"bulk {q!r}")

    def metrics(self) -> Dict[str, float]:
        build = median(self.build_s)
        return {"op_p50_ms": build * 1e3,
                "aux_p50_ms": median(self.noop_s) * 1e3,
                "throughput_per_s": self.table.num_rows / build,
                "index_bytes_per_input_byte":
                    dir_bytes(self.idx) / os.path.getsize(self.src)}

    def report(self) -> Dict[str, float]:
        return {"build_docs_per_s": self.table.num_rows / median(self.build_s),
                "resume_noop_s": median(self.noop_s),
                "builds": len(self.build_s)}

    def main_index(self) -> str:
        return self.idx

    def primary(self) -> List[float]:
        return self.build_s

    def texts(self) -> List[str]:
        return [t or "" for t in self.table.column(TEXT).to_pylist()]


class Search(Workload):
    """Base index (positions on) and a 2-slice serving split built in
    set-up; a seeded query stream timed on the warm reader, on freshly
    opened readers, through the sharded service and in ``topk_many``
    batches."""

    name = "search"
    DOCS = 2000
    ROWS_PER_PART = 500
    SLICES = 2
    STREAM = 1200
    BATCH = 32
    BLOCKS = 4
    COLD = 300              # stream prefix asked on each fresh reader

    def make_inputs(self) -> None:
        self.table = corpus(self.scaled(self.DOCS), self.seed)
        base = os.path.join(self.tmp, "search")
        os.makedirs(base)
        self.src = os.path.join(base, "src.parquet")
        pq.write_table(self.table, self.src,
                       row_group_size=self.ROWS_PER_PART // 2)
        self._texts = [t or "" for t in self.table.column(TEXT).to_pylist()]
        self.streams = {i: code_tokenize(t) for i, t in enumerate(self._texts)}
        self.terms, self.df = vocabulary(self._texts)
        self.stream = self._query_stream()
        self.lat: Dict[str, List[float]] = {"or": [], "and": [], "phrase": []}
        self.single: List[float] = []
        self.cold: List[float] = []
        self.sharded: List[float] = []
        self.many_q = 0
        self.many_s = 0.0
        self.svc = None

    def _query_stream(self) -> List[Tuple[str, str, int]]:
        """Seeded (mode, text, k) list.  The shape is fixed by position
        (mode, k, term count, phrase length cycle every 24 queries), so
        seeds change only which terms are asked: OR / AND terms are
        Zipf-drawn from the df-ranked vocabulary (hot terms have long
        postings and fit the reader's 512-entry cache); phrases are cut
        from real token streams."""
        rng = np.random.default_rng(self.seed + 11)
        ranks = np.arange(1, len(self.terms) + 1, dtype=np.float64)
        p = ranks ** -1.1
        p /= p.sum()
        long_docs = [i for i, s in self.streams.items() if len(s) >= 3]
        out = []
        for i in range(self.STREAM):
            mode = ("or", "or", "and", "phrase")[i % 4]
            k = (10, 100)[(i // 4) % 2]
            step = (i // 8) % 3
            if mode == "phrase":
                toks = self.streams[long_docs[int(rng.integers(0, len(long_docs)))]]
                ln = 2 + step % 2
                at = int(rng.integers(0, len(toks) - ln + 1))
                text = " ".join(toks[at:at + ln])
            else:
                n_terms = 1 + step if mode == "or" else 2 + step % 2
                text = " ".join(self.terms[j] for j in
                                rng.choice(len(self.terms), n_terms, p=p))
            out.append((mode, text, k))
        return out

    def _setup_more(self) -> None:
        no = self._setup_no
        self.idx = os.path.join(self.tmp, "search", f"idx-{no}")
        t0 = time.perf_counter()
        build_rows.build_index_rows(
            [self.src], self.idx, text_col=TEXT, key_col=KEY,
            tokenizer=TOKENIZER, docs_per_partition=self.ROWS_PER_PART,
            positions=True)
        self._part("setup.base_build_s", time.perf_counter() - t0)
        t0 = time.perf_counter()
        self.slices = repartition.repartition_for_serving(
            self.idx, os.path.join(self.tmp, "search", f"slices-{no}"),
            n_slices=self.SLICES)
        self._part("setup.repartition_s", time.perf_counter() - t0)
        t0 = time.perf_counter()
        self.svc = serving.ShardedQueryService(slice_dirs=self.slices)
        self.svc.topk(self.stream[0][1], 1)     # both actors up and open
        self.reader = query.IndexReader(self.idx)
        self._part("setup.actors_s", time.perf_counter() - t0)

    def _undo_more(self) -> None:
        if self.svc is not None:
            self.svc.shutdown()
            self.svc = None

    def _ask(self, mode: str, text: str, k: int, reader=None):
        r = reader or self.reader
        if mode == "or":
            return r.topk_pruned(text, k)
        if mode == "and":
            return r.topk_and(text, k)
        return r.phrase_topk(text, k)

    def run(self, seconds: float) -> None:
        if not self.single:
            # one untimed pass fills the reader's and the actors' caches:
            # the stream is timed in steady state
            for mode, text, k in self.stream:
                self._ask(mode, text, k)
            self.svc.topk_many([(text, k) for _, text, k in self.stream])
        # BLOCKS rounds, each: the whole stream on the warm reader, a
        # fixed prefix on a freshly opened reader, then the sharded
        # service and topk_many for the rest of the round.  Whole passes
        # keep the query mix identical from run to run, and the rounds
        # spread every path over the window (host speed drifts by +-20%
        # within seconds).
        budget = seconds / self.BLOCKS
        for _ in range(self.BLOCKS):
            start = time.perf_counter()
            for mode, text, k in self.stream:
                t0 = time.perf_counter()
                if self._count(self._ask, mode, text, k) is not None:
                    dt = time.perf_counter() - t0
                    self.single.append(dt)
                    self.lat[mode].append(dt)
                self.clock.tick()
            fresh = query.IndexReader(self.idx)   # empty postings caches
            for mode, text, k in self.stream[:self.COLD]:
                t0 = time.perf_counter()
                if self._count(self._ask, mode, text, k, fresh) is not None:
                    self.cold.append(time.perf_counter() - t0)
                self.clock.tick()
            half = max(0.0, budget - (time.perf_counter() - start)) / 2
            end = time.perf_counter() + half
            j = 0
            while j < 10 or time.perf_counter() < end:
                _, text, k = self.stream[j % len(self.stream)]
                t0 = time.perf_counter()
                if self._count(self.svc.topk, text, k) is not None:
                    self.sharded.append(time.perf_counter() - t0)
                j += 1
                self.clock.tick()
            end = time.perf_counter() + half
            b = 0
            while b < 2 * self.BATCH or time.perf_counter() < end:
                batch = [self.stream[(b + x) % len(self.stream)][1:]
                         for x in range(self.BATCH)]
                t0 = time.perf_counter()
                if self._count(self.svc.topk_many, batch) is not None:
                    self.many_s += time.perf_counter() - t0
                    self.many_q += len(batch)
                b += self.BATCH
                self.clock.tick()
        self.rss_mb = peak_rss_mb()

    def _and_oracle(self, bf: BruteForceIndex, text: str, k: int):
        terms = list(dict.fromkeys(code_tokenize(text)))
        scores = bf.score_all(text)
        docs = None
        for t in terms:
            have = set(bf.postings.get(t, {}))
            docs = have if docs is None else docs & have
        hits = [(d, scores[d]) for d in (docs or ())]
        return sorted(hits, key=lambda x: (-x[1], x[0]))[:k], scores

    def check(self) -> None:
        n = self.table.num_rows
        bf = BruteForceIndex(range(n), self._texts, code_tokenize)
        for i, (mode, text, k) in enumerate(self.stream[:48]):
            got = doc_rows(self.reader, self._ask(mode, text, k))
            if self.corrupt and i == 0 and got:
                got[0] = (got[0][0], got[0][1] + 1e-3)
            if mode == "or":
                want, scores = bf.topk(text, k), bf.score_all(text)
            elif mode == "and":
                want, scores = self._and_oracle(bf, text, k)
            else:
                want = bf.phrase_topk(text, k, token_streams=self.streams)
                scores = bf.score_all(text)
            same_ranking(got, want, scores, f"search {mode} {text!r}")
        for mode, text, k in self.stream[:24]:
            local = self.reader.topk_pruned(text, k)
            remote = self.svc.topk(text, k)
            if [(d, round(s, 6)) for d, s in local] != \
                    [(d, round(s, 6)) for d, s in remote]:
                raise CheckFailed(f"sharded != local for {text!r}")

    def metrics(self) -> Dict[str, float]:
        return {"op_p50_ms": median(self.single) * 1e3,
                "aux_p50_ms": median(self.cold) * 1e3,
                "throughput_per_s": len(self.single) / sum(self.single),
                "index_bytes_per_input_byte":
                    dir_bytes(self.idx) / os.path.getsize(self.src)}

    def report(self) -> Dict[str, float]:
        q, p = tail(self.single)
        return {"query_p50_ms": median(self.single) * 1e3,
                "cold_query_p50_ms": median(self.cold) * 1e3,
                "query_p99_ms": p * 1e3, "query_p99_q": q,
                "query_samples": len(self.single),
                "sharded_p50_ms": median(self.sharded) * 1e3,
                "sharded_qps": self.many_q / self.many_s}

    def main_index(self) -> str:
        return self.idx

    def primary(self) -> List[float]:
        return self.single

    def texts(self) -> List[str]:
        return self._texts


class Churn(Workload):
    """Source split over many parquet files; each timed cycle rewrites
    one file with a few changed docs (one carrying a unique planted
    token) and one doc added or deleted, then re-indexes the delta,
    reopens a reader, finds the planted doc and sends a short query
    burst.  ``compact_index`` runs once, after the window: one call costs
    as much as six to eight cycles, so calling it inside the window
    would make compaction, not the delta path, the workload's main
    cost."""

    name = "churn"
    DOCS = 800
    FILES = 8
    CHANGED = 3
    BURST = 20

    def make_inputs(self) -> None:
        t = corpus(self.scaled(self.DOCS), self.seed)
        src_dir = os.path.join(self.tmp, "churn", "src")
        os.makedirs(src_dir)
        per = -(-t.num_rows // self.FILES)
        self.files: List[Dict[str, list]] = []
        self.paths: List[str] = []
        for f in range(self.FILES):
            part = t.slice(f * per, per)
            cols = {c: part.column(c).to_pylist() for c in part.column_names}
            self.files.append(cols)
            path = os.path.join(src_dir, f"part-{f:03d}.parquet")
            self.paths.append(path)
            self._write(f)
        self.next_key = t.num_rows
        texts = [x or "" for x in t.column(TEXT).to_pylist()]
        self.terms, _ = vocabulary(texts)
        self.rng = np.random.default_rng(self.seed + 23)
        self.fresh_s: List[float] = []
        self.cycle_s: List[float] = []
        self.reopen_q: List[float] = []
        self.reindexed = 0
        self.cycles = 0
        self.gen_files: List[int] = []
        self.auto_compactions = 0
        self.compact_s: List[float] = []
        self.compact_bytes: List[int] = []

    def _write(self, f: int) -> float:
        """Write file ``f`` atomically (temp file + ``os.replace``);
        returns the moment the new file became visible."""
        table = pa.table({c: v for c, v in self.files[f].items()})
        tmp = self.paths[f] + ".tmp"
        pq.write_table(table, tmp)
        os.replace(tmp, self.paths[f])
        return time.perf_counter()

    def _setup_more(self) -> None:
        self.idx = os.path.join(self.tmp, "churn", f"idx-{self._setup_no}")
        t0 = time.perf_counter()
        build_rows.build_index_rows(self.paths, self.idx, **self._kw())
        self._part("setup.base_build_s", time.perf_counter() - t0)
        # measured on the base index: the delta state at the end of the
        # window depends on how many cycles the host managed to run
        self.base_ratio = dir_bytes(self.idx) / sum(
            os.path.getsize(p) for p in self.paths)

    def _kw(self) -> Dict:
        return dict(text_col=TEXT, key_col=KEY, tokenizer=TOKENIZER,
                    docs_per_partition=100_000, positions=False)

    @staticmethod
    def _token(cycle: int) -> str:
        s = ""
        for _ in range(5):
            cycle, r = divmod(cycle, 26)
            s += chr(97 + r)
        return "zqplant" + s

    def _gens(self) -> int:
        seg = os.path.join(self.idx, "segments")
        return sum("-gen-" in n for n in os.listdir(seg))

    def _cycle(self) -> None:
        rng = self.rng
        f = int(rng.integers(0, self.FILES))
        cols = self.files[f]
        rows = len(cols[KEY])
        pick = rng.choice(rows, size=min(self.CHANGED, rows), replace=False)
        token = self._token(self.cycles)
        top = min(300, len(self.terms))
        planted_key = cols[KEY][int(pick[0])]
        for j, r in enumerate(pick):
            word = token if j == 0 else self.terms[int(rng.integers(0, top))]
            cols[TEXT][int(r)] = (cols[TEXT][int(r)] or "") + "\n" + word
        if self.cycles % 2 and rows > self.CHANGED + 1:
            changed = set(pick.tolist())
            gone = [r for r in range(rows) if r not in changed]
            drop = gone[int(rng.integers(0, len(gone)))]
            for c in cols:
                del cols[c][drop]
        else:
            src = rng.integers(0, len(self.files[0][KEY]))
            new = {c: self.files[0][c][int(src)] for c in cols}
            new[KEY] = self.next_key
            new[TEXT] = " ".join(self.terms[int(x)] for x in
                                 rng.integers(0, top, size=12))
            self.next_key += 1
            for c in cols:
                cols[c].append(new[c])
        gens_before = self._gens()
        t_visible = self._write(f)
        out = self._count(build_rows.delta_reindex, self.paths, self.idx,
                          **self._kw())
        if out is None:
            return
        reader = self._count(query.IndexReader, self.idx)
        if reader is None:
            return
        hit = self._count(reader.topk_pruned, token, 1)
        if hit is None:
            return
        got = doc_rows(reader, hit)
        if self.corrupt and self.cycles == 0:
            got = [(planted_key + 1, 0.0)]
        if not got or got[0][0] != planted_key:
            raise CheckFailed(f"cycle {self.cycles}: planted {token} not "
                              f"top-1 (got {got})")
        self.fresh_s.append(time.perf_counter() - t_visible)
        self.reindexed += out["reindexed_docs"]
        gens = self._gens()
        self.gen_files.append(gens)
        if gens < gens_before:
            self.auto_compactions += 1
        for _ in range(self.BURST):
            q = " ".join(self.terms[int(x)] for x in
                         rng.integers(0, len(self.terms),
                                      size=int(rng.integers(1, 3))))
            t0 = time.perf_counter()
            if self._count(reader.topk_pruned, q, 10) is not None:
                self.reopen_q.append(time.perf_counter() - t0)
            self.clock.tick()
        self.cycles += 1

    def _compact(self) -> None:
        before = self._file_stats() if self.traced else None
        t0 = time.perf_counter()
        self._count(compact.compact_index, self.idx)
        self.compact_s.append(time.perf_counter() - t0)
        if before is not None:
            after = self._file_stats()
            self.compact_bytes.append(sum(
                sz for p, (sz, mt) in after.items()
                if before.get(p) != (sz, mt)))

    def _file_stats(self) -> Dict[str, Tuple[int, int]]:
        out = {}
        for d, _, files in os.walk(self.idx):
            for n in files:
                st = os.stat(os.path.join(d, n))
                out[os.path.join(d, n)] = (st.st_size, st.st_mtime_ns)
        return out

    def run(self, seconds: float) -> None:
        end = time.perf_counter() + seconds
        while time.perf_counter() < end or len(self.fresh_s) < 3:
            t0 = time.perf_counter()
            self._cycle()
            self.cycle_s.append(time.perf_counter() - t0)
        self.rss_mb = peak_rss_mb()

    def check(self) -> None:
        """The delta-built index, and the same index after
        ``compact_index``, give the same top-50 as a full rebuild of the
        current source on sampled queries, by doc key at 6dp."""
        rebuilt = os.path.join(self.tmp, "churn", "rebuilt")
        build_rows.build_index_rows(self.paths, rebuilt, **self._kw())
        self._same_as_rebuild(rebuilt, "delta index")
        self._compact()
        self._same_as_rebuild(rebuilt, "compacted index")

    def _same_as_rebuild(self, rebuilt: str, what: str) -> None:
        a, b = query.IndexReader(self.idx), query.IndexReader(rebuilt)
        rng = np.random.default_rng(self.seed + 31)
        for i in range(12):
            q = " ".join(self.terms[int(x)] for x in
                         rng.integers(0, min(400, len(self.terms)),
                                      size=1 + i % 3))
            got = doc_rows(a, a.topk(q, 50))
            if self.corrupt and i == 0 and got:
                got[0] = (got[0][0], got[0][1] + 1e-3)
            ids, scores = b.match_scores(q)
            want_scores = {r: s for (r, s) in doc_rows(
                b, list(zip(ids.tolist(), scores.tolist())))}
            same_ranking(got, doc_rows(b, b.topk(q, 50)), want_scores,
                         f"churn {q!r} ({what} vs full rebuild)")

    def metrics(self) -> Dict[str, float]:
        return {"op_p50_ms": median(self.fresh_s) * 1e3,
                "aux_p50_ms": median(self.reopen_q) * 1e3,
                "throughput_per_s": self.reindexed / sum(self.cycle_s),
                "index_bytes_per_input_byte": self.base_ratio}

    def report(self) -> Dict[str, float]:
        q, p = tail(self.fresh_s, 0.9)
        return {"freshness_p50_s": median(self.fresh_s),
                "freshness_p90_s": p, "freshness_p90_q": q,
                "reopen_query_p50_ms": median(self.reopen_q) * 1e3,
                "cycles": self.cycles}

    def main_index(self) -> str:
        return self.idx

    def primary(self) -> List[float]:
        return self.fresh_s

    def texts(self) -> List[str]:
        return [t or "" for cols in self.files for t in cols[TEXT]]


WORKLOADS = {w.name: w for w in (Bulk, Search, Churn)}
