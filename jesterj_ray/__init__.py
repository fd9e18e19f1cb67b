"""jesterj_ray — a Ray-Data-native document-ingest + inverted-index + BM25 engine.

A from-scratch reimplementation of the capabilities of nsoft/jesterj
(reference at /root/reference, a Java single-JVM document ingestion
framework feeding Solr/OpenSearch) re-expressed Ray-Data-first:

- JesterJ ``DocumentProcessor`` steps  -> vectorized ``map_batches`` stages
  over zero-copy Arrow batches (``jesterj_ray.stages``)
- JesterJ ``Plan``/``Step`` DAG        -> ``jesterj_ray.model.plan`` pipeline spec
- JesterJ scanners                     -> ``ray.data.read_parquet`` / corpus sources
- JesterJ Solr/OpenSearch senders      -> from-scratch inverted index + BM25
  query engine (``jesterj_ray.index``)
- JesterJ FTI (Cassandra status rows)  -> per-partition checkpoint manifest
  with atomic-rename commits (``jesterj_ray.state.manifest``)

Nothing here ports reference code; the reference defines WHAT to compute
(SURVEY.md), the implementation is idiomatic Ray Data.
"""

__version__ = "0.1.0"


def pool_size(want: int) -> int:
    """Actor-pool size for ``map_batches(concurrency=...)``: ``want``,
    capped to leave one cluster CPU free (a pool that holds every CPU
    starves the read tasks that feed it, and the stage never ends)."""
    import os

    import ray
    cpus = ray.cluster_resources().get("CPU", 1) if ray.is_initialized() \
        else os.cpu_count() or 1
    return min(want, max(1, int(cpus) - 1))
