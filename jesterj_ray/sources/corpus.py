"""Deterministic synthetic source-code corpus (the BASELINE.json input_hint).

Columns exactly ``(repo:string, path:string, commit:string, lang:string,
content:string)``.  Seeded; identical output for identical (n_rows, seed)
regardless of process or parallelism.  Mirrors FIXTURES.md F1:

- zipf-ish repo sizes (skew), langs with fixed proportions
- hot terms (``import``, ``return``, ``def``, ``public``) over-represented
  to exercise hot-term handling in the groupby(term) shuffle
- ~2% planted exact duplicates (same content, different repo/path)
- near-duplicates with one-token difference (must NOT dedup)
- a few empty-content rows and comment-only rows (zero tokens)

Reference analog: JesterJ tests run over a small bundled corpus (44
Shakespeare plays, ``code/ingest/src/test/resources/test-data``); we
synthesize instead (no external data allowed).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

LANGS = ["python", "java", "javascript", "go", "c"]
_EXT = {"python": "py", "java": "java", "javascript": "js", "go": "go", "c": "c"}

_KEYWORDS = {
    "python": ["import", "def", "return", "class", "if", "for", "self", "None"],
    "java": ["import", "public", "return", "class", "static", "void", "new", "final"],
    "javascript": ["import", "function", "return", "const", "let", "export", "async"],
    "go": ["import", "func", "return", "package", "var", "defer", "struct"],
    "c": ["include", "return", "int", "void", "static", "struct", "sizeof"],
}

_NOUNS = ["config", "parser", "handler", "request", "response", "buffer", "index",
          "token", "stream", "cache", "worker", "batch", "record", "schema",
          "error", "value", "field", "query", "result", "client"]
_VERBS = ["parse", "build", "read", "write", "merge", "split", "encode", "decode",
          "validate", "transform", "fetch", "flush", "init", "close", "score"]


def _identifier(rng: np.random.Generator, style: str) -> str:
    v = _VERBS[rng.integers(0, len(_VERBS))]
    n = _NOUNS[rng.integers(0, len(_NOUNS))]
    n2 = _NOUNS[rng.integers(0, len(_NOUNS))]
    if style == "camel":
        return v + n.capitalize() + (n2.capitalize() if rng.random() < 0.3 else "")
    return v + "_" + n + (("_" + n2) if rng.random() < 0.3 else "")


def _make_content(rng: np.random.Generator, lang: str, target_lines: int) -> str:
    kw = _KEYWORDS[lang]
    style = "camel" if lang in ("java", "javascript") else "snake"
    lines = []
    for _ in range(target_lines):
        r = rng.random()
        if r < 0.18:
            lines.append(f"{kw[0]} {_NOUNS[rng.integers(0, len(_NOUNS))]}")
        elif r < 0.38:
            fn = _identifier(rng, style)
            arg = _NOUNS[rng.integers(0, len(_NOUNS))]
            lines.append(f"{kw[1 % len(kw)]} {fn}({arg}):" if lang == "python"
                         else f"{kw[1 % len(kw)]} {fn}({arg}) {{")
        elif r < 0.60:
            a = _identifier(rng, style)
            b = _identifier(rng, style)
            lines.append(f"    {a} = {b}({int(rng.integers(0, 1000))})")
        elif r < 0.75:
            lines.append(f"    {kw[2 % len(kw)]} {_identifier(rng, style)}")
        elif r < 0.85:
            lines.append(f"    # {_VERBS[rng.integers(0, len(_VERBS))]} the "
                         f"{_NOUNS[rng.integers(0, len(_NOUNS))]}")
        else:
            s = _NOUNS[rng.integers(0, len(_NOUNS))]
            lines.append(f'    log("{s} {int(rng.integers(0, 100))}")')
    return "\n".join(lines)


def generate_corpus(n_rows: int, seed: int = 42) -> pa.Table:
    """Deterministic corpus table of exactly the input_hint shape."""
    rng = np.random.default_rng(seed)
    n_repos = max(2, n_rows // 40)
    # zipf-ish repo assignment (skew)
    repo_idx = (rng.zipf(1.3, size=n_rows) - 1) % n_repos
    repos, paths, commits, langs, contents = [], [], [], [], []
    per_repo_count: dict = {}
    for i in range(n_rows):
        ri = int(repo_idx[i])
        k = per_repo_count.get(ri, 0)
        per_repo_count[ri] = k + 1
        lang = LANGS[int(rng.integers(0, len(LANGS)))]
        repo = f"org{ri % 17}/proj{ri}"
        path = f"src/pkg{k % 7}/mod_{k}.{_EXT[lang]}"
        commit = hashlib.sha1(f"{repo}:{path}".encode()).hexdigest() * 2
        commit = commit[:40]
        nlines = int(rng.integers(5, 120))
        if i % 211 == 0:
            content = ""  # planted empty
        elif i % 173 == 0:
            content = "# only a comment line\n# and another\n"
        elif i == 137:
            # planted wide record (>1 MB) — FIXTURES.md F1 wide-record
            # handling: must index without blowing batch/block budgets
            content = _make_content(rng, lang, 40) * 1200
        else:
            content = _make_content(rng, lang, nlines)
        repos.append(repo)
        paths.append(path)
        commits.append(commit)
        langs.append(lang)
        contents.append(content)
    # planted exact duplicates: ~2% of rows copy content from an earlier row
    n_dups = n_rows // 50
    dup_src = rng.integers(0, n_rows, size=n_dups)
    dup_dst = rng.integers(0, n_rows, size=n_dups)
    for s, d in zip(dup_src, dup_dst):
        if s != d and contents[int(s)]:
            contents[int(d)] = contents[int(s)]
    # planted near-duplicates: one-token difference (must survive dedup)
    for j in range(0, n_rows, max(97, n_rows // 10)):
        if contents[j]:
            contents[(j + 1) % n_rows] = contents[j] + "\nextra_token_zq"
    return pa.table({
        "repo": pa.array(repos, pa.string()),
        "path": pa.array(paths, pa.string()),
        "commit": pa.array(commits, pa.string()),
        "lang": pa.array(langs, pa.string()),
        "content": pa.array(contents, pa.string()),
    })


# fixed reference query set (FIXTURES.md F2): hot term alone, rare identifier,
# multi-term, absent term, camelCase term that only matches after splitting
REFERENCE_QUERIES = [
    {"qid": 1, "query": "import", "k": 10},
    {"qid": 2, "query": "parse config error", "k": 10},
    {"qid": 3, "query": "encodeBuffer", "k": 10},
    {"qid": 4, "query": "zzz_absent_term", "k": 10},
    {"qid": 5, "query": "return", "k": 1},
    {"qid": 6, "query": "validate schema", "k": 100},
    {"qid": 7, "query": "flush cache worker", "k": 10},
    {"qid": 8, "query": "static void", "k": 10},
]
