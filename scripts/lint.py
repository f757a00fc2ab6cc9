#!/usr/bin/env python3
"""Repo-invariant lints that clang-tidy cannot express.

Enforced invariants (see DESIGN.md §7):

  1. append-only-fs   The simulated HDFS never grows in-place mutation: the
                      WritableFile surface stays exactly {Append, Sync, Close},
                      and no code anywhere names a positional-write primitive
                      (WriteAt/Truncate/pwrite). This is the paper's core
                      storage constraint — every "update" must rewrite files
                      or go through the attached KV table.
  2. no-raw-new       No raw new/delete expressions outside the skip-list's
                      arena allocator (src/common/skiplist.h). `new` wrapped
                      directly in a smart pointer (the private-constructor
                      factory idiom) is allowed.
  3. no-sleep-locked  In src/fs and src/kv, no thread sleeps while a
                      std::mutex is held (lock_guard/unique_lock/scoped_lock
                      in scope): simulated client latency must be paid with
                      the store available to other threads.
  4. include-hygiene  Headers start with #pragma once, never contain
                      file-scope `using namespace`, and project includes are
                      quote-form src-relative paths (no "..", no .cc).
  5. no-void-discard  Statuses are never swallowed with a bare `(void)call()`
                      cast; DTL_IGNORE_STATUS(st, "reason") is the only
                      sanctioned way to drop one, and it is greppable.
  6. metric-hygiene   Instrument and span names at call sites in src/ come
                      from the registered constexpr constants in
                      src/obs/metric_names.h, never from inline string
                      literals: counter("foo") drifts, counter(kFoo) cannot.
                      (Span/AddNode detail strings — the 2nd argument — stay
                      free-form.) The registry itself must stay well-formed:
                      every declared name is lowercase dot-separated
                      ([a-z0-9_-] segments) and no two constants alias the
                      same string, so the telemetry surface is enumerable
                      from that one header.
  7. no-raw-clock     Outside dtl::Stopwatch (src/common/stopwatch.h) and the
                      obs layer, nothing reads std::chrono clocks directly;
                      all timing flows through the stopwatch so traces,
                      metrics, and benches agree on one monotonic source.
  8. snapshot-reads   In the MVCC layers (src/dualtable, src/exec, src/sql)
                      every read goes through a pinned snapshot: no
                      latest-visible scanner creation (NewScanner /
                      NewCellScanner / NewRowScanner — the *At variants take
                      a KvSnapshot), and MasterTable scan/plan calls must
                      pass a pinned generation as the first argument. The
                      snapshot machinery itself (master_table, attached_table,
                      snapshot.h) and the non-MVCC baselines are exempt.
  9. one-planner      In src/sql, FindIndexProbe( is called only from
                      Engine::PlanSelect, a storage's PlanDml( (called
                      through -> or .) only from Engine::PlanDml and a
                      storage's PlanCompact( only from Engine::PlanCompact:
                      each statement's route, DML plan or compaction is
                      chosen once, by the planner whose plan execution,
                      EXPLAIN and EXPLAIN ANALYZE all read, so no second
                      caller can re-derive (and drift from) the decision.
 10. batch-currency   RowBatch is the one scan currency. Across src/, no
                      storage produces rows: nothing names the retired
                      BatchToRowAdapter / RowToBatchAdapter bridges, no class
                      derives from RowIterator (the one concrete row view
                      over a BatchIterator), no virtual returns one, and no
                      Scan(...) is overridden (StorageTable::ScanBatchesAt is
                      the only scan virtual). In src/sql and src/exec,
                      nothing names table::RowIterator or calls a row scan
                      (->Scan( / .Scan( / ScanAt() either: operators pull
                      batches and rows materialize once, at the QueryResult
                      boundary (exec::CollectBatches);
                      ParallelScanner::CollectRows builds its rows from
                      batches and stays allowed.
 11. storage-neutral  src/exec and src/sql (except session.{h,cc}, the table
                      factory) name no concrete storage: no dynamic_cast, no
                      static_cast<dual:: / static_cast<baseline::, and no
                      #include of a dualtable/ or baseline/ header. Every
                      storage-specific decision sits behind StorageTable
                      (Pin, ScanBatchesAt, morsels, index lookup, PlanDml,
                      PlanCompact).

Usage:  scripts/lint.py [paths...]      (defaults to src/ tests/ bench/ examples/)
Exit status: 0 clean, 1 findings (one line each: path:line: [rule] message).
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

DEFAULT_DIRS = ["src", "tests", "bench", "examples"]

# Rule 1: the only mutating methods WritableFile may declare.
WRITABLE_FILE_ALLOWED = {"Append", "Sync", "Close"}
FORBIDDEN_FS_TOKENS = ["WriteAt(", "Truncate(", "truncate(", "pwrite(", "PWrite("]

# Rule 2 allowances: the skip-list arena, and `new` wrapped in a smart pointer
# on the same or one of the two preceding lines (multi-line factory calls).
RAW_NEW_ALLOWED_FILES = {"src/common/skiplist.h"}
SMART_PTR_RE = re.compile(r"(_ptr<|make_unique|make_shared)")
NEW_EXPR_RE = re.compile(r"(^|[^\w.])new\b(?!\s*\()")  # `new T`, not `operator new(`
DELETE_EXPR_RE = re.compile(r"(^|[^\w.])delete\b(\s*\[\s*\])?\s")

LOCK_DECL_RE = re.compile(r"\b(?:std::)?(lock_guard|unique_lock|scoped_lock)\s*<")
SLEEP_RE = re.compile(r"\bsleep_(for|until)\s*\(")

PRAGMA_ONCE_RE = re.compile(r"^\s*#\s*pragma\s+once\b")
USING_NAMESPACE_RE = re.compile(r"^\s*using\s+namespace\b")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+(["<])([^">]+)[">]')

VOID_DISCARD_RE = re.compile(r"\(void\)\s*[\w:.>-]*\w\s*\(")

# Rule 6: registration/span call sites whose NAME argument is a raw string
# literal instead of an obs::names constant. The Span pattern anchors on the
# 2-arg name position (tracer, "name"); AddNode/AddLeaf anchor on the 1st
# argument, so free-form detail strings in later positions stay legal.
METRIC_LITERAL_RES = [
    re.compile(r"(?:->|\.)\s*(?:counter|gauge|histogram)\s*\(\s*\""),
    re.compile(r"\bRegisterView\s*\(\s*\""),
    re.compile(r"\bAddNode\s*\(\s*\""),
    re.compile(r"\bAddLeaf\s*\(\s*\""),
    re.compile(r"\bSpan\s+\w+\s*\(\s*[^,()]+,\s*\""),
]
METRIC_HYGIENE_EXEMPT = ("src/obs/",)  # the layer that defines the names

# Rule 6b: the declaration side of metric hygiene. Matches the one sanctioned
# declaration form in metric_names.h (possibly wrapped across lines).
METRIC_NAMES_HEADER = "src/obs/metric_names.h"
METRIC_DECL_RE = re.compile(
    r'inline\s+constexpr\s+const\s+char\*\s+(k\w+)\s*=\s*"([^"]*)"\s*;')
METRIC_NAME_FORMAT_RE = re.compile(r"^[a-z][a-z0-9_-]*(\.[a-z0-9_-]+)*$")

# Rule 7: direct chrono clock reads. Stopwatch is the one sanctioned reader.
RAW_CLOCK_RE = re.compile(
    r"\b(?:steady_clock|system_clock|high_resolution_clock)\s*::\s*now\b")
RAW_CLOCK_EXEMPT = ("src/common/stopwatch.h", "src/obs/")

# Rule 8: latest-visible reads are banned in the MVCC layers. The snapshot
# machinery itself — the files that *implement* pinning and the latest-visible
# conveniences kept for the non-MVCC baselines — is exempt, as are the
# baselines and the KV store (its latest-visible scanners are the attached
# table's implementation detail, wrapped before the MVCC layers see them).
SNAPSHOT_GUARDED_DIRS = ("src/dualtable/", "src/exec/", "src/sql/")
SNAPSHOT_EXEMPT_FILES = {
    "src/dualtable/snapshot.h",
    "src/dualtable/master_table.h",
    "src/dualtable/master_table.cc",
    "src/dualtable/attached_table.h",
    "src/dualtable/attached_table.cc",
}
# Latest-visible scanner creators; the sanctioned forms end in ...At( and
# take an explicit KvSnapshot, so they do not match.
LATEST_SCANNER_RE = re.compile(r"\b(NewScanner|NewCellScanner|NewRowScanner)\s*\(")
# MasterTable scan/plan entry points: the first argument must be a pinned
# generation (the generation-less overloads pin CurrentGeneration() per call,
# which tears under a racing COMPACT).
MASTER_SCAN_RE = re.compile(
    r"\b(NewBatchScanIterator|NewFileBatchScanIterator|PlanMorsels|"
    r"NewMorselBatchScanIterator)\s*\(")
PINNED_ARG_RE = re.compile(r"gen|snapshot", re.I)

# Rule 9: the index-route decision has one caller, the SELECT planner, and
# a storage's DML plan choice one caller, the DML planner.
ONE_PLANNER_DIR = "src/sql/"
ONE_PLANNER_CALLS = (
    (re.compile(r"\bFindIndexProbe\s*\("), "FindIndexProbe", "PlanSelect",
     "the SELECT route"),
    (re.compile(r"(?:->|\.)\s*PlanDml\s*\("), "StorageTable::PlanDml", "PlanDml",
     "the DML plan"),
    (re.compile(r"(?:->|\.)\s*PlanCompact\s*\("), "StorageTable::PlanCompact",
     "PlanCompact", "the compaction"),
)
FUNCTION_NAME_RE = re.compile(r"([A-Za-z_][\w:]*)\s*\(")

# Rule 10: no storage produces rows (all of src/), and the executor touches
# no row-at-a-time read surface at all (src/sql, src/exec).
ROW_PRODUCER_RE = re.compile(
    r"\bBatchToRowAdapter\b|\bRowToBatchAdapter\b|"
    r"[:,]\s*(?:(?:public|protected|private)\s+)?(?:(?:dtl::)?table::)?RowIterator\b"
    r"(?!\s*[>:*&(])|"
    r"\bvirtual\b[^;{()]*\bRowIterator\b|"
    r"\bScan\s*\([^()]*\)\s*(?:const\s*)?override\b")  # may wrap: matched on the text
BATCH_CURRENCY_DIRS = ("src/sql/", "src/exec/")
ROW_READ_RE = re.compile(
    r"\b(?:table::)?RowIterator\b|(?:->|\.)\s*Scan\s*\(|\bScanAt\s*\(")

# Rule 11: the executor reaches storage only through table::StorageTable.
STORAGE_NEUTRAL_DIRS = ("src/sql/", "src/exec/")
STORAGE_NEUTRAL_EXEMPT = {"src/sql/session.h", "src/sql/session.cc"}
CONCRETE_STORAGE_RE = re.compile(
    r"\bdynamic_cast\b|\bstatic_cast\s*<\s*(?:const\s+)?(?:dtl::)?(?:dual|baseline)::")
CONCRETE_INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"(?:dualtable|baseline)/')


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments and string/char literals, preserving line structure."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append(c if c == "\n" else " ")
        i += 1
    return "".join(out)


def strip_comments_only(text: str) -> str:
    """Blanks comments but KEEPS string literals (for literal-name lints)."""
    out = []
    i, n = 0, len(text)
    state = "code"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
            elif c == "'":
                state = "char"
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
            out.append(c if c == "\n" else " ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append(text[i:i + 2])
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append(c)
        i += 1
    return "".join(out)


def rel(path: Path) -> str:
    try:
        return str(path.relative_to(REPO))
    except ValueError:
        return str(path)


def check_writable_file_surface(findings):
    """Rule 1a: WritableFile declares no mutators beyond Append/Sync/Close."""
    path = REPO / "src/fs/filesystem.h"
    text = strip_comments_and_strings(path.read_text())
    m = re.search(r"class WritableFile\s*{(.*?)\n};", text, re.S)
    if not m:
        findings.append((rel(path), 1, "append-only-fs", "cannot locate class WritableFile"))
        return
    body = m.group(1)
    for lineno_off, line in enumerate(body.splitlines()):
        decl = re.match(r"\s*Status\s+(\w+)\s*\(", line)
        if decl and decl.group(1) not in WRITABLE_FILE_ALLOWED:
            lineno = text[: m.start(1)].count("\n") + 1 + lineno_off
            findings.append((rel(path), lineno, "append-only-fs",
                             f"WritableFile::{decl.group(1)} is not in the append-only "
                             f"surface {sorted(WRITABLE_FILE_ALLOWED)}"))


def check_metric_name_registry(findings):
    """Rule 6b: metric_names.h itself is well-formed. Every declared name
    follows the naming scheme (lowercase dot-separated; hyphens only inside
    span/operator segments), and no two constants alias one string — an alias
    silently splits a logical series across two identifiers."""
    path = REPO / METRIC_NAMES_HEADER
    text = path.read_text()
    rp = rel(path)
    seen = {}
    for m in METRIC_DECL_RE.finditer(text):
        ident, value = m.groups()
        lineno = text[: m.start()].count("\n") + 1
        if not METRIC_NAME_FORMAT_RE.match(value):
            findings.append((rp, lineno, "metric-hygiene",
                             f'{ident} = "{value}" violates the naming scheme '
                             "(lowercase, dot-separated [a-z0-9_-] segments)"))
        if value in seen:
            findings.append((rp, lineno, "metric-hygiene",
                             f'{ident} aliases "{value}", already declared as '
                             f"{seen[value]}"))
        else:
            seen[value] = ident
    if not seen:
        findings.append((rp, 1, "metric-hygiene",
                         "no metric-name declarations parsed — the declaration "
                         "form changed under the lint"))


def enclosing_functions(text: str):
    """Maps each offset of comment/string-stripped C++ `text` to the name of
    the top-level function whose body contains it (None outside any body).
    Namespace and class braces do not count as bodies, so an inline member
    function is a top-level function too; the name is the first `name(` of
    the declaration that precedes the body's opening brace."""
    names = [None] * len(text)
    stack = []  # True for a namespace/extern brace, False for a body brace
    current = None
    decl_start = 0
    for i, ch in enumerate(text):
        if ch == "{":
            head = text[decl_start:i]
            is_namespace = re.search(r"\b(namespace|extern|class|struct|union|enum)\b[^;{}()]*$",
                                     head) is not None
            if not is_namespace and not any(not b for b in stack):
                m = FUNCTION_NAME_RE.search(head)
                current = m.group(1).split("::")[-1] if m else None
            stack.append(is_namespace)
        elif ch == "}":
            if stack:
                stack.pop()
            if not any(not b for b in stack):
                current = None
                decl_start = i + 1
        elif ch == ";" and not any(not b for b in stack):
            decl_start = i + 1
        names[i] = current if any(not b for b in stack) else None
    return names


def check_file(path: Path, findings):
    raw = path.read_text()
    text = strip_comments_and_strings(raw)
    lines = text.splitlines()
    rp = rel(path)
    is_header = path.suffix == ".h"
    in_fs_kv = rp.startswith(("src/fs/", "src/kv/"))

    # Rule 1b: no positional-write primitives anywhere.
    for i, line in enumerate(lines, 1):
        for tok in FORBIDDEN_FS_TOKENS:
            if tok in line:
                findings.append((rp, i, "append-only-fs",
                                 f"'{tok.rstrip('(')}' suggests in-place file mutation; "
                                 "the simulated HDFS is append-only"))

    # Rule 2: raw new/delete.
    if rp not in RAW_NEW_ALLOWED_FILES:
        for i, line in enumerate(lines, 1):
            if NEW_EXPR_RE.search(line):
                context = " ".join(lines[max(0, i - 3):i])
                if not SMART_PTR_RE.search(context):
                    findings.append((rp, i, "no-raw-new",
                                     "raw `new` outside a smart-pointer wrapper "
                                     "(arena allocation lives in src/common/skiplist.h)"))
            m = DELETE_EXPR_RE.search(line)
            if m and not re.search(r"=\s*delete\b", line):
                findings.append((rp, i, "no-raw-new",
                                 "raw `delete` expression (only the skip-list arena "
                                 "manages raw memory)"))

    # Rule 3: no sleep while a lock is in scope (fs/kv only).
    if in_fs_kv:
        depth = 0
        lock_depths = []  # brace depths at which a lock was declared
        for i, line in enumerate(lines, 1):
            if LOCK_DECL_RE.search(line):
                lock_depths.append(depth)
            if SLEEP_RE.search(line) and lock_depths:
                findings.append((rp, i, "no-sleep-locked",
                                 "sleeping while a mutex is held; pay simulated "
                                 "latency after releasing the lock"))
            for ch in line:
                if ch == "{":
                    depth += 1
                elif ch == "}":
                    depth -= 1
                    while lock_depths and lock_depths[-1] >= depth:
                        lock_depths.pop()

    # Rule 4: include hygiene.
    if is_header:
        for i, line in enumerate(lines, 1):
            if line.strip():
                if not PRAGMA_ONCE_RE.match(line):
                    findings.append((rp, i, "include-hygiene",
                                     "headers must start with #pragma once"))
                break
        for i, line in enumerate(lines, 1):
            if USING_NAMESPACE_RE.match(line):
                findings.append((rp, i, "include-hygiene",
                                 "file-scope `using namespace` in a header"))
    for i, line in enumerate(lines, 1):
        m = INCLUDE_RE.match(line)
        if not m:
            continue
        form, inc = m.groups()
        if inc.endswith(".cc"):
            findings.append((rp, i, "include-hygiene", "never #include a .cc file"))
        if form == '"':
            if inc.startswith(".."):
                findings.append((rp, i, "include-hygiene",
                                 "relative '..' include; use an src-rooted path"))
            elif not (REPO / "src" / inc).exists() and not (path.parent / inc).exists():
                findings.append((rp, i, "include-hygiene",
                                 f'"{inc}" does not resolve under src/'))

    # Rules 6/7 look at comment-stripped text that KEEPS string literals,
    # since both key off quoted call arguments / clock spellings.
    code_lines = strip_comments_only(raw).splitlines()

    # Rule 6: instrument/span names in src/ must be obs::names constants.
    if rp.startswith("src/") and not rp.startswith(METRIC_HYGIENE_EXEMPT):
        for i, line in enumerate(code_lines, 1):
            for pattern in METRIC_LITERAL_RES:
                if pattern.search(line):
                    findings.append((rp, i, "metric-hygiene",
                                     "metric/span name is an inline string literal; "
                                     "use a constant from src/obs/metric_names.h"))
                    break

    # Rule 7: no direct chrono clock reads outside the stopwatch / obs layer.
    if not rp.startswith(RAW_CLOCK_EXEMPT):
        for i, line in enumerate(code_lines, 1):
            if RAW_CLOCK_RE.search(line):
                findings.append((rp, i, "no-raw-clock",
                                 "raw std::chrono clock read; time everything "
                                 "through dtl::Stopwatch (src/common/stopwatch.h)"))

    # Rule 8: in the MVCC layers, reads go through a pinned snapshot.
    if rp.startswith(SNAPSHOT_GUARDED_DIRS) and rp not in SNAPSHOT_EXEMPT_FILES:
        for i, line in enumerate(lines, 1):
            if LATEST_SCANNER_RE.search(line):
                findings.append((rp, i, "snapshot-reads",
                                 "latest-visible scanner in an MVCC layer; use the "
                                 "...At( variant with a pinned KvSnapshot"))
            for m in MASTER_SCAN_RE.finditer(line):
                # The pinned-generation first argument may wrap; scan the call
                # text across up to three lines for the gen/snapshot token.
                call = " ".join(lines[i - 1:i + 2])[m.start():]
                first_arg = call.split(",", 1)[0]
                if not PINNED_ARG_RE.search(first_arg):
                    findings.append((rp, i, "snapshot-reads",
                                     f"{m.group(1)} without a pinned generation; "
                                     "pass snapshot->generation so a racing "
                                     "COMPACT cannot tear the scan"))

    # Rule 9: FindIndexProbe is called only from the SELECT planner and a
    # storage's PlanDml only from the DML planner.
    if rp.startswith(ONE_PLANNER_DIR):
        owners = None
        for call_re, callee, planner, decision in ONE_PLANNER_CALLS:
            for m in call_re.finditer(text):
                owners = owners or enclosing_functions(text)
                owner = owners[m.start()]
                if owner is not None and owner != planner:
                    findings.append((rp, text[:m.start()].count("\n") + 1, "one-planner",
                                     f"{callee} called from {owner}; only "
                                     f"{planner} chooses {decision}"))

    # Rule 10: batches are the one scan currency; at most one finding a line.
    if rp.startswith("src/"):
        flagged = set()
        for m in ROW_PRODUCER_RE.finditer(text):
            i = text[:m.start()].count("\n") + 1
            if i in flagged:
                continue
            flagged.add(i)
            token = " ".join(m.group(0).split())
            findings.append((rp, i, "batch-currency",
                             f"'{token}' produces rows; storages implement "
                             "ScanBatchesAt and rows are the table::RowIterator "
                             "view over it"))
        for i, line in enumerate(lines, 1):
            m = i not in flagged and rp.startswith(BATCH_CURRENCY_DIRS) and \
                ROW_READ_RE.search(line)
            if m:
                findings.append((rp, i, "batch-currency",
                                 f"'{m.group(0).strip()}' reads rows in the executor; "
                                 "pull RowBatches (ScanBatches / ScanBatchesAt) and "
                                 "materialize at CollectBatches"))

    # Rule 11: no concrete storage in the executor. Includes are matched on
    # the raw line (the stripped text blanks the quoted path).
    if rp.startswith(STORAGE_NEUTRAL_DIRS) and rp not in STORAGE_NEUTRAL_EXEMPT:
        raw_lines = raw.splitlines()
        for i, line in enumerate(lines, 1):
            m = CONCRETE_STORAGE_RE.search(line)
            if m or CONCRETE_INCLUDE_RE.match(raw_lines[i - 1]):
                token = m.group(0) if m else "#include"
                findings.append((rp, i, "storage-neutral",
                                 f"'{token}' names concrete storage in the executor; "
                                 "add a StorageTable virtual instead"))

    # Rule 5: no (void)-discarded calls; DTL_IGNORE_STATUS is the audit trail.
    if rp != "src/common/status.h":  # the macro's own definition
        for i, line in enumerate(lines, 1):
            if VOID_DISCARD_RE.search(line):
                findings.append((rp, i, "no-void-discard",
                                 "discarding a call result with (void); use "
                                 'DTL_IGNORE_STATUS(st, "reason") for Status, or '
                                 "consume the value"))


def main(argv):
    targets = argv[1:] or DEFAULT_DIRS
    files = []
    for t in targets:
        p = (REPO / t) if not Path(t).is_absolute() else Path(t)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.h")))
            files.extend(sorted(p.rglob("*.cc")))
        elif p.suffix in (".h", ".cc") and p.exists():
            files.append(p)

    findings = []
    check_writable_file_surface(findings)
    check_metric_name_registry(findings)
    for f in files:
        check_file(f, findings)

    for path, line, rule, msg in findings:
        print(f"{path}:{line}: [{rule}] {msg}")

    ignores = 0
    for f in files:
        ignores += f.read_text().count("DTL_IGNORE_STATUS(")
    print(f"lint.py: {len(files)} files, {len(findings)} finding(s), "
          f"{ignores} DTL_IGNORE_STATUS site(s)", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
