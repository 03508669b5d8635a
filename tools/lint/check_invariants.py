#!/usr/bin/env python3
"""Project-invariant linter: cross-file consistency rules the compilers
cannot check.

Every rule ties two places that must agree but live in different files —
the protocol implementation and its README spec, a mutex and its annotation
discipline, an error slug and its documentation. The compiler sees each file
alone; this linter sees the pairs.

Rules (ids are stable; failures print one machine-readable line each):

  verb-doc        every protocol verb in src/server/protocol.cc (the
                  VerbName switch) has a README protocol-table row
                  (`| `verb ...` |`) AND a dispatch case in
                  src/server/session.cc (`case Verb::kX:`).
  mutex-guard     (a) no naked std::mutex / std::condition_variable /
                  std::lock_guard / std::unique_lock / std::scoped_lock /
                  std::shared_mutex / std::recursive_mutex outside
                  src/util/ — everything locks through util::Mutex so the
                  Clang thread-safety analysis can see it; (b) every src/
                  file declaring a util::Mutex carries at least one
                  GUARDED_BY — new locked state must land annotated.
  banned-pattern  no std::regex (exponential blowup on crafted input; the
                  project has its own automata), no rand()/srand() (use
                  src/util deterministic RNG), no raw pthread_create /
                  pthread_mutex / pthread_cond / pthread_join /
                  pthread_detach (std::thread + util::Mutex only;
                  pthread_sigmask is allowed — it has no std equivalent).
  err-slug-doc    every `err CODE` slug emitted by src/server/ (EmitError,
                  FormatErr, and protocol.cc's Error helper) appears in the
                  README as `err CODE`.
  store-version   the snapshot format constant kSnapshotFormatVersion in
                  src/store/snapshot.h has a matching changelog row
                  (`| v<N> |`) in the README "Persistence" section — a
                  format bump without documented migration notes is how
                  operators get surprised by `err store-version`. And the
                  format stays independent of the compiled-artifact layout:
                  no file under src/store/ includes src/sat/compiled_dtd.h
                  or anything under src/automata/ (a snapshot holds schemas
                  and verdicts; the loader recompiles the artifacts).
  client-sync     every protocol verb (src/server/protocol.cc VerbName
                  switch) appears in src/client/'s kKnownVerbs array, and
                  every err slug emitted under src/server/ appears in its
                  kKnownErrSlugs array — the client library must not lag
                  the server's wire surface. Vacuous when the tree has no
                  src/client/ (other fixtures) or no protocol.cc.
  dup-helper      no two tools/*.cc files define a same-named free function
                  with an identical normalized body of >= 6 statements —
                  the copy-paste class that produced two byte-identical
                  ParseIntFlag implementations. Shared logic belongs in
                  src/util/ (thin per-tool wrappers under the threshold are
                  fine).
  counter-store   outside src/obs/ and src/util/, a named std::atomic
                  integer declaration (in practice a data member, possibly
                  behind a shared_ptr) must be on an explicit allowlist:
                  the id sequences next_handle_id / next_ticket_id /
                  snapshot_seq and the timestamp last_activity_ms (a
                  trailing member `_` is ignored). Anything else is an
                  event counter or a gauge and belongs in an
                  obs::MetricsRegistry, where `stats` and `metrics` read
                  the same cell.
  dead-option     every field of SatEngineOptions, SocketServerOptions,
                  SessionOptions and ClientOptions is assigned
                  (`VAR.NAME =`, or `VAR.session.NAME =` through a
                  SocketServerOptions) in some file other than the struct's
                  own header and .cc — under src/, tools/, tests/,
                  perfbench/ or examples/. VAR must be declared with the
                  struct's type in that file (the nearest declaration
                  before the assignment wins). A field no caller, test or
                  benchmark sets is a knob nobody turns: make it a
                  constant. Vacuous for a struct whose header is absent.

Failure output (one line per finding, exit 1):
  INVARIANT-FAIL rule=<id> file=<path> msg=<message>

Usage: check_invariants.py [--root REPO] [--rules id1,id2,...]
Stdlib only; no third-party dependencies.
"""

import argparse
import os
import re
import sys

ALL_RULES = ("verb-doc", "mutex-guard", "banned-pattern", "err-slug-doc",
             "store-version", "client-sync", "dup-helper", "counter-store",
             "dead-option")

# ---------------------------------------------------------------------------
# Helpers


def read(path):
    with open(path, encoding="utf-8", errors="replace") as f:
        return f.read()


def strip_comments(text):
    """Removes // and /* */ comments, preserving string literals and line
    numbers (newlines inside block comments are kept)."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in ('"', "'"):
            quote = c
            out.append(c)
            i += 1
            while i < n:
                out.append(text[i])
                if text[i] == "\\" and i + 1 < n:
                    out.append(text[i + 1])
                    i += 2
                    continue
                if text[i] == quote:
                    i += 1
                    break
                i += 1
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 2
            continue
        out.append(c)
        i += 1
    return "".join(out)


def source_files(root, subdirs, exts=(".h", ".cc")):
    for sub in subdirs:
        base = os.path.join(root, sub)
        if not os.path.isdir(base):
            continue
        for dirpath, _, names in os.walk(base):
            for name in sorted(names):
                if name.endswith(exts):
                    yield os.path.join(dirpath, name)


def rel(root, path):
    return os.path.relpath(path, root)


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


# ---------------------------------------------------------------------------
# Rules (each returns a list of (file, msg) findings)


def rule_verb_doc(root):
    findings = []
    protocol_cc = os.path.join(root, "src", "server", "protocol.cc")
    session_cc = os.path.join(root, "src", "server", "session.cc")
    readme = os.path.join(root, "README.md")
    for required in (protocol_cc, session_cc, readme):
        if not os.path.isfile(required):
            findings.append((rel(root, required),
                             "file required by verb-doc rule is missing"))
    if findings:
        return findings
    protocol_text = read(protocol_cc)
    session_text = read(session_cc)
    readme_text = read(readme)
    # The VerbName switch is the single source of truth for the verb list.
    verbs = re.findall(r'case\s+Verb::(k\w+):\s*return\s+"([a-z]+)";',
                       protocol_text)
    if not verbs:
        findings.append((rel(root, protocol_cc),
                         "no verbs found in VerbName switch "
                         "(extraction pattern broke?)"))
        return findings
    for enum_name, verb in verbs:
        # README protocol-table row: a table line whose first cell starts
        # with the verb in backticks (`verb` or `verb ARGS...`).
        row = re.compile(r"^\|\s*`" + re.escape(verb) + r"(?:[ `])",
                         re.MULTILINE)
        if not row.search(readme_text):
            findings.append(
                (rel(root, readme),
                 "protocol verb '%s' has no README protocol-table row "
                 "(expected a line matching '| `%s ...` |')" % (verb, verb)))
        if not re.search(r"case\s+Verb::" + enum_name + r"\b", session_text):
            findings.append(
                (rel(root, session_cc),
                 "protocol verb '%s' (Verb::%s) has no dispatch case in "
                 "ServerSession::HandleCommand" % (verb, enum_name)))
    return findings


NAKED_MUTEX = re.compile(
    r"std::(?:mutex|condition_variable(?:_any)?|lock_guard|unique_lock|"
    r"scoped_lock|shared_mutex|shared_lock|recursive_mutex|timed_mutex)\b")
UTIL_MUTEX_MEMBER = re.compile(r"\butil::Mutex\b")


def rule_mutex_guard(root):
    findings = []
    for path in source_files(root, ("src", "tools")):
        r = rel(root, path)
        parts = r.split(os.sep)
        in_util = len(parts) >= 2 and parts[0] == "src" and parts[1] == "util"
        if in_util:
            continue  # the wrapper layer itself may touch std primitives
        text = strip_comments(read(path))
        m = NAKED_MUTEX.search(text)
        if m:
            findings.append(
                (r, "line %d: naked %s outside src/util/ — use util::Mutex/"
                 "util::MutexLock/util::CondVar (src/util/mutex.h) so the "
                 "Clang thread-safety analysis can prove the lock discipline"
                 % (line_of(text, m.start()), m.group(0))))
        if parts[0] == "src" and UTIL_MUTEX_MEMBER.search(text):
            if "GUARDED_BY(" not in text:
                findings.append(
                    (r, "declares a util::Mutex but no GUARDED_BY "
                     "annotation — annotate the fields the mutex guards "
                     "(see src/util/thread_annotations.h)"))
    return findings


BANNED = (
    (re.compile(r"\bstd::regex\b"),
     "std::regex is banned (exponential blowup on crafted patterns; use "
     "the project's automata in src/automata/)"),
    (re.compile(r"(?<![\w:])s?rand\s*\(\s*\)"),
     "rand()/srand() are banned (non-deterministic tests; use the seeded "
     "RNG in src/util/)"),
    (re.compile(r"\bpthread_(?:create|mutex|cond|join|detach)\w*\b"),
     "raw pthreads are banned (std::thread + util::Mutex only; "
     "pthread_sigmask is the one allowed exception)"),
)


def rule_banned_pattern(root):
    findings = []
    for path in source_files(root, ("src", "tools")):
        text = strip_comments(read(path))
        for pattern, why in BANNED:
            m = pattern.search(text)
            if m:
                findings.append(
                    (rel(root, path), "line %d: %s: %s"
                     % (line_of(text, m.start()), m.group(0), why)))
    return findings


# `err CODE` emission sites in the serving layer. Matches EmitError("slug",
# FormatErr("slug" and the protocol.cc-local Error("slug" helper; the
# lookbehind excludes Status::Error / Result<T>::Error (whose first argument
# is prose, not a slug), and the slug shape itself ([a-z][a-z0-9-]*
# immediately closed by a quote) excludes ordinary message strings.
ERR_SITE = re.compile(
    r"(?:\bEmitError|\bFormatErr|(?<!:)\bError)\(\s*\"([a-z][a-z0-9-]*)\"")


def rule_err_slug_doc(root):
    findings = []
    readme_path = os.path.join(root, "README.md")
    if not os.path.isfile(readme_path):
        return [("README.md", "missing (required by err-slug-doc rule)")]
    readme_text = read(readme_path)
    seen = set()
    for path in source_files(root, (os.path.join("src", "server"),)):
        text = read(path)
        for m in ERR_SITE.finditer(text):
            slug = m.group(1)
            if slug in seen:
                continue
            seen.add(slug)
            if ("err " + slug) not in readme_text:
                findings.append(
                    (rel(root, path),
                     "error slug '%s' (line %d) is not documented in "
                     "README.md — add an `err %s` entry to the protocol "
                     "error documentation"
                     % (slug, line_of(text, m.start()), slug)))
    if not seen:
        findings.append((os.path.join("src", "server"),
                         "no error-slug emission sites found "
                         "(extraction pattern broke?)"))
    return findings


SNAPSHOT_VERSION = re.compile(
    r"\bkSnapshotFormatVersion\s*=\s*(\d+)\s*;")
ARTIFACT_INCLUDE = re.compile(
    r'^[ \t]*#[ \t]*include[ \t]*[<"]'
    r'(src/sat/compiled_dtd\.h|src/automata/[^">]*)[">]',
    re.MULTILINE)


def rule_store_version(root):
    """The on-disk format version must have a README changelog row: bumping
    kSnapshotFormatVersion invalidates every deployed snapshot (old readers
    reject newer files), so the bump and its migration notes land together.
    The store must also not see the compiled-artifact layout: artifacts are
    recompiled from the schema on load, so CompiledDtd's representation can
    change without touching the on-disk format."""
    findings = []
    for path in source_files(root, [os.path.join("src", "store")]):
        text = strip_comments(read(path))
        for m in ARTIFACT_INCLUDE.finditer(text):
            findings.append((
                rel(root, path),
                "line %d: src/store/ includes %s — the snapshot format must "
                "not depend on the compiled-artifact layout; persist the "
                "schema and recompile on load"
                % (line_of(text, m.start()), m.group(1))))
    snapshot_h = os.path.join(root, "src", "store", "snapshot.h")
    if not os.path.isfile(snapshot_h):
        return findings  # no snapshot store in this tree
    m = SNAPSHOT_VERSION.search(strip_comments(read(snapshot_h)))
    if not m:
        return findings + [(rel(root, snapshot_h),
                            "kSnapshotFormatVersion not found "
                            "(extraction pattern broke?)")]
    version = int(m.group(1))
    readme_path = os.path.join(root, "README.md")
    if not os.path.isfile(readme_path):
        return findings + [("README.md",
                            "missing (required by store-version rule)")]
    row = re.compile(r"^\|\s*v" + str(version) + r"\s*\|", re.MULTILINE)
    if not row.search(read(readme_path)):
        findings.append((
            "README.md",
            "snapshot format version %d (kSnapshotFormatVersion, "
            "src/store/snapshot.h) has no changelog row in the README "
            "Persistence section — add a '| v%d | ... |' row describing "
            "the format (and what invalidated older snapshots) in the "
            "same change that bumps the constant" % (version, version)))
    return findings


def extract_c_string_array(text, array_name):
    """Returns the string literals in `const char* const NAME[] = {...}`,
    or None when the array is not found."""
    m = re.search(r"\b" + re.escape(array_name) +
                  r"\s*\[\s*\]\s*=\s*\{([^}]*)\}", text)
    if m is None:
        return None
    return re.findall(r'"([^"]*)"', m.group(1))


def rule_client_sync(root):
    """The client library ships the verb and err-slug vocabulary as data
    (kKnownVerbs/kKnownErrSlugs); a server-side protocol addition that skips
    the client would strand every library consumer on an older wire surface,
    so the arrays must be supersets of what the server actually speaks."""
    protocol_cc = os.path.join(root, "src", "server", "protocol.cc")
    client_dir = os.path.join(root, "src", "client")
    if not os.path.isfile(protocol_cc) or not os.path.isdir(client_dir):
        return []  # nothing to tie together in this tree
    client_text = ""
    for path in source_files(root, (os.path.join("src", "client"),)):
        client_text += read(path)
    known_verbs = extract_c_string_array(client_text, "kKnownVerbs")
    known_slugs = extract_c_string_array(client_text, "kKnownErrSlugs")
    client_rel = os.path.join("src", "client")
    if known_verbs is None or known_slugs is None:
        return [(client_rel,
                 "kKnownVerbs / kKnownErrSlugs array not found in "
                 "src/client/ (extraction pattern broke?)")]
    findings = []
    server_verbs = re.findall(r'case\s+Verb::k\w+:\s*return\s+"([a-z]+)";',
                              read(protocol_cc))
    if not server_verbs:
        return [(rel(root, protocol_cc),
                 "no verbs found in VerbName switch "
                 "(extraction pattern broke?)")]
    for verb in server_verbs:
        if verb not in known_verbs:
            findings.append(
                (client_rel,
                 "protocol verb '%s' (src/server/protocol.cc VerbName) is "
                 "missing from the client's kKnownVerbs array — the client "
                 "library must track the server's wire surface" % verb))
    slugs = set()
    for path in source_files(root, (os.path.join("src", "server"),)):
        for m in ERR_SITE.finditer(read(path)):
            slugs.add(m.group(1))
    for slug in sorted(slugs):
        if slug not in known_slugs:
            findings.append(
                (client_rel,
                 "err slug '%s' (emitted under src/server/) is missing from "
                 "the client's kKnownErrSlugs array" % slug))
    return findings


# A free-function definition head: return type + name + params + '{'.
# Intentionally naive (no templates/attributes) — tools/ code is plain.
FUNC_HEAD = re.compile(
    r"^(?:[A-Za-z_][\w:<>,&*\s]*?)\b([A-Za-z_]\w*)\s*\(([^;{}()]*)\)\s*\{",
    re.MULTILINE)
DUP_MIN_STATEMENTS = 6


def extract_body(text, open_brace):
    depth = 0
    for i in range(open_brace, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return text[open_brace + 1:i]
    return None


def rule_dup_helper(root):
    findings = []
    bodies = {}  # (name, normalized body) -> first file
    for path in source_files(root, ("tools",), exts=(".cc",)):
        if os.sep + "lint" + os.sep in path:
            continue
        text = strip_comments(read(path))
        for m in FUNC_HEAD.finditer(text):
            name = m.group(1)
            if name in ("main", "if", "for", "while", "switch", "catch"):
                continue
            body = extract_body(text, m.end() - 1)
            if body is None:
                continue
            normalized = re.sub(r"\s+", " ", body).strip()
            # Thin wrappers are fine; only substantial identical bodies are
            # the copy-paste class this rule exists for.
            if normalized.count(";") < DUP_MIN_STATEMENTS:
                continue
            key = (name, normalized)
            first = bodies.setdefault(key, rel(root, path))
            if first != rel(root, path):
                findings.append(
                    (rel(root, path),
                     "function '%s' duplicates an identical %d+-statement "
                     "body in %s — hoist the shared logic into src/util/ "
                     "(e.g. src/util/flags.h) and keep per-tool wrappers "
                     "thin" % (name, DUP_MIN_STATEMENTS, first)))
    return findings


# `std::atomic<INT>` (optionally wrapped, e.g. in shared_ptr<...>) or an
# integer std::atomic_* alias, followed by the declared name.
ATOMIC_INT_DECL = re.compile(
    r"std::atomic(?:<\s*(?:std::)?(?:unsigned\s+|signed\s+)?"
    r"(?:u?int(?:8|16|32|64)_t|size_t|ssize_t|ptrdiff_t|int|long\s+long|"
    r"long|short|unsigned|char)\s*>|_u?(?:int|long|llong|short|size_t)\w*)"
    r"(?:\s*>)*\s+(\w+)\s*[{=;\[]")
COUNTER_STORE_ALLOWLIST = frozenset((
    "next_handle_id", "next_ticket_id", "snapshot_seq",  # id sequences
    "last_activity_ms",                                  # timestamp
))


def rule_counter_store(root):
    """Event counters live in one store, obs::MetricsRegistry: a private
    std::atomic counter next to it is a second source of truth that `stats`
    and `metrics` can disagree over. Only ids and timestamps — not events
    or gauges — may stay bare atomics outside src/obs/ and src/util/."""
    findings = []
    for path in source_files(root, ("src", "tools")):
        r = rel(root, path)
        parts = r.split(os.sep)
        if parts[0] == "src" and len(parts) >= 2 and parts[1] in ("obs",
                                                                  "util"):
            continue
        text = strip_comments(read(path))
        for m in ATOMIC_INT_DECL.finditer(text):
            name = m.group(1)
            if name.rstrip("_") in COUNTER_STORE_ALLOWLIST:
                continue
            findings.append(
                (r, "line %d: std::atomic integer '%s' is not an allowlisted "
                 "id or timestamp — count events through an "
                 "obs::Counter/obs::Gauge in the component's MetricsRegistry "
                 "so `stats` and `metrics` read one cell"
                 % (line_of(text, m.start()), name)))
    return findings


# (struct, path stem of its own header and .cc)
OPTION_STRUCTS = (
    ("SatEngineOptions", "src/engine/sat_engine"),
    ("SocketServerOptions", "src/server/socket_server"),
    ("SessionOptions", "src/server/session"),
    ("ClientOptions", "src/client/client"),
)
OPTION_SETTER_DIRS = ("src", "tools", "tests", "perfbench", "examples")


def struct_fields(text, struct):
    """Data-member names of `struct NAME { ... };` in comment-stripped
    `text`, in declaration order (None when the struct is absent)."""
    m = re.search(r"\bstruct\s+%s\s*\{" % struct, text)
    if not m:
        return None
    body = extract_body(text, m.end() - 1) or ""
    fields = []
    for stmt in body.split(";"):
        # Cut the default initializer at the first top-level '=' or '{'.
        depth, decl = 0, stmt
        for i, c in enumerate(stmt):
            if c in "<(":
                depth += 1
            elif c in ">)":
                depth -= 1
            elif depth == 0 and c in "={":
                decl = stmt[:i]
                break
        decl = decl.strip()
        if not decl or decl.endswith(")") or re.match(
                r"(static|using|typedef|friend|enum|struct|class)\b", decl):
            continue
        name = re.search(r"(\w+)$", decl)
        if name:
            fields.append(name.group(1))
    return fields


def rule_dead_option(root):
    """An options field that nothing outside its own module ever assigns is
    a knob nobody turns — it widens the API and the docs for a value that
    is always the default."""
    structs = {}  # struct -> (header rel path, own files, fields)
    for struct, stem in OPTION_STRUCTS:
        header = os.path.join(root, stem + ".h")
        if not os.path.isfile(header):
            continue
        fields = struct_fields(strip_comments(read(header)), struct)
        if fields:
            structs[struct] = (stem + ".h", {stem + ".h", stem + ".cc"},
                               fields)
    if not structs:
        return []
    type_alt = "|".join(structs)
    decl_re = re.compile(r"(?<![\w:])(?:\w+::)*(%s)\s*(?:const\s*)?[&*]?"
                         r"\s*(\w+)\s*[;={(,)\[]" % type_alt)
    assign_re = re.compile(r"(?<![\w.>])(\w+)(\.session)?\.(\w+)\s*=(?!=)")
    set_fields = set()  # (struct, field)
    for path in source_files(root, OPTION_SETTER_DIRS):
        r = rel(root, path).replace(os.sep, "/")
        if r.startswith("tests/lint_fixtures/"):
            continue
        text = strip_comments(read(path))
        decls = [(m.start(), m.group(2), m.group(1))
                 for m in decl_re.finditer(text)]
        for m in assign_re.finditer(text):
            var, via_session, field = m.groups()
            owner = None
            for offset, name, struct in decls:
                if offset < m.start() and name == var:
                    owner = struct
            if owner is None:
                continue
            if via_session:
                if owner != "SocketServerOptions":
                    continue
                if r not in structs[owner][1]:
                    set_fields.add((owner, "session"))
                owner = "SessionOptions"
            if owner in structs and r not in structs[owner][1]:
                set_fields.add((owner, field))
    findings = []
    for struct, (header, own, fields) in structs.items():
        for field in fields:
            if (struct, field) not in set_fields:
                findings.append(
                    (header, "%s::%s is never assigned outside %s — a field "
                     "no caller, test or benchmark sets is dead surface; "
                     "make it a constant (or set it where it matters)"
                     % (struct, field, " and ".join(sorted(own)))))
    return findings


RULES = {
    "verb-doc": rule_verb_doc,
    "mutex-guard": rule_mutex_guard,
    "banned-pattern": rule_banned_pattern,
    "err-slug-doc": rule_err_slug_doc,
    "store-version": rule_store_version,
    "client-sync": rule_client_sync,
    "dup-helper": rule_dup_helper,
    "counter-store": rule_counter_store,
    "dead-option": rule_dead_option,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default_root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    parser.add_argument("--root", default=default_root,
                        help="repository root to lint (default: the repo "
                        "this script lives in)")
    parser.add_argument("--rules", default=",".join(ALL_RULES),
                        help="comma-separated rule ids to run "
                        "(default: all)")
    args = parser.parse_args()
    root = os.path.abspath(args.root)
    selected = [r for r in args.rules.split(",") if r]
    unknown = [r for r in selected if r not in RULES]
    if unknown:
        print("unknown rule(s): %s (known: %s)"
              % (", ".join(unknown), ", ".join(ALL_RULES)), file=sys.stderr)
        return 2

    failures = 0
    for rule_id in selected:
        for file_path, msg in RULES[rule_id](root):
            print("INVARIANT-FAIL rule=%s file=%s msg=%s"
                  % (rule_id, file_path, msg))
            failures += 1
    if failures:
        print("%d invariant violation(s)" % failures, file=sys.stderr)
        return 1
    scanned = sum(1 for _ in source_files(root, ("src", "tools")))
    print("invariants OK (%d rules over %d files)"
          % (len(selected), scanned))
    return 0


if __name__ == "__main__":
    sys.exit(main())
