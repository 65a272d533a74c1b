#!/usr/bin/env python3
"""hh-analyze: HyperHammer's AST-grounded whole-program analyzer.

hh-lint (tools/hh_lint.py) polices the determinism contract with
line-level regexes; this tool carries the rules regexes cannot express
because they need structure: class layouts, function bodies, and the
whole-program call graph. It shares hh-lint's waiver syntax
(`// hh-lint: allow(rule) -- why`), the `[rules.*]` section of
.hh-lint.toml, the JSON report envelope (schema/tool/findings), and
the `--self-test` fixture harness.

Rules (see docs/static_analysis.md for the rationale):

  snapshot-field-coverage  every class declaring
                           saveState(ArchiveWriter&) must reach each
                           of its persistent fields from it, and from
                           loadState too when it has one (or waive the
                           field with a justification) -- a silently
                           skipped field escapes the fork-vs-fresh
                           identity tests and corrupts resume
                           identity (DESIGN.md 3.4)
  determinism-taint        call paths from trial-outcome code
                           (src/attack, src/shard, src/analysis) that
                           reach std::random_device / rand / wall
                           clocks through wrappers the textual
                           raw-rand/wall-clock rules cannot see
  status-discard           a Status/Expected-returning call whose
                           result is dropped: `(void)` casts (which
                           defeat [[nodiscard]]), bare call
                           statements, and discards inside destructors
                           or catch blocks
  guarded-field-completeness
                           classes already using HH_GUARDED_BY must
                           not leave sibling mutable fields that are
                           touched from lambdas (the ThreadPool
                           callback shape) unannotated

Frontends:

  clang    libclang (clang.cindex, clang-18 bindings) driven by the
           compile_commands.json under --build-dir. Precise: sees
           through type aliases, macro expansion and overloads. This
           is what the CI `ast-analysis` leg runs.
  builtin  a bundled structural C++ parser (pure stdlib). Less
           precise on aliases but dependency-free, so the tier-1
           ctest gate runs everywhere. Both frontends feed the same
           rule engine and must agree on the fixtures (--self-test
           covers whichever is active).
  auto     clang when the bindings import, builtin otherwise.

Exit codes match hh-lint: 0 clean, 1 findings, 2 usage/config error.
"""

import argparse
import json
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import hh_lint  # noqa: E402  (shared waiver/config/report machinery)

RULES = {
    "snapshot-field-coverage":
        "field of a serialized class is not reached from saveState() "
        "(or, when the class has one, from loadState()); a field the "
        "state stream misses escapes every identity check -- "
        "serialize it or waive the field with a justification",
    "determinism-taint":
        "trial-outcome code reaches non-deterministic randomness or a "
        "wall clock through this call chain; route it through "
        "base::Rng / base::SimClock",
    "status-discard":
        "Status/Expected result dropped; handle it or waive the "
        "discard with a justification",
    "guarded-field-completeness":
        "mutable field touched from a lambda while sibling fields are "
        "HH_GUARDED_BY-annotated; annotate it (or waive with the "
        "reason it needs no lock)",
}

RULE_IDS = {
    "snapshot-field-coverage": "HHA001",
    "determinism-taint": "HHA002",
    "status-discard": "HHA003",
    "guarded-field-completeness": "HHA004",
}

assert set(RULES) == set(hh_lint.ANALYZER_RULES), \
    "hh_lint.ANALYZER_RULES must mirror hh_analyze.RULES"

# Paths whose functions are never determinism-taint sources: the
# sanctioned randomness/time implementations themselves. Extended by
# [rules.determinism-taint] allow_paths in .hh-lint.toml.
DEFAULT_SANCTIONED = (
    "src/base/rng.h",
    "src/base/sim_clock.h",
    "src/base/sim_clock.cc",
    "bench/bench_json.h",
)

# Directories whose functions produce trial outcomes; a taint chain
# reaching them is a finding. Overridden by [analyze] taint_roots.
DEFAULT_TAINT_ROOTS = ("src/attack", "src/shard", "src/analysis")

C_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "catch", "do",
    "else", "case", "new", "delete", "throw", "goto", "alignof",
    "alignas", "decltype", "typeid", "noexcept", "static_assert",
    "static_cast", "reinterpret_cast", "const_cast", "dynamic_cast",
    "co_return", "co_await", "co_yield", "assert", "defined",
    "__attribute__", "requires", "operator",
}

SYNC_TYPE_RE = re.compile(
    r"\b(?:Mutex|MutexLock|CondVar|ThreadPool|thread|atomic|"
    r"condition_variable|once_flag|mutex)\b")

GUARD_MACRO_RE = re.compile(r"\bHH_(?:PT_)?GUARDED_BY\s*\(")

# `class X {`, `struct Y : Base {`, and a nested class defined out of
# line, `class Outer::Inner {` -- but not `enum class`.
CLASS_RE = re.compile(
    r"(?<!enum )(?<!enum)\b(class|struct)\s+(\w+(?:\s*::\s*\w+)*)"
    r"(?:\s+final)?\s*(?::[^;{=()]*)?\{")

OUT_OF_LINE_DEF_RE = re.compile(
    r"^(?:(\w+)\s*::\s*)?(~?\w+)\s*\(", re.MULTILINE)

LAMBDA_RE = re.compile(
    r"\[[^\[\]]*\]\s*(?:\([^()]*\))?\s*(?:mutable\b\s*)?"
    r"(?:noexcept\b\s*)?(?:->\s*[^{;]{0,48}?)?\s*\{")

CATCH_RE = re.compile(r"\bcatch\s*\(")

CALL_RE = re.compile(
    r"(?:(\.|->)\s*)?(?<![\w.])((?:\w+\s*::\s*)*~?\w+)\s*\(")

VOID_CAST_RE = re.compile(r"^\(\s*void\s*\)\s*(.*)$", re.DOTALL)

STMT_SKIP_RE = re.compile(
    r"^(?:if|for|while|do|switch|case|break|continue|goto|else|try|"
    r"throw|return|using|co_return|co_await|delete)\b")

# Aggregated qualifiers/annotations that may trail a declarator.
FIELD_MACRO_RE = re.compile(r"\bHH_\w+\s*\(")
ATTR_RE = re.compile(r"\[\[[^\]]*\]\]")


def strip_templates(text):
    """Remove balanced <...> template argument lists (iteratively)."""
    prev = None
    while prev != text:
        prev = text
        text = re.sub(r"<[^<>]*>", " ", text)
    return text


def strip_calls(text, macro_re):
    """Blank out `NAME(...)` for every match of @p macro_re."""
    out = text
    while True:
        m = macro_re.search(out)
        if not m:
            return out
        close = hh_lint.find_matching(out, m.end() - 1, "(", ")")
        if close == -1:
            return out
        out = out[:m.start()] + " " * (close + 1 - m.start()) \
            + out[close + 1:]


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


class Field:
    def __init__(self, name, line, decl_text):
        self.name = name
        self.line = line
        self.decl = decl_text
        cleaned = ATTR_RE.sub(" ", strip_calls(decl_text, FIELD_MACRO_RE))
        flat = strip_templates(cleaned)
        self.is_static = bool(re.search(r"\bstatic\b", flat))
        self.is_const = bool(re.match(
            r"\s*(?:static\s+)?(?:const|constexpr)\b", flat))
        # rfind: the field name may also appear inside a namespace
        # qualifier of the type (`dram::DramSystem &dram`).
        idx = flat.rfind(name)
        before_name = flat[:idx] if idx != -1 else flat
        self.is_ref = "&" in before_name
        self.is_ptr = "*" in before_name
        self.is_sync = bool(SYNC_TYPE_RE.search(flat))
        self.guarded = bool(GUARD_MACRO_RE.search(decl_text))
        self.is_atomic = bool(re.search(r"\batomic\b", flat))

    def persistent(self):
        """Fields the snapshot rule expects to round-trip: everything
        that is per-instance mutable state. References and raw
        pointers are constructor wiring (re-established on restore,
        not serializable), const members are construction-time
        configuration, sync primitives hold no logical state."""
        return not (self.is_static or self.is_ref or self.is_ptr
                    or self.is_const or self.is_sync)

    def lockable_state(self):
        """Fields the guarded-completeness rule cares about."""
        return not (self.is_static or self.is_const or self.is_ref
                    or self.is_sync or self.is_atomic or self.guarded)


class FuncDef:
    """One function definition (free function or member)."""

    def __init__(self, cls, name, path, rel, line, body, body_start,
                 params=""):
        self.cls = cls          # class name or None
        self.name = name
        self.path = path
        self.rel = rel
        self.line = line
        self.body = body        # stripped body text incl. braces
        self.body_start = body_start  # offset of '{' in file text
        self.params = params    # declarator text incl. parameter list
        self.calls = []         # (simple_name, qualifier, line, usr)
        self.tainted = None     # None/False or (witness_line, chain)
        self.direct_taint = None  # (line, primitive) or None
        self.usr = None         # clang only: unified symbol reference

    def key(self):
        return (self.rel, self.line, self.cls, self.name)

    def label(self):
        return f"{self.cls}::{self.name}" if self.cls else self.name


class ClassInfo:
    def __init__(self, name, path, rel, line):
        self.name = name
        self.path = path
        self.rel = rel
        self.line = line
        self.fields = []
        self.methods = {}       # name -> FuncDef (first definition)


class Program:
    """The whole-program IR both frontends produce and rules consume."""

    def __init__(self):
        self.classes = {}       # (rel, name) -> ClassInfo
        self.funcs = []         # [FuncDef]
        self.status_names = set()   # simple names returning Status/Expected
        # Per-class return classification: (class, method) pairs known
        # to return Status/Expected vs. known to return anything else.
        # `write64` returns Status on VirtualMachine but void on
        # MemoryBackend; the discard rule must not conflate them.
        self.status_methods = set()
        self.nonstatus_methods = set()
        self.waivers = {}       # rel -> {line -> set(rules)}
        self.files = {}         # rel -> stripped text

    def nonstatus_names(self):
        return {name for _, name in self.nonstatus_methods}

    def classes_by_name(self, name):
        return [c for (_, n), c in self.classes.items() if n == name]


def parse_waiver_map(raw):
    waivers, _ = hh_lint.parse_waivers(raw.splitlines())
    return waivers


def waived(program, rel, line, rule):
    return rule in program.waivers.get(rel, {}).get(line, set())


# --------------------------------------------------------------------------
# Builtin frontend: a structural parser over comment/string-stripped text.
# --------------------------------------------------------------------------

STATUS_RET_RE = re.compile(
    r"\b(?:base\s*::\s*)?(?:Status|StatusOr|Expected)\s+"
    r"(?:\w+\s*::\s*)?(\w+)\s*\(")


class BuiltinFrontend:
    name = "builtin"

    def __init__(self, repo_root):
        self.repo_root = repo_root

    def parse(self, files):
        program = Program()
        per_file = []
        for path in files:
            raw = path.read_text(errors="replace")
            stripped = hh_lint.strip_code(raw)
            rel = hh_lint.relpath(path, self.repo_root)
            program.waivers[rel] = parse_waiver_map(raw)
            program.files[rel] = stripped
            per_file.append((path, rel, stripped))
        for path, rel, stripped in per_file:
            self._collect_status_names(stripped, program)
        for path, rel, stripped in per_file:
            self._parse_file(path, rel, stripped, program)
        return program

    def _collect_status_names(self, stripped, program):
        flat = strip_templates(stripped)
        for m in STATUS_RET_RE.finditer(flat):
            program.status_names.add(m.group(1))

    def _parse_file(self, path, rel, stripped, program):
        class_spans = []
        for m in CLASS_RE.finditer(stripped):
            open_idx = m.end() - 1
            close = hh_lint.find_matching(stripped, open_idx, "{", "}")
            if close == -1:
                continue
            # A qualified name (`Outer::Inner`) is recorded as the
            # class it defines, as libclang spells it: `Inner`.
            name = re.split(r"\s*::\s*", m.group(2))[-1]
            info = ClassInfo(name, path, rel, line_of(stripped, m.start()))
            self._parse_class_body(stripped, open_idx + 1, close, info,
                                   path, rel, program)
            program.classes.setdefault((rel, name), info)
            class_spans.append((open_idx, close))
        self._parse_out_of_line(stripped, class_spans, path, rel, program)

    def _parse_class_body(self, text, begin, end, info, path, rel,
                          program):
        """Walk one class body: fields and inline method definitions at
        the top nesting level (nested classes are found by the outer
        CLASS_RE pass and skipped here)."""
        i = begin
        stmt_start = begin
        while i < end:
            c = text[i]
            if c == "(":
                close = hh_lint.find_matching(text, i, "(", ")")
                i = (close if close != -1 else i) + 1
                continue
            if c == "{":
                close = hh_lint.find_matching(text, i, "{", "}")
                if close == -1:
                    return
                header = text[stmt_start:i]
                kind, name = self._classify_header(header)
                if kind == "func":
                    fn = FuncDef(info.name, name, path, rel,
                                 line_of(text, stmt_start),
                                 text[i:close + 1], i, params=header)
                    collect_calls(fn)
                    program.funcs.append(fn)
                    info.methods.setdefault(name, fn)
                    self._classify_return(header, name, info.name,
                                          program)
                    i = close + 1
                    stmt_start = i
                    continue
                if kind == "type":
                    # Nested class/struct/enum: its own CLASS_RE match
                    # handles fields; skip past `};`.
                    i = close + 1
                    while i < end and text[i] in " \t\n;":
                        i += 1
                    stmt_start = i
                    continue
                # Brace initializer: keep scanning to the ';'.
                i = close + 1
                continue
            if c == ";":
                stmt = text[stmt_start:i]
                field = self._parse_field(stmt, text, stmt_start)
                if field:
                    info.fields.append(field)
                else:
                    self._record_method_decl(stmt, info, program)
                stmt_start = i + 1
            i += 1

    @classmethod
    def _record_method_decl(cls, stmt, info, program):
        """Classify a body-less member declaration's return type so the
        status-discard rule can tell VirtualMachine::write64 (Status)
        from MemoryBackend::write64 (void)."""
        s = re.sub(r"\b(?:public|private|protected)\s*:", " ", stmt)
        s = ATTR_RE.sub(" ", s).strip()
        if re.match(r"^(?:using|typedef|friend|static_assert|template|"
                    r"enum|class|struct|union)\b", s) or "operator" in s:
            return
        flat = strip_templates(strip_calls(s, re.compile(
            r"\bHH_[A-Z_]+\s*\(")))
        m = re.search(r"([\w~]+)\s*\(", flat)
        if m is None or m.group(1) in C_KEYWORDS:
            return
        if "=" in flat[:m.start(1)]:
            return  # function-pointer initializer, not a declaration
        cls._classify_return(flat[:m.start(1)], m.group(1), info.name,
                             program)

    @staticmethod
    def _classify_return(ret_text, name, class_name, program):
        idx = ret_text.find(name)
        ret = ret_text[:idx] if idx != -1 else ret_text
        key = (class_name, name.lstrip("~"))
        if re.search(r"\b(?:Status|StatusOr|Expected)\b", ret):
            program.status_methods.add(key)
        else:
            program.nonstatus_methods.add(key)

    @staticmethod
    def _classify_header(header):
        h = re.sub(r"\b(?:public|private|protected)\s*:", " ", header)
        h = ATTR_RE.sub(" ", h).strip()
        if re.search(r"\b(?:class|struct|enum|union)\b", h):
            return "type", None
        flat = strip_templates(strip_calls(h, re.compile(
            r"\bHH_[A-Z_]+\s*\(")))
        if re.search(r"\boperator\b", flat):
            # operator()/operator== definitions: never called by name
            # textually, but the body must be consumed as a function
            # so the scan does not swallow the methods that follow.
            return "func", "operator"
        # The declarator's parameter list: the first '(' at depth 0;
        # the identifier before it names the function.
        m = re.search(r"([\w~]+)\s*\(", flat)
        if m and m.group(1) not in C_KEYWORDS:
            return "func", m.group(1)
        return "field", None

    @staticmethod
    def _parse_field(stmt, text, stmt_offset):
        s = re.sub(r"\b(?:public|private|protected)\s*:", " ", stmt)
        s = ATTR_RE.sub(" ", s)
        s_nomacro = strip_calls(s, FIELD_MACRO_RE)
        flat = strip_templates(s_nomacro)
        flat = re.sub(r"\{[^{}]*\}", " ", flat)
        flat = flat.split("=")[0]
        flat = re.sub(r"\[[^\[\]]*\]", " ", flat)
        head = flat.strip()
        if not head or re.match(
                r"^(?:using|typedef|friend|static_assert|template|"
                r"enum|class|struct|union|operator|explicit|virtual|"
                r"~)", head):
            return None
        if "(" in head or "operator" in head:
            return None  # declaration of a function / fn pointer
        idents = re.findall(r"[A-Za-z_]\w*", head)
        if len(idents) < 2:
            return None  # `int;`-style or a lone type mention
        name = idents[-1]
        if name in C_KEYWORDS or name in (
                "const", "constexpr", "static", "mutable", "volatile",
                "inline", "unsigned", "signed", "long", "short", "int",
                "char", "bool", "double", "float", "auto", "void",
                "struct", "class"):
            return None
        name_off = stmt.rfind(name)
        line = line_of(text, stmt_offset + max(name_off, 0))
        return Field(name, line, stmt)

    def _parse_out_of_line(self, text, class_spans, path, rel, program):
        """File-scope definitions: `Type Class::name(...) {` and free
        functions, in the repo's name-at-column-0 style."""
        for m in OUT_OF_LINE_DEF_RE.finditer(text):
            if any(b < m.start() < e for b, e in class_spans):
                continue
            cls, name = m.group(1), m.group(2)
            if name in C_KEYWORDS or (cls and cls in C_KEYWORDS):
                continue
            params_close = hh_lint.find_matching(text, m.end() - 1,
                                                 "(", ")")
            if params_close == -1:
                continue
            body_open = hh_lint.FUNC_BODY_OPEN_RE.match(
                text, params_close + 1)
            if body_open is None:
                continue
            body_close = hh_lint.find_matching(text, body_open.end() - 1,
                                               "{", "}")
            if body_close == -1:
                continue
            fn = FuncDef(cls, name.lstrip("~"), path, rel,
                         line_of(text, m.start()),
                         text[body_open.end() - 1:body_close + 1],
                         body_open.end() - 1,
                         params=text[m.start():params_close + 1])
            if name.startswith("~"):
                fn.name = "~" + fn.name
            collect_calls(fn)
            program.funcs.append(fn)


def collect_calls(fn):
    """Token-level call sites inside @p fn's body."""
    base = fn.body_start
    for m in CALL_RE.finditer(fn.body):
        full = re.sub(r"\s+", "", m.group(2))
        simple = full.split("::")[-1]
        if simple in C_KEYWORDS or not simple:
            continue
        if re.fullmatch(r"[A-Z_][A-Z0-9_]*", simple):
            continue  # macro-shaped
        qual = None
        if "::" in full:
            qual = full.rsplit("::", 1)[0]
        elif m.group(1):
            qual = "<member>"
        fn.calls.append((simple, qual, None, None, base + m.start()))


# --------------------------------------------------------------------------
# clang frontend: libclang over compile_commands.json.
# --------------------------------------------------------------------------

class ClangFrontend:
    name = "clang"

    def __init__(self, repo_root, build_dir, cindex):
        self.repo_root = repo_root
        self.build_dir = build_dir
        self.ci = cindex
        self.index = cindex.Index.create()
        self.cdb = None
        if build_dir is not None:
            try:
                self.cdb = cindex.CompilationDatabase.fromDirectory(
                    str(build_dir))
            except cindex.CompilationDatabaseError:
                self.cdb = None

    def _args_for(self, path):
        if self.cdb is None:
            return ["-std=c++20", "-x", "c++",
                    "-I" + str(self.repo_root / "src")]
        cmds = self.cdb.getCompileCommands(str(path))
        if not cmds:
            return ["-std=c++20", "-x", "c++",
                    "-I" + str(self.repo_root / "src")]
        args = list(cmds[0].arguments)[1:]
        # Drop the source file itself and -o/-c plumbing.
        cleaned, skip = [], False
        for a in args:
            if skip:
                skip = False
                continue
            if a in ("-o", "-c", "--output"):
                skip = a != "-c"
                continue
            if a == str(path) or a.endswith((".cc", ".cpp", ".o")):
                continue
            cleaned.append(a)
        return cleaned

    def parse(self, files):
        program = Program()
        seen_classes = set()
        seen_funcs = set()
        wanted = {}
        for path in files:
            rel = hh_lint.relpath(path, self.repo_root)
            raw = path.read_text(errors="replace")
            program.waivers[rel] = parse_waiver_map(raw)
            program.files[rel] = hh_lint.strip_code(raw)
            wanted[str(path.resolve())] = rel
        # Parse translation units (.cc); headers ride along. A header
        # no TU includes is parsed standalone so fixtures and orphan
        # headers still get coverage.
        covered = set()
        order = sorted(wanted, key=lambda p: (not p.endswith((".cc",
                                                              ".cpp")), p))
        for abspath in order:
            if abspath in covered and abspath.endswith((".h", ".hh")):
                continue
            try:
                tu = self.index.parse(
                    abspath, args=self._args_for(Path(abspath)),
                    options=self.ci.TranslationUnit
                    .PARSE_DETAILED_PROCESSING_RECORD)
            except self.ci.TranslationUnitLoadError:
                continue
            self._walk_tu(tu, wanted, covered, seen_classes, seen_funcs,
                          program)
        return program

    def _loc_rel(self, cursor, wanted):
        loc = cursor.location
        if loc.file is None:
            return None
        return wanted.get(str(Path(loc.file.name).resolve()))

    def _walk_tu(self, tu, wanted, covered, seen_classes, seen_funcs,
                 program):
        ci = self.ci
        ck = ci.CursorKind
        for cursor in tu.cursor.walk_preorder():
            rel = self._loc_rel(cursor, wanted)
            if rel is None:
                continue
            covered.add(str(Path(cursor.location.file.name).resolve()))
            if cursor.kind in (ck.CLASS_DECL, ck.STRUCT_DECL) \
                    and cursor.is_definition():
                key = (rel, cursor.spelling, cursor.location.line)
                if key in seen_classes:
                    continue
                seen_classes.add(key)
                self._record_class(cursor, rel, program)
            elif cursor.kind in (ck.CXX_METHOD, ck.FUNCTION_DECL,
                                 ck.CONSTRUCTOR, ck.DESTRUCTOR) \
                    and cursor.is_definition():
                key = (rel, cursor.location.line, cursor.spelling)
                if key in seen_funcs:
                    continue
                seen_funcs.add(key)
                self._record_func(cursor, rel, program)
            elif cursor.kind in (ck.CXX_METHOD, ck.FUNCTION_DECL):
                self._note_status_name(cursor, program)

    def _note_status_name(self, cursor, program):
        result = strip_templates(cursor.result_type.spelling)
        is_status = bool(
            re.search(r"\b(?:Status|StatusOr|Expected)\b", result))
        if is_status:
            program.status_names.add(cursor.spelling)
        parent = cursor.semantic_parent
        ck = self.ci.CursorKind
        if parent is not None and parent.kind in (ck.CLASS_DECL,
                                                  ck.STRUCT_DECL):
            key = (parent.spelling, cursor.spelling)
            (program.status_methods if is_status
             else program.nonstatus_methods).add(key)

    def _record_class(self, cursor, rel, program):
        ck = self.ci.CursorKind
        info = program.classes.setdefault(
            (rel, cursor.spelling),
            ClassInfo(cursor.spelling, Path(cursor.location.file.name),
                      rel, cursor.location.line))
        for child in cursor.get_children():
            if child.kind != ck.FIELD_DECL:
                continue
            decl_text = " ".join(t.spelling for t in child.get_tokens())
            field = Field(child.spelling, child.location.line,
                          decl_text or child.spelling)
            # Prefer the AST's type facts over the textual guesses.
            tk = self.ci.TypeKind
            field.is_ref = child.type.kind in (tk.LVALUEREFERENCE,
                                               tk.RVALUEREFERENCE)
            field.is_ptr = child.type.kind == tk.POINTER
            field.is_const = child.type.is_const_qualified()
            spelled = child.type.spelling
            field.is_sync = bool(SYNC_TYPE_RE.search(spelled))
            field.is_atomic = "atomic" in spelled
            if not field.guarded:
                field.guarded = bool(GUARD_MACRO_RE.search(decl_text)) \
                    or "guarded_by" in decl_text
            info.fields.append(field)

    def _record_func(self, cursor, rel, program):
        self._note_status_name(cursor, program)
        parent = cursor.semantic_parent
        ck = self.ci.CursorKind
        cls = parent.spelling if parent is not None and parent.kind in (
            ck.CLASS_DECL, ck.STRUCT_DECL) else None
        stripped = program.files.get(rel, "")
        extent = cursor.extent
        body_open = stripped.find("{", self._offset(extent.start,
                                                    stripped))
        if body_open == -1:
            return
        body_close = hh_lint.find_matching(stripped, body_open, "{", "}")
        if body_close == -1:
            return
        try:
            params = ", ".join(a.type.spelling
                               for a in cursor.get_arguments())
        except Exception:
            params = ""
        fn = FuncDef(cls, cursor.spelling, Path(cursor.location.file.name),
                     rel, cursor.location.line,
                     stripped[body_open:body_close + 1], body_open,
                     params=params)
        fn.usr = cursor.get_usr()
        self._collect_ast_calls(cursor, fn)
        collect_calls(fn)   # textual calls keep line-level witnesses
        program.funcs.append(fn)

    @staticmethod
    def _offset(source_location, stripped):
        # libclang offsets are byte offsets into the raw file; the
        # stripped text preserves layout, so they line up.
        return min(source_location.offset, len(stripped))

    def _collect_ast_calls(self, cursor, fn):
        ck = self.ci.CursorKind
        for node in cursor.walk_preorder():
            if node.kind != ck.CALL_EXPR:
                continue
            ref = node.referenced
            if ref is None:
                continue
            fn.calls.append((ref.spelling, None, node.location.line,
                             ref.get_usr(), None))


# --------------------------------------------------------------------------
# Rules over the Program IR.
# --------------------------------------------------------------------------

def reachable_class_body(info, entry):
    """@p entry's body plus the bodies of every same-class method it
    (transitively) calls: saveState() is allowed to serialize a field
    through a helper like mergedPfns()."""
    parts = []
    seen = set()
    stack = [entry]
    while stack:
        fn = stack.pop()
        if fn.name in seen:
            continue
        seen.add(fn.name)
        parts.append(fn.body)
        for call in fn.calls:
            callee = info.methods.get(call[0])
            if callee is not None and call[0] not in seen:
                stack.append(callee)
    return "\n".join(parts)


def rule_snapshot_field_coverage(program, ctx, findings):
    rule = "snapshot-field-coverage"
    for (rel, _), info in sorted(program.classes.items()):
        if not ctx.enabled(rule, rel):
            continue
        save = info.methods.get("saveState")
        load = info.methods.get("loadState")
        if save is None:
            continue
        if "ArchiveWriter" not in save.params:
            continue  # e.g. Rng::saveState(): raw state by value,
            #           not the snapshot archive protocol
        save_body = reachable_class_body(info, save)
        # A save-only class (every world class: worlds are rebuilt,
        # never restored) answers to its saveState() alone.
        load_body = reachable_class_body(info, load) if load else None
        for field in info.fields:
            if not field.persistent():
                continue
            if waived(program, rel, field.line, rule):
                continue
            name_re = re.compile(r"\b%s\b" % re.escape(field.name))
            in_save = bool(name_re.search(save_body))
            in_load = (in_save if load_body is None
                       else bool(name_re.search(load_body)))
            if in_save and in_load:
                continue
            if not in_save and not in_load:
                what = "is never serialized"
            elif in_save:
                what = ("is written by saveState() but never restored "
                        "by loadState()")
            else:
                what = ("is restored by loadState() but never written "
                        "by saveState()")
            findings.append(hh_lint.Finding(
                rel, field.line, rule,
                f"field '{info.name}::{field.name}' {what}; the "
                "state stream silently drifts -- serialize it or waive "
                "the field with a justification"))


def build_taint(program, ctx):
    """Propagate determinism taint backwards over the call graph.

    Sources are bodies matching hh-lint's raw-rand/wall-clock regexes
    outside sanctioned files. Name-resolved edges only taint a caller
    when *every* same-name candidate is tainted (or the name is
    unique), so simple-name collisions under-approximate instead of
    spraying false positives; the clang frontend adds exact USR edges
    on top.
    """
    by_name = {}
    by_usr = {}
    for fn in program.funcs:
        by_name.setdefault(fn.name, []).append(fn)
        if fn.usr:
            by_usr[fn.usr] = fn
    for fn in program.funcs:
        if ctx.sanctioned(fn.rel):
            fn.tainted = False
            continue
        hit = hh_lint.RAW_RAND_RE.search(fn.body)
        primitive = "raw randomness"
        if hit is None:
            hit = hh_lint.WALL_CLOCK_RE.search(fn.body)
            primitive = "a wall clock"
        if hit is not None:
            line = line_of(program.files[fn.rel],
                           fn.body_start + hit.start())
            if not waived(program, fn.rel, line, "determinism-taint"):
                fn.direct_taint = (line, primitive,
                                   hit.group(0).strip(" ("))

    def candidates(call, caller):
        simple, qual, _line, usr, _off = call
        if usr is not None:
            hit = by_usr.get(usr)
            return [hit] if hit else []
        defs = by_name.get(simple, [])
        if not defs:
            return []
        if qual and qual not in ("<member>",):
            scoped = [d for d in defs if d.cls == qual.split("::")[-1]]
            if scoped:
                return scoped
        if qual == "<member>":
            scoped = [d for d in defs if d.cls]
            return scoped
        return defs

    tainted = {fn.key(): bool(fn.direct_taint) for fn in program.funcs}
    chain = {fn.key(): (fn.direct_taint[0],
                        f"uses {fn.direct_taint[1]} "
                        f"('{fn.direct_taint[2]}', line "
                        f"{fn.direct_taint[0]})")
             for fn in program.funcs if fn.direct_taint}
    changed = True
    while changed:
        changed = False
        for fn in program.funcs:
            if tainted[fn.key()] or fn.tainted is False:
                continue
            for call in fn.calls:
                defs = candidates(call, fn)
                if not defs:
                    continue
                if not all(tainted.get(d.key()) for d in defs):
                    continue
                witness = defs[0]
                if call[2] is not None:
                    line = call[2]
                else:
                    line = line_of(program.files[fn.rel], call[4])
                if waived(program, fn.rel, line, "determinism-taint"):
                    continue
                tainted[fn.key()] = True
                sub = chain.get(witness.key(), (0, "is tainted"))[1]
                chain[fn.key()] = (
                    line, f"calls '{witness.label()}' "
                          f"({witness.rel}:{witness.line}), which {sub}")
                changed = True
                break
    return tainted, chain


def rule_determinism_taint(program, ctx, findings):
    rule = "determinism-taint"
    tainted, chain = build_taint(program, ctx)
    for fn in sorted(program.funcs, key=FuncDef.key):
        if not tainted.get(fn.key()):
            continue
        if not ctx.in_taint_root(fn.rel) or not ctx.enabled(rule, fn.rel):
            continue
        line, why = chain[fn.key()]
        if waived(program, fn.rel, line, rule) \
                or waived(program, fn.rel, fn.line, rule):
            continue
        findings.append(hh_lint.Finding(
            fn.rel, line, rule,
            f"trial-outcome function '{fn.label()}' {why}; "
            "non-determinism here breaks bitwise trial identity -- "
            "route it through base::Rng / base::SimClock"))


def iter_statements(body):
    """Yield (offset, text) for each statement inside a brace body,
    recursing into nested blocks. Parenthesized regions (for-headers,
    argument lists) never split a statement."""
    i = 1 if body.startswith("{") else 0
    end = len(body) - 1 if body.endswith("}") else len(body)
    start = i
    while i < end:
        c = body[i]
        if c == "(":
            close = hh_lint.find_matching(body, i, "(", ")")
            i = (close if close != -1 else i) + 1
            continue
        if c == "{":
            close = hh_lint.find_matching(body, i, "{", "}")
            if close == -1:
                break
            inner = body[i:close + 1]
            for off, stmt in iter_statements(inner):
                yield i + off, stmt
            i = close + 1
            start = i
            continue
        if c == ";":
            yield start, body[start:i]
            start = i + 1
        i += 1


CALL_STMT_RE = re.compile(
    r"^\s*((?:[\w:\]\[]+(?:\s*(?:\.|->)\s*))*)((?:\w+\s*::\s*)*\w+)\s*\(")


def discard_callee(stmt):
    """(callee, kind, receiver) when @p stmt is a bare discarded call
    (optionally under a `(void)` cast), else (None, None, None).

    receiver is None for unqualified calls, ("var", name) for a
    single-step `name.` / `name->` prefix, ("type", Name) for a
    `Name::callee` qualifier, and ("opaque", None) for chains the
    textual frontend cannot type."""
    s = stmt.strip()
    kind = "stmt"
    m = VOID_CAST_RE.match(s)
    if m:
        s = m.group(1).strip()
        kind = "void-cast"
    if not s or STMT_SKIP_RE.match(s):
        return None, None, None
    m = CALL_STMT_RE.match(s)
    if m is None:
        return None, None, None
    if "=" in s[:m.start(2)]:
        return None, None, None
    full = re.sub(r"\s+", "", m.group(2))
    if full.startswith("std::"):
        return None, None, None
    open_idx = s.find("(", m.end(2) - 1)
    close = hh_lint.find_matching(s, open_idx, "(", ")")
    if close == -1 or s[close + 1:].strip():
        return None, None, None  # assignment/chain/comparison
    simple = full.split("::")[-1]
    if simple in C_KEYWORDS or re.fullmatch(r"[A-Z_][A-Z0-9_]*", simple):
        return None, None, None
    receiver = None
    if "::" in full:
        receiver = ("type", full.rsplit("::", 2)[-2])
    elif m.group(1):
        links = re.findall(r"([\w:\]\[]+)\s*(?:\.|->)", m.group(1))
        if len(links) == 1 and re.fullmatch(r"[A-Za-z_]\w*", links[0]):
            receiver = ("var", links[0])
        else:
            receiver = ("opaque", None)
    return simple, kind, receiver


TYPE_OF_VAR_TMPL = (r"\b([A-Za-z_]\w*)(?:\s*<[^<>]*>)?"
                    r"(?:[\s&*]|\bconst\b)+%s\b")


def resolve_receiver_type(recv, fn, program, class_names):
    """Best-effort static type of a receiver variable: a declaration in
    the parameter list or body, else a same-named field of the
    enclosing class. None when unresolvable (auto, chains, ...)."""
    scope = fn.params + "\n" + fn.body
    resolved = None
    for m in re.finditer(TYPE_OF_VAR_TMPL % re.escape(recv), scope):
        if m.group(1) in class_names:
            resolved = m.group(1)
    if resolved:
        return resolved
    if fn.cls:
        for info in program.classes_by_name(fn.cls):
            for field in info.fields:
                if field.name != recv:
                    continue
                for ident in re.findall(r"[A-Za-z_]\w*", field.decl):
                    if ident in class_names:
                        return ident
    return None


def returns_status(callee, receiver, fn, program, class_names,
                   nonstatus_any):
    """Does this call site return Status/Expected? Resolution order:
    exact (class, method) facts when the receiver types, then the
    enclosing class for unqualified calls, then the whole-program
    simple-name fallback -- which only fires when every declaration of
    that name agrees, so the ambiguous write64/fillPage pairs are
    under- rather than over-approximated."""
    cls = None
    if receiver is not None:
        rkind, rname = receiver
        if rkind == "type":
            cls = rname
        elif rkind == "var":
            cls = resolve_receiver_type(rname, fn, program, class_names)
    elif fn.cls:
        cls = fn.cls
    if cls is not None:
        if (cls, callee) in program.status_methods:
            return True
        if (cls, callee) in program.nonstatus_methods:
            return False
    return callee in program.status_names and callee not in nonstatus_any


def rule_status_discard(program, ctx, findings):
    rule = "status-discard"
    class_names = {name for _, name in program.classes}
    nonstatus_any = program.nonstatus_names()
    for fn in sorted(program.funcs, key=FuncDef.key):
        if not ctx.enabled(rule, fn.rel):
            continue
        catch_spans = []
        for m in CATCH_RE.finditer(fn.body):
            params_close = hh_lint.find_matching(fn.body, fn.body.find(
                "(", m.start()), "(", ")")
            if params_close == -1:
                continue
            block_open = fn.body.find("{", params_close)
            if block_open == -1:
                continue
            block_close = hh_lint.find_matching(fn.body, block_open,
                                                "{", "}")
            if block_close != -1:
                catch_spans.append((block_open, block_close))
        in_dtor = fn.name.startswith("~")
        for off, stmt in iter_statements(fn.body):
            callee, kind, receiver = discard_callee(stmt)
            if callee is None:
                continue
            if not returns_status(callee, receiver, fn, program,
                                  class_names, nonstatus_any):
                continue
            line = line_of(program.files[fn.rel], fn.body_start + off
                           + (len(stmt) - len(stmt.lstrip())))
            if waived(program, fn.rel, line, rule):
                continue
            in_catch = any(b <= off <= e for b, e in catch_spans)
            if in_dtor:
                where = (f"in destructor '{fn.label()}' -- a failure "
                         "here disappears silently")
            elif in_catch:
                where = ("inside a catch block -- the recovery path "
                         "swallows a second failure")
            elif kind == "void-cast":
                where = ("via a (void) cast, which defeats "
                         "[[nodiscard]]")
            else:
                where = "as a bare statement"
            findings.append(hh_lint.Finding(
                fn.rel, line, rule,
                f"result of Status/Expected-returning '{callee}()' is "
                f"discarded {where}; handle it or waive the discard "
                "with a justification"))


def rule_guarded_field_completeness(program, ctx, findings):
    rule = "guarded-field-completeness"
    for (rel, _), info in sorted(program.classes.items()):
        if not ctx.enabled(rule, rel):
            continue
        if not any(f.guarded for f in info.fields):
            continue
        lambda_bodies = []
        for fn in info.methods.values():
            for m in LAMBDA_RE.finditer(fn.body):
                open_idx = m.end() - 1
                close = hh_lint.find_matching(fn.body, open_idx,
                                              "{", "}")
                if close != -1:
                    lambda_bodies.append(fn.body[open_idx:close + 1])
        if not lambda_bodies:
            continue
        for field in info.fields:
            if not field.lockable_state():
                continue
            if waived(program, rel, field.line, rule):
                continue
            name_re = re.compile(r"\b%s\b" % re.escape(field.name))
            if not any(name_re.search(b) for b in lambda_bodies):
                continue
            findings.append(hh_lint.Finding(
                rel, field.line, rule,
                f"field '{info.name}::{field.name}' is touched from a "
                "lambda (the ThreadPool-callback shape) but has no "
                "HH_GUARDED_BY while sibling fields are annotated; "
                "annotate it or waive with the reason it needs no "
                "lock"))


# --------------------------------------------------------------------------
# Driver.
# --------------------------------------------------------------------------

class RuleContext:
    def __init__(self, allow, taint_roots, sanctioned):
        self.allow = allow
        self.taint_roots = tuple(taint_roots)
        self.sanctioned_paths = tuple(sanctioned)

    def enabled(self, rule, rel):
        return not any(rel.startswith(p)
                       for p in self.allow.get(rule, []))

    def in_taint_root(self, rel):
        return any(rel.startswith(r) for r in self.taint_roots)

    def sanctioned(self, rel):
        return any(rel.startswith(p) for p in self.sanctioned_paths)


def load_analyze_config(config_path):
    """hh-lint's config plus the [analyze] section."""
    config = hh_lint.load_config(config_path)
    config.setdefault("taint_roots", list(DEFAULT_TAINT_ROOTS))
    config.setdefault("analyze_roots", None)
    config.setdefault("analyze_exclude", [])
    if config_path is None or hh_lint.tomllib is None:
        return config
    try:
        data = hh_lint.tomllib.loads(Path(config_path).read_text())
    except (OSError, hh_lint.tomllib.TOMLDecodeError):
        return config
    analyze = data.get("analyze", {})
    if "taint_roots" in analyze:
        config["taint_roots"] = list(analyze["taint_roots"])
    if "roots" in analyze:
        config["analyze_roots"] = list(analyze["roots"])
    if "exclude" in analyze:
        config["analyze_exclude"] = list(analyze["exclude"])
    return config


def make_frontend(kind, repo_root, build_dir):
    """Returns (frontend, error). `auto` degrades to builtin."""
    if kind in ("clang", "auto"):
        try:
            import clang.cindex as cindex
        except ModuleNotFoundError:
            if kind == "clang":
                return None, ("clang frontend requested but the "
                              "clang.cindex Python bindings are not "
                              "installed (apt: python3-clang-18 + "
                              "libclang-18-dev)")
            return BuiltinFrontend(repo_root), None
        if build_dir is not None:
            ccj = Path(build_dir) / "compile_commands.json"
            if not ccj.exists() and kind == "clang":
                return None, (
                    f"no compile_commands.json under '{build_dir}'; "
                    "configure with cmake -B <build-dir> (the "
                    "top-level CMakeLists exports it) or pass "
                    "--build-dir pointing at a configured build tree")
        try:
            return ClangFrontend(repo_root, build_dir, cindex), None
        except Exception as err:  # libclang .so missing/mismatched
            if kind == "clang":
                return None, f"cannot initialize libclang: {err}"
            return BuiltinFrontend(repo_root), None
    return BuiltinFrontend(repo_root), None


def link_methods(program):
    """Attach out-of-line member definitions to their classes. Runs
    after every file is parsed so a .cc sorting before its header (or a
    method defined in another TU) still lands on the class."""
    for fn in program.funcs:
        if not fn.cls:
            continue
        for info in program.classes_by_name(fn.cls):
            info.methods.setdefault(fn.name, fn)


def run_rules(program, ctx):
    link_methods(program)
    findings = []
    rule_snapshot_field_coverage(program, ctx, findings)
    rule_determinism_taint(program, ctx, findings)
    rule_status_discard(program, ctx, findings)
    rule_guarded_field_completeness(program, ctx, findings)
    # Both frontends can discover the same entity twice (a header in
    # two TUs); findings are identity-keyed, so dedupe before sorting.
    unique = {f.key(): f for f in findings}
    return sorted(unique.values(), key=hh_lint.Finding.key)


def analyze(paths, config, repo_root, frontend):
    files = list(hh_lint.iter_files(paths, config, repo_root))
    program = frontend.parse(files)
    sanctioned = set(DEFAULT_SANCTIONED)
    sanctioned.update(config["allow"].get("raw-rand", []))
    sanctioned.update(config["allow"].get("wall-clock", []))
    sanctioned.update(config["allow"].get("determinism-taint", []))
    ctx = RuleContext(config["allow"], config["taint_roots"], sanctioned)
    return run_rules(program, ctx)


def self_test(fixture_dir, repo_root, frontend_kind):
    """hh-lint's fixture harness over the analyzer rules: every
    `// expect: <rule>` marker must fire, nothing else may, and every
    rule needs at least one fixture."""
    frontend, err = make_frontend(frontend_kind, repo_root, None)
    if err:
        print(f"hh-analyze: {err}", file=sys.stderr)
        return 2
    config = {"roots": [], "extensions": [".h", ".hh", ".cc", ".cpp"],
              "exclude": [], "allow": {},
              "taint_roots": [""]}  # every fixture is trial-outcome code
    expected = set()
    for f in hh_lint.iter_files([fixture_dir], config, repo_root):
        rel = hh_lint.relpath(f, repo_root)
        for lineno, line in enumerate(
                f.read_text(errors="replace").splitlines(), start=1):
            m = hh_lint.EXPECT_RE.search(line)
            if m:
                for rule in m.group(1).split(","):
                    rule = rule.strip()
                    if rule not in RULES:
                        print(f"self-test: {rel}:{lineno} names unknown "
                              f"rule '{rule}'", file=sys.stderr)
                        return 2
                    expected.add((rel, lineno, rule))
    actual = {f.key()
              for f in analyze([fixture_dir], config, repo_root, frontend)}
    missing = expected - actual
    surprise = actual - expected
    for path, line, rule in sorted(missing):
        print(f"self-test: MISSING  {path}:{line}: [{rule}] did not fire")
    for path, line, rule in sorted(surprise):
        print(f"self-test: SURPRISE {path}:{line}: [{rule}] fired "
              "without an // expect marker")
    uncovered = set(RULES) - {rule for _, _, rule in expected}
    for rule in sorted(uncovered):
        print(f"self-test: UNCOVERED rule [{rule}] has no fixture")
    if missing or surprise or uncovered:
        return 1
    print(f"self-test: ok ({len(expected)} expectations, all "
          f"{len(RULES)} rules covered, {frontend.name} frontend)")
    return 0


def sarif_payload(findings):
    """Minimal SARIF 2.1.0 for code-scanning upload/artifact review."""
    rules = [{"id": RULE_IDS[rule],
              "name": rule,
              "shortDescription": {"text": rule},
              "fullDescription": {"text": RULES[rule]}}
             for rule in sorted(RULES)]
    results = [{
        "ruleId": RULE_IDS.get(f.rule, "HHX000"),
        "level": "error",
        "message": {"text": f.message},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {"uri": f.path,
                                     "uriBaseId": "SRCROOT"},
                "region": {"startLine": f.line},
            },
        }],
    } for f in findings]
    return {
        "$schema": "https://raw.githubusercontent.com/oasis-tcs/"
                   "sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": "hh-analyze",
                "informationUri":
                    "https://github.com/hyperhammer/hyperhammer",
                "rules": rules,
            }},
            "results": results,
        }],
    }


def main(argv):
    parser = argparse.ArgumentParser(prog="hh-analyze",
                                     description=__doc__)
    parser.add_argument("paths", nargs="*",
                        help="files/dirs to analyze (default: [analyze] "
                             "roots, falling back to [lint] roots)")
    parser.add_argument("--config", default=None,
                        help="path to .hh-lint.toml")
    parser.add_argument("--build-dir", default=None,
                        help="CMake build tree holding "
                             "compile_commands.json (clang frontend)")
    parser.add_argument("--frontend", choices=("auto", "clang", "builtin"),
                        default="auto")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text")
    parser.add_argument("--report", default=None,
                        help="write the shared JSON report here")
    parser.add_argument("--sarif", default=None,
                        help="also write a SARIF 2.1.0 report here")
    parser.add_argument("--self-test", metavar="FIXTURE_DIR",
                        help="run the rule fixtures instead of analyzing")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    repo_root = Path(__file__).resolve().parent.parent

    if args.list_rules:
        for rule, message in RULES.items():
            print(f"{rule} ({RULE_IDS[rule]}): {message}")
        return 0

    if args.self_test:
        return self_test(Path(args.self_test), repo_root, args.frontend)

    config_path = args.config
    if config_path is None:
        default = repo_root / ".hh-lint.toml"
        config_path = default if default.exists() else None
    config = load_analyze_config(config_path)
    config["exclude"] = list(config["exclude"]) \
        + list(config["analyze_exclude"])

    build_dir = args.build_dir
    if build_dir is None:
        default_build = repo_root / "build"
        if (default_build / "compile_commands.json").exists():
            build_dir = default_build
    frontend, err = make_frontend(args.frontend, repo_root, build_dir)
    if err:
        print(f"hh-analyze: {err}", file=sys.stderr)
        return 2

    roots = config["analyze_roots"] or config["roots"]
    paths = args.paths or [repo_root / r for r in roots]
    findings = analyze(paths, config, repo_root, frontend)

    payload = hh_lint.report_payload("hh-analyze", findings, RULE_IDS)
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for f in findings:
            print(f)
        print(f"hh-analyze: {len(findings)} finding(s) "
              f"({frontend.name} frontend)")
    if args.report:
        Path(args.report).write_text(json.dumps(payload, indent=2) + "\n")
    if args.sarif:
        Path(args.sarif).write_text(
            json.dumps(sarif_payload(findings), indent=2) + "\n")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
