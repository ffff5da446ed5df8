#!/usr/bin/env python3
"""hdidx determinism / hygiene lint.

Scans library code (src/) for project-rule violations that no general
compiler warning catches but that break the repo's standing contracts:

  rule `nondeterminism` — banned nondeterminism sources in library code.
      rand(, srand(, std::random_device: all library randomness must flow
      through common::Rng so results are bit-identical across platforms and
      thread counts.
      std::chrono::system_clock / high_resolution_clock: wall clocks make
      results depend on when they ran. steady_clock is allowed (it may only
      feed latency metrics, which are excluded from the determinism
      contract); everything else needs an allowlist entry.

  rule `stdout` — std::cout / printf / puts in library code. The library is
      also the serving layer: stray stdout mixes into the output the tools
      print for machines to read (hdidx_serve's ready line, hdidx_predict's
      report). Tools, benches, and examples are not scanned.

  rule `global` — mutable file-scope state (static / thread_local / extern
      variables at namespace scope that are not const/constexpr). Hidden
      process state is how determinism dies; each one must be explicitly
      allowlisted with a reason, or carry an inline
      `(hdidx-lint: allow-global)` marker in a comment on the line or the
      line above.

  rule `guard` — every header must open with `#pragma once` or a
      `#ifndef HDIDX_..._H_` include guard whose token matches its path.

  rule `intrinsics` — raw SIMD intrinsics (immintrin/arm_neon includes,
      `_mm*` calls, `__m128/256/512` or NEON vector types) outside
      src/geometry/isa/. Per-ISA code lives only in the self-guarded TUs
      compiled with per-file target flags; an intrinsic anywhere else either
      breaks non-x86 builds or silently compiles for the wrong target.

  rule `byteswap` — raw byte-order code (htons/htonl/ntohs/ntohl,
      __builtin_bswap*, std::byteswap) outside src/service/wire.{h,cc}.
      The wire codec is the single place allowed to reason about byte
      order; everything else goes through wire::Append*/WireReader (or
      wire::HostToNet16 for sockaddr ports) so the frame format stays
      pinned by one TU and its golden tests.

  rule `kernel-switch` — a `switch` dispatching on geometry::kernels::
      KernelMode must list every enumerator (kScalar, kGeneric, kAvx2,
      kAvx512). A `default:` (or a dropped case) silences -Wswitch,
      so adding an ISA would fall through an unconsidered path instead of
      failing the build.

Violations print as `path:line: rule: message` (clickable in CI logs) and
the process exits 2, so a failure is distinguishable from an internal crash
(exit 1). The allowlist lives in tools/lint_allowlist.txt as `rule path`
lines — checked in, so every exemption is explicit and reviewed.
"""

import argparse
import pathlib
import re
import sys

NONDETERMINISM_PATTERNS = [
    (re.compile(r"(?<![\w.:])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"std::random_device"), "std::random_device"),
    (re.compile(r"\bsystem_clock\b"), "std::chrono::system_clock"),
    (re.compile(r"\bhigh_resolution_clock\b"),
     "std::chrono::high_resolution_clock"),
]

STDOUT_PATTERNS = [
    (re.compile(r"std::cout\b"), "std::cout"),
    (re.compile(r"(?<![\w.:])printf\s*\("), "printf()"),
    (re.compile(r"(?<![\w.:])puts\s*\("), "puts()"),
]

INTRINSIC_PATTERNS = [
    (re.compile(r"#\s*include\s*<(?:immintrin|x86intrin|arm_neon)\.h>"),
     "SIMD intrinsics header"),
    (re.compile(r"\b__m(?:128|256|512)[a-z]*\b"), "x86 vector type"),
    (re.compile(r"\b_mm(?:256|512)?_\w+"), "x86 intrinsic"),
    (re.compile(r"\b(?:float|poly|uint|int)(?:8|16|32|64)x(?:2|4|8|16)_t\b"),
     "NEON vector type"),
]
# The only directory allowed to contain raw intrinsics (self-guarded TUs
# with per-file target flags).
ISA_DIR = pathlib.PurePosixPath("src/geometry/isa")

BYTESWAP_PATTERNS = [
    (re.compile(r"\bhton[sl]\b"), "htons()/htonl()"),
    (re.compile(r"\bntoh[sl]\b"), "ntohs()/ntohl()"),
    (re.compile(r"\b__builtin_bswap(?:16|32|64)\b"), "__builtin_bswap*"),
    (re.compile(r"\bstd::byteswap\b"), "std::byteswap"),
]
# The only files allowed to contain raw byte-order code (the wire codec,
# whose layout is pinned by golden byte tests).
WIRE_FILES = frozenset({
    pathlib.PurePosixPath("src/service/wire.h"),
    pathlib.PurePosixPath("src/service/wire.cc"),
})

KERNEL_ENUMERATORS = ("kScalar", "kGeneric", "kAvx2", "kAvx512")
SWITCH_RE = re.compile(r"\bswitch\s*\(")

GUARD_RE = re.compile(r"#ifndef\s+(HDIDX_[A-Z0-9_]+_H_)")
ALLOW_GLOBAL_MARKER = "hdidx-lint: allow-global"

GLOBAL_DECL_RE = re.compile(
    r"^\s*(?:static|thread_local|extern)\b(?:\s+thread_local\b)?(?P<rest>.*)$")
# Namespace-scope variable with an initializer and no storage keyword, e.g.
# `std::atomic<size_t> g_thread_count_override{0};`. Uninitialized globals
# (`std::mutex g_mu;`) are indistinguishable from declarations by regex and
# rely on review; the rule is a tripwire, not a proof.
VAR_INIT_RE = re.compile(
    r"^[A-Za-z_][\w:<>\s,\*&]*\s[A-Za-z_]\w*\s*(=|\{).*;\s*$")
NON_DECL_KEYWORDS = ("using ", "typedef ", "namespace ", "template",
                     "struct ", "class ", "enum ", "union ", "friend ",
                     "static_assert", "#")
CONST_LIKE_RE = re.compile(r"\b(const|constexpr|constinit)\b")
FUNC_DEF_RE = re.compile(r"\)\s*(const|noexcept|->|\{|;)?\s*$")


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literals, preserving line
    structure, so the token patterns never fire inside either."""
    out = []
    i = 0
    n = len(text)
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
                out.append("\n")
            else:
                out.append(" ")
            i += 1
            continue
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
            i += 1
            continue
        else:  # string or char
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            out.append(" " if c != "\n" else "\n")
            i += 1
            continue
        i += 1
    return "".join(out)


def expected_guard(rel_path):
    # Guards are derived from the include path, which is rooted at src/
    # (target_include_directories points there), not at the repository root.
    parts = rel_path.parts[1:] if rel_path.parts[:1] == ("src",) \
        else rel_path.parts
    token = re.sub(r"[^A-Za-z0-9]", "_", "/".join(parts)).upper()
    return f"HDIDX_{token}_"


class Linter:
    def __init__(self, root, allowlist):
        self.root = root
        self.allowlist = allowlist
        self.used_allows = set()
        self.violations = []

    def allowed(self, rule, rel):
        key = (rule, str(rel))
        if key in self.allowlist:
            self.used_allows.add(key)
            return True
        return False

    def report(self, rel, line_no, rule, message):
        self.violations.append(f"{rel}:{line_no}: {rule}: {message}")

    def lint_file(self, path):
        rel = path.relative_to(self.root)
        raw = path.read_text()
        clean = strip_comments_and_strings(raw)
        raw_lines = raw.split("\n")
        clean_lines = clean.split("\n")

        self.check_patterns(rel, clean_lines)
        if path.suffix == ".h":
            self.check_guard(rel, raw, clean_lines)
        self.check_globals(rel, raw_lines, clean_lines)
        self.check_intrinsics(rel, clean_lines)
        self.check_byteswaps(rel, clean_lines)
        self.check_kernel_switches(rel, clean)

    def check_patterns(self, rel, clean_lines):
        skip_nondet = self.allowed("nondeterminism", rel)
        skip_stdout = self.allowed("stdout", rel)
        for idx, line in enumerate(clean_lines, start=1):
            if not skip_nondet:
                for pattern, label in NONDETERMINISM_PATTERNS:
                    if pattern.search(line):
                        self.report(rel, idx, "nondeterminism",
                                    f"{label} is banned in library code; "
                                    "use common::Rng (or allowlist with a "
                                    "reason)")
            if not skip_stdout:
                for pattern, label in STDOUT_PATTERNS:
                    if pattern.search(line):
                        self.report(rel, idx, "stdout",
                                    f"{label} is banned in library code; "
                                    "return data, let tools print")

    def check_intrinsics(self, rel, clean_lines):
        posix_rel = pathlib.PurePosixPath(rel.as_posix())
        if posix_rel.is_relative_to(ISA_DIR):
            return
        if self.allowed("intrinsics", rel):
            return
        for idx, line in enumerate(clean_lines, start=1):
            for pattern, label in INTRINSIC_PATTERNS:
                if pattern.search(line):
                    self.report(rel, idx, "intrinsics",
                                f"{label} outside src/geometry/isa/; per-ISA "
                                "code belongs in the self-guarded kernel TUs")

    def check_byteswaps(self, rel, clean_lines):
        posix_rel = pathlib.PurePosixPath(rel.as_posix())
        if posix_rel in WIRE_FILES:
            return
        if self.allowed("byteswap", rel):
            return
        for idx, line in enumerate(clean_lines, start=1):
            for pattern, label in BYTESWAP_PATTERNS:
                if pattern.search(line):
                    self.report(rel, idx, "byteswap",
                                f"{label} outside src/service/wire.*; byte "
                                "order belongs to the wire codec — use "
                                "wire::Append*/WireReader or "
                                "wire::HostToNet16")

    def check_kernel_switches(self, rel, clean):
        if self.allowed("kernel-switch", rel):
            return
        for match in SWITCH_RE.finditer(clean):
            # Walk to the matching ')' of the condition, then the body '{'.
            i = clean.index("(", match.start())
            depth = 0
            while i < len(clean):
                if clean[i] == "(":
                    depth += 1
                elif clean[i] == ")":
                    depth -= 1
                    if depth == 0:
                        break
                i += 1
            body_start = clean.find("{", i)
            if body_start < 0:
                continue
            depth = 0
            end = body_start
            while end < len(clean):
                if clean[end] == "{":
                    depth += 1
                elif clean[end] == "}":
                    depth -= 1
                    if depth == 0:
                        break
                end += 1
            body = clean[body_start:end + 1]
            if not re.search(r"\bcase\s+[\w:]*KernelMode::", body):
                continue
            missing = [e for e in KERNEL_ENUMERATORS
                       if not re.search(r"\bcase\s+[\w:]*\b" + e + r"\b",
                                        body)]
            if missing:
                line_no = clean.count("\n", 0, match.start()) + 1
                self.report(rel, line_no, "kernel-switch",
                            "switch over KernelMode must list every "
                            f"enumerator (missing: {', '.join(missing)}); "
                            "rely on -Wswitch, not default:")

    def check_guard(self, rel, raw, clean_lines):
        if self.allowed("guard", rel):
            return
        if "#pragma once" in raw:
            return
        for idx, line in enumerate(clean_lines, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("//"):
                continue
            match = GUARD_RE.match(stripped)
            if match is None:
                self.report(rel, idx, "guard",
                            "header must start with '#pragma once' or an "
                            f"'#ifndef {expected_guard(rel)}' guard")
            elif match.group(1) != expected_guard(rel):
                self.report(rel, idx, "guard",
                            f"guard token {match.group(1)} does not match "
                            f"path (expected {expected_guard(rel)})")
            return
        self.report(rel, 1, "guard", "header has no include guard")

    def check_globals(self, rel, raw_lines, clean_lines):
        if self.allowed("global", rel):
            return
        depth = 0
        namespace_stack = []  # True for braces opened by namespace lines
        pending_namespace = False
        for idx, line in enumerate(clean_lines, start=1):
            at_file_scope = depth == len(namespace_stack)
            if at_file_scope:
                self.check_global_decl(rel, idx, line, raw_lines)
            if re.search(r"\bnamespace\b", line):
                pending_namespace = True
            for c in line:
                if c == "{":
                    if pending_namespace and depth == len(namespace_stack):
                        namespace_stack.append(True)
                    pending_namespace = False
                    depth += 1
                elif c == "}":
                    depth -= 1
                    if namespace_stack and depth < len(namespace_stack):
                        namespace_stack.pop()
            if pending_namespace and line.strip().endswith(";"):
                pending_namespace = False  # e.g. `using namespace` or fwd decl

    def check_global_decl(self, rel, idx, line, raw_lines):
        stripped = line.strip()
        if CONST_LIKE_RE.search(line) or "static_assert" in line:
            return
        if any(stripped.startswith(k) for k in NON_DECL_KEYWORDS):
            return
        match = GLOBAL_DECL_RE.match(line)
        if match is not None:
            rest = match.group("rest")
            # Function declarations/definitions (internal-linkage helpers)
            # are stateless; only variable declarations are mutable state.
            if not rest.strip():
                return
            if FUNC_DEF_RE.search(rest) and "=" not in rest:
                return
        elif VAR_INIT_RE.match(stripped):
            # A '(' before the initializer, or a line closing with ');' (a
            # signature continuation carrying a default argument), means a
            # function declaration, not a variable.
            if stripped.endswith(");"):
                return
            init_at = min(i for i in (stripped.find("="), stripped.find("{"))
                          if i >= 0)
            if "(" in stripped[:init_at]:
                return
        else:
            return
        here = raw_lines[idx - 1] if idx - 1 < len(raw_lines) else ""
        above = raw_lines[idx - 2] if idx - 2 >= 0 else ""
        if ALLOW_GLOBAL_MARKER in here or ALLOW_GLOBAL_MARKER in above:
            return
        self.report(rel, idx, "global",
                    "mutable file-scope state; mark with "
                    f"'({ALLOW_GLOBAL_MARKER})' or allowlist it")


def load_allowlist(path):
    allowlist = set()
    if not path.exists():
        return allowlist
    for line_no, line in enumerate(path.read_text().split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            sys.stderr.write(
                f"{path}:{line_no}: malformed allowlist line (want "
                f"'rule path'): {stripped}\n")
            sys.exit(1)
        allowlist.add((parts[0], parts[1]))
    return allowlist


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--allowlist", default=None,
                        help="allowlist file (default: "
                             "<root>/tools/lint_allowlist.txt)")
    args = parser.parse_args()

    root = pathlib.Path(args.root).resolve()
    allowlist_path = (pathlib.Path(args.allowlist)
                      if args.allowlist is not None
                      else root / "tools" / "lint_allowlist.txt")
    allowlist = load_allowlist(allowlist_path)

    linter = Linter(root, allowlist)
    files = sorted((root / "src").rglob("*.h")) + \
        sorted((root / "src").rglob("*.cc"))
    if not files:
        sys.stderr.write(f"no sources found under {root}/src\n")
        sys.exit(1)
    for path in files:
        linter.lint_file(path)

    # A stale exemption is itself a finding: allowlists must shrink when the
    # code they excuse goes away.
    for rule, rel in sorted(allowlist - linter.used_allows):
        linter.violations.append(
            f"{allowlist_path.relative_to(root)}:1: allowlist: unused "
            f"exemption '{rule} {rel}' — remove it")

    if linter.violations:
        for violation in linter.violations:
            print(violation)
        print(f"\nhdidx_lint: {len(linter.violations)} violation(s) in "
              f"{len(files)} files", file=sys.stderr)
        sys.exit(2)
    print(f"hdidx_lint: OK ({len(files)} files, "
          f"{len(allowlist)} allowlist entries)")


if __name__ == "__main__":
    main()
