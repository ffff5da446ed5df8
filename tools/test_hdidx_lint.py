#!/usr/bin/env python3
"""Fixture tests for tools/hdidx_lint.py.

The lint gates every ctest run, but until now nothing tested the lint
itself — a regex regression could silently stop a rule from ever firing.
Each test writes a minimal fixture tree, runs the lint as a subprocess
(the same way CMake does), and asserts the exact `path:line: rule`
diagnostic — or its absence on conforming code.
"""

import pathlib
import subprocess
import sys
import tempfile
import unittest

TOOLS_DIR = pathlib.Path(__file__).resolve().parent
LINT = TOOLS_DIR / "hdidx_lint.py"

CLEAN_HEADER = """\
#ifndef HDIDX_{token}_H_
#define HDIDX_{token}_H_
{body}
#endif  // HDIDX_{token}_H_
"""


def run_lint(root, allowlist=None):
    cmd = [sys.executable, str(LINT), "--root", str(root)]
    if allowlist is not None:
        cmd += ["--allowlist", str(allowlist)]
    return subprocess.run(cmd, capture_output=True, text=True)


class LintFixtureTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = pathlib.Path(self._tmp.name)
        (self.root / "src").mkdir()
        (self.root / "tools").mkdir()
        self.allowlist = self.root / "tools" / "lint_allowlist.txt"
        self.allowlist.write_text("")

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, rel, text):
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        return path

    def header(self, rel, body):
        token = rel.replace("src/", "").rsplit(".", 1)[0] \
            .replace("/", "_").upper()
        return self.write(rel, CLEAN_HEADER.format(token=token, body=body))

    def assert_violation(self, proc, fragment):
        self.assertEqual(proc.returncode, 2,
                         f"expected exit 2, got {proc.returncode}:\n"
                         f"{proc.stdout}{proc.stderr}")
        self.assertIn(fragment, proc.stdout)

    def assert_clean(self, proc):
        self.assertEqual(proc.returncode, 0,
                         f"expected clean, got:\n{proc.stdout}{proc.stderr}")

    def test_nondeterminism_rand_fires(self):
        self.write("src/a.cc", "int F() { return rand(); }\n")
        proc = run_lint(self.root)
        self.assert_violation(proc, "src/a.cc:1: nondeterminism:")

    def test_nondeterminism_random_device_fires(self):
        self.write("src/a.cc",
                   "#include <random>\nstd::random_device rd;\n")
        proc = run_lint(self.root)
        self.assert_violation(proc, "src/a.cc:2: nondeterminism:")

    def test_nondeterminism_in_comment_passes(self):
        self.write("src/a.cc", "// rand() would be wrong here\n"
                   "int F() { return 4; }\n")
        self.assert_clean(run_lint(self.root))

    def test_stdout_fires(self):
        self.write("src/a.cc",
                   "#include <iostream>\nvoid F() { std::cout << 1; }\n")
        proc = run_lint(self.root)
        self.assert_violation(proc, "src/a.cc:2: stdout:")

    def test_global_mutable_fires_and_marker_suppresses(self):
        self.write("src/a.cc", "static int g_count = 0;\n")
        proc = run_lint(self.root)
        self.assert_violation(proc, "src/a.cc:1: global:")

        self.write("src/a.cc",
                   "static int g_count = 0;  // (hdidx-lint: allow-global)\n")
        self.assert_clean(run_lint(self.root))

    def test_global_const_passes(self):
        self.write("src/a.cc", "static const int kLimit = 3;\n"
                   "constexpr double kPi = 3.14;\n")
        self.assert_clean(run_lint(self.root))

    def test_guard_missing_fires(self):
        self.write("src/a.h", "int F();\n")
        proc = run_lint(self.root)
        self.assert_violation(proc, "src/a.h:1: guard:")

    def test_guard_wrong_token_fires(self):
        self.write("src/a.h", CLEAN_HEADER.format(token="WRONG_NAME",
                                                  body="int F();"))
        proc = run_lint(self.root)
        self.assert_violation(proc, "guard:")

    def test_guard_correct_passes(self):
        self.header("src/a.h", "int F();")
        self.assert_clean(run_lint(self.root))

    def test_intrinsics_outside_isa_fires(self):
        self.write("src/a.cc",
                   "#include <immintrin.h>\n__m256 v;\n")
        proc = run_lint(self.root)
        self.assert_violation(proc, "src/a.cc:1: intrinsics:")

    def test_intrinsics_inside_isa_passes(self):
        self.write("src/geometry/isa/block_ops_avx2.cc",
                   "#include <immintrin.h>\nvoid F() { _mm256_setzero_ps(); }"
                   "\n")
        self.assert_clean(run_lint(self.root))

    def test_byteswap_outside_wire_fires(self):
        self.write("src/a.cc",
                   "#include <arpa/inet.h>\n"
                   "int F(int p) { return htons(p); }\n")
        proc = run_lint(self.root)
        self.assert_violation(proc, "src/a.cc:2: byteswap:")

    def test_byteswap_builtin_and_std_fire(self):
        self.write("src/a.cc",
                   "unsigned F(unsigned v) { return __builtin_bswap32(v); }\n"
                   "unsigned G(unsigned v) { return std::byteswap(v); }\n")
        proc = run_lint(self.root)
        self.assert_violation(proc, "src/a.cc:1: byteswap:")
        self.assertIn("src/a.cc:2: byteswap:", proc.stdout)

    def test_byteswap_inside_wire_passes(self):
        self.write("src/service/wire.cc",
                   "int HostToNet16(int p) { return htons(p); }\n")
        self.assert_clean(run_lint(self.root))

    def test_byteswap_wrapper_call_passes(self):
        # Callers go through the wire wrapper; its name must not trip the
        # raw-token patterns.
        self.write("src/a.cc",
                   "int F(int p) { return wire::HostToNet16(p); }\n")
        self.assert_clean(run_lint(self.root))

    def test_kernel_switch_incomplete_fires(self):
        self.write("src/a.cc", """\
int F(KernelMode mode) {
  switch (mode) {
    case KernelMode::kScalar: return 0;
    case KernelMode::kGeneric: return 1;
    default: return 2;
  }
}
""")
        proc = run_lint(self.root)
        self.assert_violation(proc, "src/a.cc:2: kernel-switch:")

    def test_kernel_switch_complete_passes(self):
        self.write("src/a.cc", """\
int F(KernelMode mode) {
  switch (mode) {
    case KernelMode::kScalar: return 0;
    case KernelMode::kGeneric: return 1;
    case KernelMode::kAvx2: return 2;
    case KernelMode::kAvx512: return 3;
  }
  return 0;
}
""")
        self.assert_clean(run_lint(self.root))

    def test_allowlist_suppresses_and_unused_entry_fires(self):
        self.write("src/a.cc", "static int g_state = 0;\n")
        self.allowlist.write_text("global src/a.cc\n")
        self.assert_clean(run_lint(self.root))

        # An entry is "used" as long as its file is scanned; it goes stale
        # when the file it excuses disappears.
        (self.root / "src" / "a.cc").unlink()
        self.write("src/b.cc", "int F();\n")
        proc = run_lint(self.root)
        self.assert_violation(proc, "allowlist:")
        self.assertIn("global src/a.cc", proc.stdout)

    def test_real_tree_is_clean(self):
        proc = run_lint(TOOLS_DIR.parent)
        self.assert_clean(proc)


if __name__ == "__main__":
    unittest.main()
