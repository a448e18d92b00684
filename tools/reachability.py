#!/usr/bin/env python3
"""Reachability gate: every out-of-line function in src/ must be linked by a
production binary, or be named in tools/reachability_allow.txt.

Usage: python3 tools/reachability.py [BUILD_DIR]      (default: build-reach)

The script configures two trees under BUILD_DIR from outside the source
tree: the main project (`main/`) and the whole-study benchmark in
perfbench/ (`perfbench/`). Both build at -O0 with -ffunction-sections, so
every function keeps its own out-of-line copy in its own section, and link
with --gc-sections plus a linker map. It links the production binaries:
the `gendpr` CLI, the examples, the bench/ binaries and perfbench_study.

A function counts as reached when some binary's map keeps its section. An
inline or template function (a weak COMDAT symbol) is not measured: it has
no out-of-line home in one src/ object. -O0 matters: at -O2 a function
inlined into all its callers loses its out-of-line copy and would read as
unreached.

Exit status 0 when every unreached function is allowlisted and every
allowlist entry still names an unreached function; 1 otherwise, with each
offender printed with its size and object file.
"""

import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALLOWLIST = os.path.join(ROOT, "tools", "reachability_allow.txt")

# The production binaries, by CMake target.
MAIN_TARGETS = [
    "gendpr_cli",
    "quickstart", "federated_study", "collusion_audit", "hybrid_dp_release",
    "membership_attack",
    "bench_fig5_runtime", "bench_fig6_runtime", "bench_table3_resources",
    "bench_table4_selection", "bench_table5_collusion",
    "bench_ablation_crypto", "bench_ablation_parallel",
    "bench_ablation_attacks", "bench_ablation_kernels",
]
PERFBENCH_TARGETS = ["perfbench_study"]
OUTPUT_NAMES = {"gendpr_cli": "gendpr"}

COMPILE_FLAGS = "-ffunction-sections -fdata-sections"


# The link rule writes each executable's map next to it; CMake expands
# <TARGET> only in rules, not in CMAKE_EXE_LINKER_FLAGS.
LINK_RULE = ("<CMAKE_CXX_COMPILER> <FLAGS> <CMAKE_CXX_LINK_FLAGS> "
             "<LINK_FLAGS> <OBJECTS> -o <TARGET> <LINK_LIBRARIES> "
             "-Wl,-Map=<TARGET>.map")


def build_tree(source, binary, targets):
    cmd = ["cmake", "-S", source, "-B", binary,
           "-DCMAKE_BUILD_TYPE=Debug",
           "-DCMAKE_CXX_FLAGS_DEBUG=-O0",
           f"-DCMAKE_CXX_FLAGS={COMPILE_FLAGS}",
           "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
           f"-DCMAKE_CXX_LINK_EXECUTABLE={LINK_RULE}"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(binary, "CMakeCache.txt")):
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, check=True)
    subprocess.run(["cmake", "--build", binary, "-j",
                    str(min(os.cpu_count() or 1, 4)), "--target", *targets],
                   check=True)


def src_archives(main_binary):
    archives = []
    for dirpath, _, files in os.walk(os.path.join(main_binary, "src")):
        for name in files:
            if name.startswith("libgendpr_") and name.endswith(".a"):
                archives.append(os.path.join(dirpath, name))
    return sorted(archives)


# Spellings that demangling expands, put back the way the source writes them
# so allowlist entries stay readable.
SHORTHANDS = [
    (r"std::__cxx11::basic_string<char, std::char_traits<char>, "
     r"std::allocator<char> >", "std::string"),
    (r"std::basic_string_view<char, std::char_traits<char> >",
     "std::string_view"),
    (r"std::span<unsigned char const, 18446744073709551615ul>",
     "common::BytesView"),
    (r"std::vector<unsigned char, std::allocator<unsigned char> >",
     "common::Bytes"),
    (r"std::vector<([^<>]+), std::allocator<\1> >", r"std::vector<\1>"),
    (r"std::chrono::time_point<std::chrono::_V2::steady_clock, "
     r"std::chrono::duration<long, std::ratio<1l, 1000000000l> > >",
     "steady_clock::time_point"),
    (r"\[abi:cxx11\]", ""),
]


def demangle(names):
    out = subprocess.run(["c++filt"], input="\n".join(names),
                         capture_output=True, text=True, check=True).stdout
    demangled = []
    for name in out.splitlines():
        for pattern, replacement in SHORTHANDS:
            name = re.sub(pattern, replacement, name)
        demangled.append(name)
    return demangled


def src_functions(archives):
    """(archive, member, section) -> (size, demangled name) for every
    non-weak function in its own .text section whose name involves the
    project's namespace. That leaves out library code compiled into a src/
    object (libstdc++'s static inline __gthread_* helpers, say). Aliases
    sharing a section (a constructor's C1/C2) count once."""
    found = {}
    member_re = re.compile(r"^(\S+\.o):\s+file format")
    for archive in archives:
        lib = os.path.basename(archive)
        out = subprocess.run(["objdump", "-t", archive], capture_output=True,
                             text=True, check=True).stdout
        member = None
        for line in out.splitlines():
            m = member_re.match(line)
            if m:
                member = m.group(1)
                continue
            # "<addr> <7 flag chars> <section>\t<size> <name>"
            parts = line.split()
            if member is None or len(parts) < 5 or "F" not in line[17:25]:
                continue
            if "w" in line[17:24]:
                continue  # weak: inline or template (COMDAT), not measured
            section, size, name = parts[-3], int(parts[-2], 16), parts[-1]
            if section.startswith(".text") and size > 0:
                found.setdefault((lib, member, section), (size, name))
    keys = list(found)
    names = demangle([found[key][1] for key in keys])
    return {key: (found[key][0], name) for key, name in zip(keys, names)
            if "gendpr::" in name}


def kept_sections(map_path):
    """Set of (archive, member, section) a linker map keeps."""
    kept = set()
    with open(map_path) as f:
        lines = f.read().splitlines()
    try:
        start = lines.index("Linker script and memory map")
    except ValueError:
        sys.exit(f"{map_path}: no memory map")
    obj_re = re.compile(r"([^/\s()]+\.a)\(([^)]+)\)$")
    pending = None
    for line in lines[start:]:
        if pending is not None:
            parts = line.split()
            if len(parts) >= 3 and parts[0].startswith("0x"):
                m = obj_re.search(parts[-1])
                if m:
                    kept.add((m.group(1), m.group(2), pending))
            pending = None
            continue
        if not line.startswith(" .text"):
            continue
        parts = line.split()
        if len(parts) == 1:
            pending = parts[0]  # long name: address, size, file on next line
        elif len(parts) >= 4:
            m = obj_re.search(parts[-1])
            if m:
                kept.add((m.group(1), m.group(2), parts[0]))
    return kept


def find_map(binary, name):
    for dirpath, _, files in os.walk(binary):
        if name + ".map" in files:
            return os.path.join(dirpath, name + ".map")
    sys.exit(f"no linker map for {name} under {binary}")


def read_allowlist():
    entries = {}
    with open(ALLOWLIST) as f:
        for number, raw in enumerate(f, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            name, sep, reason = line.partition("  # ")
            if not sep or not reason.strip():
                sys.exit(f"{ALLOWLIST}:{number}: entry without a '  # reason'")
            entries[name.strip()] = reason.strip()
    return entries


def main():
    if len(sys.argv) > 2 or (len(sys.argv) == 2 and
                             sys.argv[1].startswith("-")):
        sys.exit(__doc__.splitlines()[3])
    build = os.path.abspath(sys.argv[1] if len(sys.argv) == 2 else
                            os.path.join(ROOT, "build-reach"))
    main_binary = os.path.join(build, "main")
    perfbench_binary = os.path.join(build, "perfbench")
    build_tree(ROOT, main_binary, MAIN_TARGETS)
    build_tree(os.path.join(ROOT, "perfbench"), perfbench_binary,
               PERFBENCH_TARGETS)

    functions = src_functions(src_archives(main_binary))
    kept = set()
    for binary, targets in ((main_binary, MAIN_TARGETS),
                            (perfbench_binary, PERFBENCH_TARGETS)):
        for target in targets:
            output = OUTPUT_NAMES.get(target, target)
            kept |= kept_sections(find_map(binary, output))

    unreached = sorted(key for key in functions if key not in kept)
    allow = read_allowlist()
    total = sum(size for size, _ in functions.values())
    unreached_bytes = sum(functions[key][0] for key in unreached)

    offenders = []
    allowed_seen = set()
    for key in unreached:
        size, name = functions[key]
        if name in allow:
            allowed_seen.add(name)
        else:
            offenders.append((size, name, f"{key[0]}({key[1]})"))
    stale = sorted(set(allow) - allowed_seen)

    print(f"reachability: {len(functions)} src/ functions, {total} B of "
          f"out-of-line text; {len(unreached)} unreached, {unreached_bytes} B "
          f"({100.0 * unreached_bytes / max(total, 1):.2f}%), "
          f"{len(allowed_seen)} allowlisted")
    for size, name, obj in sorted(offenders, reverse=True):
        print(f"  UNREACHED {size:6d} B  {obj}  {name}")
    for name in stale:
        print(f"  STALE ALLOWLIST ENTRY (reached or gone)  {name}")
    if offenders or stale:
        print("reachability: FAIL. Delete each unreached function, give it a "
              "production caller, move it into tests/, or allowlist it with a "
              "reason in tools/reachability_allow.txt; drop stale entries.")
        return 1
    print("reachability: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
