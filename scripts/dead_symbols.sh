#!/usr/bin/env bash
# Dead-code gate: every out-of-line function that the src/ libraries define
# must be linked into at least one shipped binary -- the tools (tools/),
# the benches (bench/, except the microbench harness) and the examples
# (examples/). A function that only tests call is maintenance without a
# caller: delete it, or move it into tests/TestUtil.h when a test needs it
# as an oracle.
#
# How: a separate build with -fno-inline -ffunction-sections
# -fdata-sections, linked with -Wl,--gc-sections, so that the linker drops
# every function no binary reaches. -fno-inline keeps a function that is
# inlined at every call site (say DramSystem::accessUncapped) out of line,
# so it is not reported as unused. The gate lists the global text ("T")
# symbols in namespace hetsim:: of the src/ archives (nm -C
# --defined-only), drops "[clone .isra.N]", ".cold" and similar suffixes,
# skips destructors, and fails on every function that no shipped binary
# keeps and the allow-list below does not name. It also fails on an
# allow-list entry that is no longer defined or is now linked, so the list
# only shrinks.
#
# Limit: functions defined in headers (inline member functions and
# templates, such as bool Tlb::lookup(Addr)) are weak ("W") symbols and are
# not checked.
#
# Usage: scripts/dead_symbols.sh [builddir]   (default: build-deadsym)
set -euo pipefail
cd "$(dirname "$0")/.."
export LC_ALL=C # sort and comm must agree on one collation
BUILD="${1:-build-deadsym}"
JOBS="$(nproc 2>/dev/null || echo 4)"

# Functions no shipped binary links that stay anyway, one demangled
# signature per line (std::string spelled so, no [abi:cxx11] tags), each
# under a comment that gives its reason. Destructors are skipped, not
# listed.
ALLOW_LIST=$(sed -e 's/#.*//' -e '/^[[:space:]]*$/d' <<'EOF'
# perfbench/ calls these two, and only a change to the benchmark may move
# it to Trace.blocks() and BlockTrace(Block->generator(), ...).
hetsim::SharedTrace::buffer() const
hetsim::KernelTraceGenerator::kernel() const
# The coherence directory's eviction hook: wiring it is ROADMAP item 2.
hetsim::Directory::onEviction(hetsim::PuKind, unsigned long)
# Const accessors through which tests read state that no production API
# exposes.
hetsim::Cache::residentLines() const
hetsim::Directory::state(unsigned long) const
hetsim::SoftwareCoherence::state(std::string const&) const
# The names in SystemConfig's key table: ConfigKeys.DocsListEveryKey holds
# docs/CONFIG_KEYS.md to them.
hetsim::SystemConfig::configKeys()
EOF
)

# The shipped binaries: every bench and example target, and every tool.
mapfile -t TARGETS < <(
  sed -n 's/^hetsim_add_bench(\([A-Za-z0-9_]*\)).*/\1/p' bench/CMakeLists.txt
  sed -n 's/^hetsim_add_example(\([A-Za-z0-9_]*\)).*/\1/p' examples/CMakeLists.txt
  sed -n 's/^add_executable(\([A-Za-z0-9_]*\) .*/\1/p' tools/CMakeLists.txt
)

cmake -B "$BUILD" -S . \
  -DCMAKE_CXX_FLAGS="-fno-inline -ffunction-sections -fdata-sections" \
  -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" >/dev/null
cmake --build "$BUILD" -j "$JOBS" --target "${TARGETS[@]}" >/dev/null

mapfile -t BINARIES < <(find "$BUILD/tools" "$BUILD/bench" "$BUILD/examples" \
  -maxdepth 1 -type f -perm -u+x ! -name microbench | sort)
if [ "${#BINARIES[@]}" -ne "${#TARGETS[@]}" ]; then
  echo "dead_symbols: built ${#TARGETS[@]} targets but found ${#BINARIES[@]} binaries" >&2
  exit 1
fi

# nm -C prints "<address> <type> <demangled name>"; keep the name without
# the compiler's clone suffixes, with std::string and without ABI tags.
symbols() {
  awk -v want="$1" '($2 == want || want == "any") && NF >= 3 {
    sub(/^[^ ]+ [^ ]+ /, ""); print }' |
    sed -E -e 's/( \[clone [^]]*\])+$//' -e 's/\[abi:[a-z0-9]+\]//g' \
      -e 's/std::__cxx11::basic_string<char, std::char_traits<char>, std::allocator<char> >/std::string/g' |
    sort -u
}

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
find "$BUILD/src" -name '*.a' -print0 | xargs -0 nm -C --defined-only |
  symbols T | grep '^hetsim::' | grep -v '::~' >"$TMP/defined" || true
for b in "${BINARIES[@]}"; do nm -C --defined-only "$b"; done |
  symbols any >"$TMP/linked"
printf '%s\n' "$ALLOW_LIST" | sed '/^$/d' | sort -u >"$TMP/allowed"

comm -23 "$TMP/defined" "$TMP/linked" >"$TMP/unlinked"
comm -23 "$TMP/unlinked" "$TMP/allowed" >"$TMP/dead"
comm -23 "$TMP/allowed" "$TMP/unlinked" >"$TMP/stale"

echo "dead_symbols: $(wc -l <"$TMP/defined") src/ functions, ${#BINARIES[@]} shipped binaries, $(wc -l <"$TMP/allowed") allow-listed"
STATUS=0
if [ -s "$TMP/dead" ]; then
  echo "dead_symbols: $(wc -l <"$TMP/dead") src/ functions no shipped binary links:"
  sed 's/^/  /' "$TMP/dead"
  STATUS=1
fi
if [ -s "$TMP/stale" ]; then
  echo "dead_symbols: allow-list entries that are linked or no longer defined:"
  sed 's/^/  /' "$TMP/stale"
  STATUS=1
fi
[ "$STATUS" -eq 0 ] && echo "dead_symbols: ok"
exit "$STATUS"
