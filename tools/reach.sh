#!/usr/bin/env bash
# Linker census: which vosim library functions does no program reach?
#
# Usage: tools/reach.sh <repo> <build-dir>
#
# Compiles the library (src/*/*.cpp) and every program -- vosim_cli
# (which also hosts the daemon), each bench, each example and
# vosim_perfbench -- at -O0 with one section per function, so no call
# is inlined away. Each program is then linked against every library
# object with --gc-sections, and the script prints, sorted, the
# demangled signature of each out-of-line vosim function that every one
# of those links drops. Inline and template functions are not counted:
# each translation unit that uses one emits its own copy, so the linker
# cannot say which copy a program reached. For the same reason a
# header-only helper is not seen at all.
#
# Exit status: 0 when every listed function is on the kept list below,
# 1 when one is not (each such signature is printed to stderr), 2 on a
# usage or build error. Objects and link logs go to <build-dir>. A run
# compiles with g++, one job per core, and takes about a minute on 4.
set -euo pipefail

# Functions the census may list, one line per reason they stay. A line
# is "<reason>: <entry>; <entry>; ...", and an entry is the start of a
# printed signature without its leading "vosim::".
kept_lines=(
  "independent references tests compare against: seq_settled_output(; split_bank_word(; probably_equivalent("
  "kernel seams tests drive: best_window(; segmented_windowed_add(; max_chain_into_segment(; SegmentedVosModel::table("
  "one-call forms tests drive: SeqSim::step_cycle(; VosDutSim::reset(unsigned long, unsigned long); DoubleSamplingMonitor::observe("
  "builders and accessors tests drive: make_dut(; to_verilog[abi:cxx11](; TransistorModel::at_temperature(; ArgParser::ArgParser(std::vector<; ArgParser::value(; CampaignStore::find(vosim::CampaignCellKey const&); CampaignStore::manifest_line[abi:cxx11](; PreparedCircuits::size(; obs::trace_event_count("
  "readers of files a program writes: VosAdderModel::load(; CarryChainProbTable::load(; obs::RunManifest::parse("
  "the multi-cycle VCD, to be wired to a program or deleted on its own: VcdWriter::; (anonymous namespace)::writer_id(; SeqVcdRecorder::; SimEngine::detach_observer("
)

usage() {
  echo "usage: tools/reach.sh <repo> <build-dir>" >&2
  exit 2
}
[ $# -eq 2 ] || usage
repo=$(cd "$1" 2>/dev/null && pwd) || usage
[ -f "$repo/src/vosim.hpp" ] || { echo "reach: no vosim sources in $1" >&2; exit 2; }
mkdir -p "$2/obj" "$2/gc"
build=$(cd "$2" && pwd)
rm -f "$build"/obj/*.o "$build"/gc/*.log

mapfile -t lib_srcs < <(cd "$repo" && ls src/*/*.cpp)
mapfile -t prog_srcs < <(cd "$repo" && ls tools/vosim_cli.cpp bench/*.cpp \
                                         examples/*.cpp perfbench/*.cpp)

obj_of() { echo "$build/obj/$(echo "${1%.cpp}" | tr / _).o"; }
export -f obj_of
export build repo

printf '%s\n' "${lib_srcs[@]}" "${prog_srcs[@]}" |
  xargs -P "$(nproc)" -I{} bash -c \
    'g++ -std=c++20 -O0 -ffunction-sections -pthread -I"$repo" \
       -c "$repo/$1" -o "$(obj_of "$1")"' _ {} ||
  { echo "reach: compile failed" >&2; exit 2; }

lib_objs=()
for s in "${lib_srcs[@]}"; do lib_objs+=("$(obj_of "$s")"); done

# One link per program: "<name>:<its objects>".
links=("vosim_cli:$(obj_of tools/vosim_cli.cpp)")
for s in "${prog_srcs[@]}"; do
  case "$s" in
    bench/bench_common.cpp | perfbench/speed_probe.cpp | tools/*) ;;
    bench/*)
      links+=("$(basename "$s" .cpp):$(obj_of "$s") $(obj_of bench/bench_common.cpp)") ;;
    examples/*) links+=("example_$(basename "$s" .cpp):$(obj_of "$s")") ;;
    perfbench/bench.cpp)
      links+=("vosim_perfbench:$(obj_of "$s") $(obj_of perfbench/speed_probe.cpp)") ;;
  esac
done

for entry in "${links[@]}"; do
  name=${entry%%:*}
  # shellcheck disable=SC2086  # the program's objects, space-separated
  g++ -pthread -o "$build/gc/$name" ${entry#*:} "${lib_objs[@]}" \
      -Wl,--gc-sections -Wl,--print-gc-sections 2> "$build/gc/$name.log" ||
    { cat "$build/gc/$name.log" >&2; echo "reach: link of $name failed" >&2; exit 2; }
  rm -f "$build/gc/$name"
done

# A section outside any COMDAT group ("[group]" suffix) holds one
# out-of-line function; count it when every link drops it.
for log in "$build"/gc/*.log; do
  sed -n "s/.*removing unused section '\.text\.\(_ZN[KVRO]*5vosim[^'[]*\)'.*/\1/p" \
    "$log" | sort -u
done | sort | uniq -c | awk -v n="${#links[@]}" '$1 == n { print $2 }' |
  c++filt | sort > "$build/unreached.txt"

cat "$build/unreached.txt"
echo "reach: ${#links[@]} programs drop $(wc -l < "$build/unreached.txt") vosim functions" >&2

# Every listed signature must start with a kept entry. An entry that
# starts none is only reported: its function is reached or gone now.
mapfile -t kept < <(printf '%s\n' "${kept_lines[@]}" | sed 's/^[^:]*: //' |
                      tr ';' '\n' | sed 's/^ *//; s/ *$//')
declare -A used=()
unexpected=()
while IFS= read -r sig; do
  for k in "${kept[@]}"; do
    if [[ ${sig#vosim::} == "$k"* ]]; then used[$k]=1; continue 2; fi
  done
  unexpected+=("$sig")
done < "$build/unreached.txt"
for k in "${kept[@]}"; do
  [ -n "${used[$k]:-}" ] || echo "reach: kept entry matches nothing: $k" >&2
done
if [ ${#unexpected[@]} -gt 0 ]; then
  echo "reach: unreached and not on the kept list:" >&2
  printf '%s\n' "${unexpected[@]}" >&2
  exit 1
fi
