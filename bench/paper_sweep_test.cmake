# PaperSweep.PinnedCsvs: runs paper_sweep at a quick scale in a fresh
# directory and compares a hash of every CSV with the bytes the per-table
# benches it replaced wrote under the same environment (ablation_forest's
# last column, a wall-clock fit time, is cut first). Then: a selection
# writes only its CSVs, in the fixed order; an unwritable CSV ends the run
# nonzero with a partial manifest; an unknown name or a malformed scale
# knob exits 2 before any work.
#
#   cmake -DSWEEP=<paper_sweep> -DWORK_DIR=<dir> -P paper_sweep_test.cmake

# Each CSV's name and the first 16 hex digits of the SHA-256 of its bytes.
set(pinned
  table01_datasets        e49e0f6366cdbe4c
  table02_transformed     3ff97f43bd676b5f
  table03_binary_datasets cf70d92abe9256f2
  table04_num_styles      ce75cad2f2db3ad7
  table05_diversity_2017  683cdd2708a493c5
  table06_diversity_2018  561e0f195dedd321
  table07_diversity_2019  0e8806b480255967
  table08_naive           b9b304b11e39303f
  table09_feature_based   21fc0f34ca5e3b3c
  table10_binary          b18a33fb0c5fc0b6
  fig02_nct_vs_ct         d40e93c09cbb788b
  ablation_features       e2d8cbaa3a8031c1
  ablation_forest         2b0ce70a2314f7e4
  ablation_chain_depth    02b1f541e0a61278
  ablation_evasion        f81918ca6a7df294)

set(ENV{SCA_AUTHORS} 16)
set(ENV{SCA_STEPS} 4)
set(ENV{SCA_TREES} 20)
set(ENV{SCA_SET} 3)
set(ENV{SCA_TOPK} 350)
set(ENV{SCA_THREADS} 2)
set(ENV{SCA_HISTORY} off)
set(ENV{SCA_MANIFEST} manifest.json)
set(failures "")

# Runs paper_sweep with ARGN in a fresh WORK_DIR/<dir> (for "unwritable",
# one whose bench_out is a regular file); sets rc, out (stdout), manifest
# (its text) and csvs (the CSV files it wrote).
macro(run_sweep dir)
  set(cwd "${WORK_DIR}/${dir}")
  file(REMOVE_RECURSE "${cwd}")
  file(MAKE_DIRECTORY "${cwd}")
  if("${dir}" STREQUAL "unwritable")
    file(WRITE "${cwd}/bench_out" "")
  endif()
  execute_process(COMMAND "${SWEEP}" ${ARGN} WORKING_DIRECTORY "${cwd}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_QUIET)
  set(manifest "")
  if(EXISTS "${cwd}/manifest.json")
    file(READ "${cwd}/manifest.json" manifest)
  endif()
  file(GLOB csvs RELATIVE "${cwd}/bench_out" "${cwd}/bench_out/*.csv")
endmacro()

# Fails unless the last run wrote exactly the CSVs named, at their pins.
macro(expect_csvs dir)
  foreach(name ${ARGN})
    list(FIND pinned ${name} at)
    math(EXPR at "${at} + 1")
    list(GET pinned ${at} want)
    set(got missing)
    if(EXISTS "${WORK_DIR}/${dir}/bench_out/${name}.csv")
      file(READ "${WORK_DIR}/${dir}/bench_out/${name}.csv" text)
      if(name STREQUAL "ablation_forest")
        string(REGEX REPLACE ",[^,\n]*\n" "\n" text "${text}")
      endif()
      string(SHA256 got "${text}")
      string(SUBSTRING "${got}" 0 16 got)
    endif()
    if(NOT got STREQUAL want)
      string(APPEND failures "\n  ${name}.csv: ${got}, pinned ${want}")
    endif()
    list(REMOVE_ITEM csvs "${name}.csv")
  endforeach()
  if(csvs)
    string(APPEND failures "\n  ${dir}: unexpected CSVs ${csvs}")
  endif()
endmacro()

set(all ${pinned})
list(FILTER all EXCLUDE REGEX "^[0-9a-f]+$")
run_sweep(all)
expect_csvs(all ${all})
if(NOT rc EQUAL 0 OR NOT manifest MATCHES "\"status\":\"complete\"")
  string(APPEND failures "\n  the full sweep exited ${rc} or is not complete")
endif()

run_sweep(selected fig02_nct_vs_ct table01_datasets)
expect_csvs(selected table01_datasets fig02_nct_vs_ct)
string(FIND "${out}" "Table I:" table01_at)
string(FIND "${out}" "Figure 2" fig02_at)
if(NOT rc EQUAL 0 OR table01_at EQUAL -1 OR NOT table01_at LESS fig02_at)
  string(APPEND failures "\n  a selection exited ${rc} or ran out of order")
endif()

run_sweep(unwritable table01_datasets)
if(rc EQUAL 0 OR NOT manifest MATCHES "\"status\":\"partial\"")
  string(APPEND failures "\n  an unwritable CSV exited ${rc} or left no "
                         "partial manifest")
endif()

run_sweep(unknown table01_datasets table99_missing)
if(NOT rc EQUAL 2 OR EXISTS "${WORK_DIR}/unknown/manifest.json")
  string(APPEND failures "\n  an unknown name exited ${rc} or did some work")
endif()
set(ENV{SCA_AUTHORS} 16x)
run_sweep(malformed table01_datasets)
if(NOT rc EQUAL 2 OR EXISTS "${WORK_DIR}/malformed/manifest.json")
  string(APPEND failures "\n  SCA_AUTHORS=16x exited ${rc} or did some work")
endif()

if(failures)
  message(FATAL_ERROR "PaperSweep.PinnedCsvs failed:${failures}")
endif()
