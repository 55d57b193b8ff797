# Result goldens: regenerate whole-sweep and study-figure CSVs with
# drowsy_sweep and byte-compare them against the checked-in copies next
# to this script.  The ci_smoke and netsim_storm sweeps also write their
# --trace-out run timelines to TRACE_DIR/<sweep>.traces; each sweep's
# SHA-256 list (`sha256sum` format, sorted by file name) is compared as
# <sweep>.traces.sha256.
#
#   cmake -DDROWSY_SWEEP=<binary> -DOUT_DIR=<dir> -P goldens/goldens.cmake
#   cmake -DDROWSY_SWEEP=<binary> -DUPDATE=ON -DTRACE_DIR=<dir> -P goldens/goldens.cmake
#
# The first form is the `goldens` ctest (TRACE_DIR defaults to OUT_DIR);
# the second rewrites the goldens in place (goldens/update.sh wraps it).
set(golden_dir ${CMAKE_CURRENT_LIST_DIR})
get_filename_component(source_dir ${golden_dir} DIRECTORY)
if(UPDATE)
  set(OUT_DIR ${golden_dir})
elseif(NOT TRACE_DIR)
  set(TRACE_DIR ${OUT_DIR})
endif()
if(NOT DROWSY_SWEEP OR NOT OUT_DIR OR NOT TRACE_DIR)
  message(FATAL_ERROR "usage: cmake -DDROWSY_SWEEP=<binary> (-DOUT_DIR=<dir> | -DUPDATE=ON -DTRACE_DIR=<dir>) -P ${CMAKE_CURRENT_LIST_FILE}")
endif()
# drowsy_sweep runs from the source root: pass it absolute paths.
get_filename_component(OUT_DIR ${OUT_DIR} ABSOLUTE)
get_filename_component(TRACE_DIR ${TRACE_DIR} ABSOLUTE)
file(MAKE_DIRECTORY ${OUT_DIR})
set(traced_sweeps ci_smoke netsim_storm)
foreach(sweep ${traced_sweeps})
  file(GLOB stale_traces ${TRACE_DIR}/${sweep}.traces/*.trace.json)
  if(stale_traces)
    file(REMOVE ${stale_traces})
  endif()
endforeach()

set(sweeps ci_smoke netsim_storm paper_catalogue replay_smoke ablation_grace)
set(studies fig1-workload-profiles fig3-grace-ablation fig4-im-efficiency
            table1-suspend-fraction fig5-llmi-sweep energy-sla-testbed)

set(expected "")
foreach(sweep ${sweeps})
  set(trace_args "")
  list(FIND traced_sweeps ${sweep} traced)
  if(traced GREATER -1)
    set(trace_args --trace-out ${TRACE_DIR}/${sweep}.traces)
  endif()
  execute_process(
    COMMAND ${DROWSY_SWEEP} run ${source_dir}/sweeps/${sweep}.json --threads 2
            --csv ${OUT_DIR}/${sweep}.stats.csv
            --runs-csv ${OUT_DIR}/${sweep}.runs.csv
            --verdicts-csv ${OUT_DIR}/${sweep}.verdicts.csv
            ${trace_args}
    WORKING_DIRECTORY ${source_dir}
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "drowsy_sweep run sweeps/${sweep}.json failed: ${rc}")
  endif()
  list(APPEND expected ${sweep}.stats.csv ${sweep}.runs.csv ${sweep}.verdicts.csv)
endforeach()

foreach(sweep ${traced_sweeps})
  set(trace_dir ${TRACE_DIR}/${sweep}.traces)
  file(GLOB traces RELATIVE ${trace_dir} ${trace_dir}/*.trace.json)
  if(NOT traces)
    message(FATAL_ERROR "drowsy_sweep run sweeps/${sweep}.json wrote no timelines to ${trace_dir}")
  endif()
  list(SORT traces)
  set(digests "")
  foreach(trace ${traces})
    file(SHA256 ${trace_dir}/${trace} digest)
    string(APPEND digests "${digest}  ${trace}\n")
  endforeach()
  file(WRITE ${OUT_DIR}/${sweep}.traces.sha256 "${digests}")
  list(APPEND expected ${sweep}.traces.sha256)
endforeach()

foreach(study ${studies})
  execute_process(
    COMMAND ${DROWSY_SWEEP} study run ${study} --threads 2 --out ${OUT_DIR}/${study}.csv
    WORKING_DIRECTORY ${source_dir}
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "drowsy_sweep study run ${study} failed: ${rc}")
  endif()
  list(APPEND expected ${study}.csv)
endforeach()
if(UPDATE)
  return()
endif()

set(mismatched "")
foreach(name ${expected})
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${golden_dir}/${name} ${OUT_DIR}/${name}
    RESULT_VARIABLE differs)
  if(differs)
    list(APPEND mismatched ${name})
  endif()
endforeach()

if(mismatched)
  list(JOIN mismatched "\n  " listing)
  message(FATAL_ERROR
    "regenerated results differ from goldens/ (compare against ${OUT_DIR}):\n  ${listing}\n"
    "If the change is intended, run goldens/update.sh and explain the diff in the commit.")
endif()
