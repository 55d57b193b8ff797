# Result goldens: regenerate whole-sweep and study-figure CSVs with
# drowsy_sweep and byte-compare them against the checked-in copies next
# to this script.  The ci_smoke sweep also writes its --trace-out run
# timelines to TRACE_DIR; their SHA-256 list (`sha256sum` format, sorted
# by file name) is compared as ci_smoke.traces.sha256.
#
#   cmake -DDROWSY_SWEEP=<binary> -DOUT_DIR=<dir> -P goldens/goldens.cmake
#   cmake -DDROWSY_SWEEP=<binary> -DUPDATE=ON -DTRACE_DIR=<dir> -P goldens/goldens.cmake
#
# The first form is the `goldens` ctest (TRACE_DIR defaults to
# <dir>/ci_smoke.traces); the second rewrites the goldens in place
# (goldens/update.sh wraps it).
set(golden_dir ${CMAKE_CURRENT_LIST_DIR})
get_filename_component(source_dir ${golden_dir} DIRECTORY)
if(UPDATE)
  set(OUT_DIR ${golden_dir})
elseif(NOT TRACE_DIR)
  set(TRACE_DIR ${OUT_DIR}/ci_smoke.traces)
endif()
if(NOT DROWSY_SWEEP OR NOT OUT_DIR OR NOT TRACE_DIR)
  message(FATAL_ERROR "usage: cmake -DDROWSY_SWEEP=<binary> (-DOUT_DIR=<dir> | -DUPDATE=ON -DTRACE_DIR=<dir>) -P ${CMAKE_CURRENT_LIST_FILE}")
endif()
file(MAKE_DIRECTORY ${OUT_DIR})
file(GLOB stale_traces ${TRACE_DIR}/*.trace.json)
if(stale_traces)
  file(REMOVE ${stale_traces})
endif()

set(sweeps ci_smoke netsim_storm paper_catalogue replay_smoke ablation_grace)
set(studies fig1-workload-profiles fig3-grace-ablation fig4-im-efficiency
            table1-suspend-fraction fig5-llmi-sweep energy-sla-testbed)

set(expected "")
foreach(sweep ${sweeps})
  set(trace_args "")
  if(sweep STREQUAL "ci_smoke")
    set(trace_args --trace-out ${TRACE_DIR})
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

file(GLOB traces RELATIVE ${TRACE_DIR} ${TRACE_DIR}/*.trace.json)
if(NOT traces)
  message(FATAL_ERROR "drowsy_sweep run sweeps/ci_smoke.json wrote no timelines to ${TRACE_DIR}")
endif()
list(SORT traces)
set(digests "")
foreach(trace ${traces})
  file(SHA256 ${TRACE_DIR}/${trace} digest)
  string(APPEND digests "${digest}  ${trace}\n")
endforeach()
file(WRITE ${OUT_DIR}/ci_smoke.traces.sha256 "${digests}")
list(APPEND expected ci_smoke.traces.sha256)

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
