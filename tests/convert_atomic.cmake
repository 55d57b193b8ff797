# `drowsy_trace convert` writes both of its files or neither:
#
#   cmake -DTOOL=<drowsy_trace> -DINPUT=<raw.csv> -DOUT_DIR=<dir> -P tests/convert_atomic.cmake
#
# The manifest is sent into a missing directory, so its write fails; the
# run must exit non-zero and leave no --out CSV behind.
file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")
execute_process(COMMAND "${TOOL}" convert --format azure --out "${OUT_DIR}/trace.csv"
                        --manifest "${OUT_DIR}/missing/trace.manifest.json" "${INPUT}"
                RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "convert exited 0 although the manifest could not be written")
endif()
if(EXISTS "${OUT_DIR}/trace.csv")
  message(FATAL_ERROR "convert failed (${rc}: ${err}) but left ${OUT_DIR}/trace.csv")
endif()
