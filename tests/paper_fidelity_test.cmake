# Paper-fidelity guard: runs the quick Table III preset (impact of xi) and
# compares its ER@5, ER@10 and NDCG@10 rows, as printed to 4 decimals,
# against the committed golden CSV. Any change to the attack, the model, the
# top-K or the evaluator that moves a metric fails here. Run by the
# `paper_fidelity_table3_*` suites registered in tests/CMakeLists.txt:
#   cmake -DBENCH=<bench_table3_xi> -DTHREADS=<n> -DGOLDEN=<csv> -DOUT=<csv>
#         -P this_file

foreach(var BENCH THREADS GOLDEN OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "paper_fidelity_test.cmake needs -D${var}")
  endif()
endforeach()

execute_process(
  COMMAND ${BENCH} --quick --threads=${THREADS} --csv=${OUT}
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE bench_output
  ERROR_VARIABLE bench_output)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${exit_code}:\n${bench_output}")
endif()

set(metric_rows "^(ER@5|ER@10|NDCG@10),")
file(STRINGS ${OUT} got REGEX "${metric_rows}")
file(STRINGS ${GOLDEN} want REGEX "${metric_rows}")
list(LENGTH want want_count)
if(NOT want_count EQUAL 3)
  message(FATAL_ERROR "${GOLDEN} must hold the ER@5, ER@10 and NDCG@10 rows")
endif()
if(NOT got STREQUAL want)
  string(REPLACE ";" "\n  " got_text "${got}")
  string(REPLACE ";" "\n  " want_text "${want}")
  message(FATAL_ERROR
    "Table III quick rows at --threads=${THREADS} differ from ${GOLDEN}\n"
    "got:\n  ${got_text}\nwant:\n  ${want_text}")
endif()

message(STATUS "Table III quick rows match ${GOLDEN} at --threads=${THREADS}")
