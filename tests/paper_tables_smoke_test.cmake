# Paper-table smoke test: runs every bench_paper table at a tiny scale, so a
# table spec that stops running fails here in every preset. The table list
# comes from bench_paper itself, which prints it when run without a table.
# Also checks that column labels follow the swept values (default and
# overridden), that Fig. 3's one CSV holds every dataset's rows and that a
# flag the table does not read is rejected. Run by
# the `paper_tables_smoke` suite registered in tests/CMakeLists.txt:
#   cmake -DBENCH=<bench_paper> -DOUT_DIR=<dir> -P this_file

foreach(var BENCH OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "paper_tables_smoke_test.cmake needs -D${var}")
  endif()
endforeach()
file(REMOVE_RECURSE ${OUT_DIR})
file(MAKE_DIRECTORY ${OUT_DIR})

execute_process(
  COMMAND ${BENCH}
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE usage
  ERROR_VARIABLE usage)
if(NOT exit_code EQUAL 2 OR NOT usage MATCHES "tables: ([^\n]*)")
  message(FATAL_ERROR "bench_paper without a table must list the tables and "
    "exit 2; it exited ${exit_code}:\n${usage}")
endif()
separate_arguments(tables UNIX_COMMAND "${CMAKE_MATCH_1}")
list(LENGTH tables table_count)
if(table_count LESS 11)
  message(FATAL_ERROR "bench_paper lists ${table_count} tables: ${tables}")
endif()

# Runs `bench_paper <args>` at the smoke scale into ${OUT_DIR}/<csv>.csv and
# returns the CSV's lines in `lines_var`.
function(run_table csv lines_var)
  set(csv_path ${OUT_DIR}/${csv}.csv)
  execute_process(
    COMMAND ${BENCH} ${ARGN} --scale=0.05 --epochs=1 --threads=2
            --csv=${csv_path}
    RESULT_VARIABLE exit_code
    OUTPUT_VARIABLE output
    ERROR_VARIABLE output)
  if(NOT exit_code EQUAL 0)
    message(FATAL_ERROR "bench_paper ${ARGN} exited with ${exit_code}:\n${output}")
  endif()
  file(STRINGS ${csv_path} lines)
  list(LENGTH lines line_count)
  if(line_count LESS 2)
    message(FATAL_ERROR "bench_paper ${ARGN} wrote no rows to ${csv_path}")
  endif()
  set(${lines_var} "${lines}" PARENT_SCOPE)
endfunction()

function(expect_header lines want)
  list(GET lines 0 got)
  if(NOT got STREQUAL want)
    message(FATAL_ERROR "header\n  ${got}\nwant\n  ${want}")
  endif()
endfunction()

foreach(table IN LISTS tables)
  run_table(${table} lines ${table})
  if(table STREQUAL "table3")
    expect_header("${lines}" "Metric,xi=1%,xi=2%,xi=3%,xi=5%,xi=10%")
  elseif(table STREQUAL "table7")
    set(want "Dataset,Attack")
    foreach(rho 3 5 10)
      string(APPEND want ",ER@5 rho=${rho}%,ER@10 rho=${rho}%,NDCG@10 rho=${rho}%")
    endforeach()
    expect_header("${lines}" "${want}")
  elseif(table STREQUAL "fig3")
    foreach(dataset ml-100k ml-1m steam-200k)
      set(dataset_rows "${lines}")
      list(FILTER dataset_rows INCLUDE REGEX "^${dataset},")
      if(NOT dataset_rows)
        message(FATAL_ERROR "fig3 CSV has no ${dataset} rows")
      endif()
    endforeach()
  endif()
endforeach()

# An overridden sweep is labelled by its own values, with no empty columns.
run_table(table4_rho_override lines table4 --rho=0.005,0.03)
expect_header("${lines}" "Metric,rho=0.5%,rho=3%")
list(FILTER lines INCLUDE REGEX "^(ER@5|ER@10|NDCG@10),[^,]+,[^,]+$")
list(LENGTH lines metric_rows)
if(NOT metric_rows EQUAL 3)
  message(FATAL_ERROR "table4 --rho=0.005,0.03 must give 3 two-cell metric rows")
endif()

# A flag the table does not read stops the run before it starts: exit 2,
# naming each such flag, and no CSV.
set(bogus_csv ${OUT_DIR}/table9_unknown_flags.csv)
execute_process(
  COMMAND ${BENCH} table9 --kapa=5 --bogus=1 --scale=0.05 --csv=${bogus_csv}
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE output
  ERROR_VARIABLE output)
if(NOT exit_code EQUAL 2 OR NOT output MATCHES "unknown flag --kapa" OR
   NOT output MATCHES "unknown flag --bogus" OR EXISTS ${bogus_csv})
  message(FATAL_ERROR "bench_paper table9 --kapa=5 --bogus=1 must exit 2 "
    "naming both flags before it runs; it exited ${exit_code}:\n${output}")
endif()

message(STATUS "all ${table_count} bench_paper tables ran: ${tables}")
