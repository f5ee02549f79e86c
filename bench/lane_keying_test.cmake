# perf_sweep on one usable lane (GEOPLACE_THREADS=1), run in WORK_DIR: it must
# pass with its scaling floor written as 0.0 and the reason printed, and
# bench_check --internal must pass the BENCH_sweep.json it wrote.
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})
execute_process(COMMAND ${CMAKE_COMMAND} -E env GEOPLACE_THREADS=1 ${BENCH}
                WORKING_DIRECTORY ${WORK_DIR} RESULT_VARIABLE code
                OUTPUT_VARIABLE out ERROR_VARIABLE out)
message("${out}")
file(READ ${WORK_DIR}/BENCH_sweep.json artifact)
string(JSON ratio_min GET "${artifact}" thread_scaling_ratio_min)
if(NOT code EQUAL 0 OR NOT ratio_min EQUAL 0 OR
   NOT out MATCHES "thread_scaling_ratio [^\n]*not gated: 1 usable lane")
  message(FATAL_ERROR "perf_sweep exit ${code}, thread_scaling_ratio_min ${ratio_min}")
endif()
execute_process(COMMAND ${PYTHON} ${CHECKER} --internal BENCH_sweep.json
                WORKING_DIRECTORY ${WORK_DIR} RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "bench_check --internal exit ${code}")
endif()
