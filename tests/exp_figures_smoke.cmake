# Runs `kvec figure --list`, then four of the quick experiments at tiny
# scale, so the figure registry (src/exp/figures.cc) runs under ctest and
# not only in CI's docs job. Each run must exit 0 and print something; the
# numbers themselves are not compared.
#
#   cmake -DKVEC=path/to/kvec -P tests/exp_figures_smoke.cmake
if(NOT KVEC)
  message(FATAL_ERROR "pass -DKVEC=<path to the kvec binary>")
endif()

function(run_figure)
  execute_process(COMMAND ${KVEC} figure ${ARGN}
                  RESULT_VARIABLE status
                  OUTPUT_VARIABLE output
                  ERROR_VARIABLE errors)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "kvec figure ${ARGN} exited ${status}:\n${errors}")
  endif()
  string(STRIP "${output}" output)
  if(output STREQUAL "")
    message(FATAL_ERROR "kvec figure ${ARGN} printed nothing")
  endif()
  message(STATUS "kvec figure ${ARGN}: ok")
endfunction()

run_figure(--list)
foreach(name table1 table2 fig10 ext-calibration)
  run_figure(${name} --scale tiny)
endforeach()
