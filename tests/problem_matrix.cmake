# Solo problem matrix pin: runs `sisa_run P int-antCol5-d1 M 4` for
# every solo problem P in all three modes M, concatenates the stdout
# (results, makespans and every counter) and compares it byte for byte
# with the committed expected file.
#
#   cmake -DSISA_RUN=build/sisa_run
#         -DEXPECTED=tests/expected/sisa_run_problem_matrix_int-antCol5-d1.txt
#         -DACTUAL=build/problem_matrix.txt -P tests/problem_matrix.cmake

set(problems tc kcc-3 kcc-4 kcc-5 kcc-6 ksc-3 ksc-4 ksc-5 ksc-6 mc si-4s
    si-4s-L cl-jac cl-ovr cl-tot)
set(actual "")
foreach(problem ${problems})
  foreach(mode non-set set-based sisa)
    execute_process(COMMAND ${SISA_RUN} ${problem} int-antCol5-d1 ${mode} 4
                    OUTPUT_VARIABLE out RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR
              "sisa_run ${problem} int-antCol5-d1 ${mode} 4 exited ${rc}")
    endif()
    string(APPEND actual "${out}")
  endforeach()
endforeach()

file(WRITE ${ACTUAL} "${actual}")
file(READ ${EXPECTED} expected)
if(NOT actual STREQUAL expected)
  execute_process(COMMAND diff -u ${EXPECTED} ${ACTUAL})
  message(FATAL_ERROR "problem matrix differs from ${EXPECTED}")
endif()
