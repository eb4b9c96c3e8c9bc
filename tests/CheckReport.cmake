# Runs one `twpp ... --format=json` command, fails unless it exits with
# the expected code, and checks what it printed with tools/check_report.py.
#
#   cmake -DEXPECT=0 -DVERB=memstat -DVALIDATOR=tools/check_report.py
#         -DOUT=memstat.json "-DCMD=twpp|memstat|--format=json|a.twpp"
#         -P CheckReport.cmake
#
# CMD separates its words with '|' so the list survives add_test; the
# report is kept in OUT.
string(REPLACE "|" ";" Command "${CMD}")
execute_process(COMMAND ${Command} RESULT_VARIABLE Code OUTPUT_FILE ${OUT}
                ERROR_VARIABLE Stderr)
if(NOT Code STREQUAL EXPECT)
  message(FATAL_ERROR "expected exit ${EXPECT}, got ${Code}: ${Command}\n"
                      "${Stderr}")
endif()
execute_process(COMMAND python3 ${VALIDATOR} ${OUT} --verb ${VERB}
                        --exit ${Code}
                RESULT_VARIABLE Valid ERROR_VARIABLE Why)
if(NOT Valid STREQUAL 0)
  message(FATAL_ERROR "${Why}")
endif()
