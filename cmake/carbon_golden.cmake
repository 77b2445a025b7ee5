# CTest script: the `--batch --json` report of
# data/requests/carbon_golden.json must be byte-identical to the
# committed golden. The batch reaches every packaging architecture,
# the stack-group, battery and fixed-power paths and all four yield
# models through the scalar estimate, the sweep kernel, the Monte
# Carlo / sensitivity kernel and the cost model. Numbers are written
# in their shortest round-trip spelling, so equal bytes mean equal
# bits: a drift in a carbon term that both the scalar path and the
# kernels share shows here even though the kernel goldens, which
# compare the two paths with each other, still agree.
#
# Variables: APP (eco_chip binary), BATCH (requests.json),
#            GOLDEN (expected report), WORKDIR (scratch directory).

if(NOT APP OR NOT BATCH OR NOT GOLDEN OR NOT WORKDIR)
    message(FATAL_ERROR "usage: cmake -DAPP=... -DBATCH=... -DGOLDEN=... -DWORKDIR=... -P carbon_golden.cmake")
endif()

file(MAKE_DIRECTORY "${WORKDIR}")
set(report_json "${WORKDIR}/carbon_golden_report.json")

execute_process(
    COMMAND "${APP}" --batch "${BATCH}" --engine_threads 2
            --json "${report_json}"
    RESULT_VARIABLE batch_rc
    OUTPUT_QUIET)
if(NOT batch_rc EQUAL 0)
    message(FATAL_ERROR "--batch run failed (exit ${batch_rc})")
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            "${GOLDEN}" "${report_json}"
    RESULT_VARIABLE cmp_rc)
if(NOT cmp_rc EQUAL 0)
    message(FATAL_ERROR
        "carbon report differs from the golden:\n"
        "  ${GOLDEN}\n  ${report_json}")
endif()

message(STATUS "carbon report byte-identical to the golden")
