# CTest script: `eco_chip --coordinate --hosts HOSTS.json` must
# produce a merged BatchReport byte-identical to the
# single-process `--batch` run of the same file, exercised at the
# CLI level through whichever transport the manifest selects
# (command templates, or the fork/exec local transport for hosts
# without one); tests/test_engine.cpp locks the same property at
# the library level, with fault injection.
#
# Variables: APP (eco_chip binary), BATCH (requests.json),
#            HOSTS (hosts.json manifest),
#            WORKDIR (scratch directory).

if(NOT APP OR NOT BATCH OR NOT HOSTS OR NOT WORKDIR)
    message(FATAL_ERROR "usage: cmake -DAPP=... -DBATCH=... -DHOSTS=... -DWORKDIR=... -P coordinate_equivalence.cmake")
endif()

file(MAKE_DIRECTORY "${WORKDIR}")
set(batch_json "${WORKDIR}/batch_report.json")
set(coordinate_json "${WORKDIR}/coordinate_report.json")

execute_process(
    COMMAND "${APP}" --batch "${BATCH}" --engine_threads 4
            --json "${batch_json}"
    RESULT_VARIABLE batch_rc
    OUTPUT_QUIET)
if(NOT batch_rc EQUAL 0)
    message(FATAL_ERROR "--batch run failed (exit ${batch_rc})")
endif()

execute_process(
    COMMAND "${APP}" --coordinate "${BATCH}" --hosts "${HOSTS}"
            --engine_threads 2 --json "${coordinate_json}"
    RESULT_VARIABLE coordinate_rc
    OUTPUT_QUIET)
if(NOT coordinate_rc EQUAL 0)
    message(FATAL_ERROR "--coordinate run failed (exit ${coordinate_rc})")
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            "${batch_json}" "${coordinate_json}"
    RESULT_VARIABLE cmp_rc)
if(NOT cmp_rc EQUAL 0)
    message(FATAL_ERROR
        "merged coordinated report differs from the "
        "single-process batch report:\n  ${batch_json}\n  ${coordinate_json}")
endif()

message(STATUS "coordinate/batch reports byte-identical")
