# Drives the CLI end to end: generate a cohort, assess it, write a release.
file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})

execute_process(
  COMMAND ${CLI} gen ${WORKDIR} --cases 400 --controls 400 --snps 120 --gdos 3
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gendpr gen failed (${rc})")
endif()

execute_process(
  COMMAND ${CLI} assess ${WORKDIR} --gdos 3 --report ${WORKDIR}/report.json
  RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gendpr assess failed (${rc})")
endif()
if(NOT out MATCHES "SNPs safe")
  message(FATAL_ERROR "assess output missing safe-SNP line: ${out}")
endif()
if(NOT EXISTS ${WORKDIR}/report.json)
  message(FATAL_ERROR "report.json was not written")
endif()
file(READ ${WORKDIR}/report.json report)
if(NOT report MATCHES "gendpr.run_report.v2")
  message(FATAL_ERROR "report.json missing schema marker")
endif()
if(NOT report MATCHES "phase.maf")
  message(FATAL_ERROR "report.json missing MAF phase span")
endif()

execute_process(
  COMMAND ${CLI} release ${WORKDIR} --gdos 3 --out ${WORKDIR}/release.tsv
          --dp-epsilon 1.0
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gendpr release failed (${rc})")
endif()
if(NOT EXISTS ${WORKDIR}/release.tsv)
  message(FATAL_ERROR "release.tsv was not written")
endif()
file(READ ${WORKDIR}/release.tsv tsv)
if(NOT tsv MATCHES "snp\tmode\tcase_count")
  message(FATAL_ERROR "release.tsv missing header")
endif()

# Only in_process and epoll name a transport; anything else is a usage error.
foreach(bad bogus uring)
  execute_process(
    COMMAND ${CLI} assess ${WORKDIR} --gdos 3 --transport ${bad}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "--transport ${bad} exited ${rc}, want 2")
  endif()
  if(NOT err MATCHES "usage: gendpr")
    message(FATAL_ERROR "--transport ${bad} did not print the usage: ${err}")
  endif()
endforeach()
