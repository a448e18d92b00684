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

# Removed flags, malformed numbers and exclusive flags together are usage
# errors too: every numeric flag must parse as one whole token, with no sign
# on an unsigned field, and --f excludes --conservative.
foreach(bad "--no-prune" "--gdos;abc" "--tile-width;-1" "--f;1;--conservative")
  execute_process(
    COMMAND ${CLI} assess ${WORKDIR} ${bad}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "assess ${bad} exited ${rc}, want 2")
  endif()
  if(NOT err MATCHES "usage: gendpr")
    message(FATAL_ERROR "assess ${bad} did not print the usage: ${err}")
  endif()
endforeach()

# Thresholds outside their domain are usage errors: an FPR or power limit
# outside [0, 1], or any threshold that is not finite.
foreach(bad "--fpr;1.5" "--fpr;-0.5" "--power;1.2" "--maf;inf" "--ld;nan")
  execute_process(
    COMMAND ${CLI} assess ${WORKDIR} --gdos 3 ${bad}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "assess ${bad} exited ${rc}, want 2")
  endif()
  if(NOT err MATCHES "invalid value")
    message(FATAL_ERROR "assess ${bad} did not report an invalid value: ${err}")
  endif()
endforeach()

# A reference panel or slice over other SNPs than gdo0.vcf is refused rather
# than read past its end: swap in the file of a 60-SNP workspace.
file(MAKE_DIRECTORY ${WORKDIR}/short)
execute_process(
  COMMAND ${CLI} gen ${WORKDIR}/short --cases 400 --controls 400 --snps 60
          --gdos 3
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gendpr gen of the 60-SNP workspace failed (${rc})")
endif()
foreach(file reference.vcf gdo0.vcf)
  set(mixed ${WORKDIR}/mixed_${file})
  file(MAKE_DIRECTORY ${mixed})
  foreach(part gdo0.vcf gdo1.vcf gdo2.vcf reference.vcf)
    if(part STREQUAL file)
      configure_file(${WORKDIR}/short/${part} ${mixed}/${part} COPYONLY)
    else()
      configure_file(${WORKDIR}/${part} ${mixed}/${part} COPYONLY)
    endif()
  endforeach()
  execute_process(
    COMMAND ${CLI} assess ${mixed} --gdos 3
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "assess with a 60-SNP ${file} exited ${rc}, want 1")
  endif()
  if(NOT err MATCHES "differ")
    message(FATAL_ERROR "assess with a 60-SNP ${file} did not name the "
                        "mismatch: ${err}")
  endif()
endforeach()
