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
foreach(bad "--no-prune" "--event-loops;3" "--gdos;abc" "--tile-width;-1"
            "--f;1;--conservative")
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

# A slice that no longer matches its signed manifest is refused, naming the
# file: flip one genotype character of gdo1.vcf (its last line holds only
# genotypes).
file(MAKE_DIRECTORY ${WORKDIR}/tampered)
foreach(part gdo0.vcf gdo0.manifest gdo1.manifest gdo2.vcf gdo2.manifest
             reference.vcf)
  configure_file(${WORKDIR}/${part} ${WORKDIR}/tampered/${part} COPYONLY)
endforeach()
file(READ ${WORKDIR}/gdo1.vcf slice)
string(LENGTH "${slice}" slice_length)
math(EXPR last "${slice_length} - 2")
string(SUBSTRING "${slice}" ${last} 1 genotype)
if(genotype STREQUAL "0")
  set(flipped 1)
else()
  set(flipped 0)
endif()
string(SUBSTRING "${slice}" 0 ${last} head)
file(WRITE ${WORKDIR}/tampered/gdo1.vcf "${head}${flipped}\n")
foreach(command assess release)
  execute_process(
    COMMAND ${CLI} ${command} ${WORKDIR}/tampered --gdos 3
            --out ${WORKDIR}/tampered/release.tsv
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "${command} with a tampered gdo1.vcf exited ${rc}, "
                        "want 1")
  endif()
  if(NOT err MATCHES "gdo1.vcf")
    message(FATAL_ERROR "${command} with a tampered gdo1.vcf did not name "
                        "the file: ${err}")
  endif()
endforeach()

# A reference panel or slice over other SNPs than gdo0.vcf is refused rather
# than read past its end: swap in the file of a 60-SNP workspace. Each slice
# travels with its own signed manifest, so the swap passes verification and
# reaches the SNP-list check.
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
      set(source ${WORKDIR}/short)
    else()
      set(source ${WORKDIR})
    endif()
    configure_file(${source}/${part} ${mixed}/${part} COPYONLY)
    string(REPLACE ".vcf" ".manifest" manifest ${part})
    if(EXISTS ${source}/${manifest})
      configure_file(${source}/${manifest} ${mixed}/${manifest} COPYONLY)
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

# The study splits the cases equally among the GDOs, as `gen` does, so a
# slice of another size would leave genomes under the wrong GDO. Take gdo1
# (135 genomes, signed) from a 405-case workspace into the 400-case one:
# 134 + 135 + 133 = 402 cases split 134/134/134, so gdo1 is the first slice
# off its range, and both loaders refuse the workspace naming it.
file(MAKE_DIRECTORY ${WORKDIR}/wide)
execute_process(
  COMMAND ${CLI} gen ${WORKDIR}/wide --cases 405 --controls 400 --snps 120
          --gdos 3
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "gendpr gen of the 405-case workspace failed (${rc})")
endif()
set(resplit ${WORKDIR}/resplit)
file(MAKE_DIRECTORY ${resplit})
foreach(part gdo0.vcf gdo0.manifest gdo2.vcf gdo2.manifest reference.vcf)
  configure_file(${WORKDIR}/${part} ${resplit}/${part} COPYONLY)
endforeach()
foreach(part gdo1.vcf gdo1.manifest)
  configure_file(${WORKDIR}/wide/${part} ${resplit}/${part} COPYONLY)
endforeach()
foreach(command assess release)
  execute_process(
    COMMAND ${CLI} ${command} ${resplit} --gdos 3 --out ${resplit}/release.tsv
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "${command} with a 135-genome gdo1.vcf exited ${rc}, "
                        "want 1")
  endif()
  if(NOT err MATCHES "gdo1.vcf holds 135 genomes")
    message(FATAL_ERROR "${command} with a 135-genome gdo1.vcf did not name "
                        "the slice: ${err}")
  endif()
endforeach()

# A study of no GDOs has no split: every subcommand refuses it as a usage
# error before touching the workspace.
set(nogdos ${WORKDIR}/nogdos)
file(MAKE_DIRECTORY ${nogdos})
foreach(command gen assess release)
  execute_process(
    COMMAND ${CLI} ${command} ${nogdos} --gdos 0 --out ${nogdos}/release.tsv
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${command} --gdos 0 exited ${rc}, want 2")
  endif()
  if(NOT err MATCHES "a study needs at least one GDO")
    message(FATAL_ERROR "${command} --gdos 0 did not say why: ${err}")
  endif()
endforeach()
