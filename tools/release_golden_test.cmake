# Release golden corpus: generates fixed cohorts, assesses and releases each
# over a grid of federation shapes, and compares SHA-256 digests of every
# release TSV and of the assess phase lines against a committed file. A
# change to any release, on any config of the grid, fails the test.
#
# Inputs: CLI (the gendpr binary), WORKDIR (scratch directory), GOLDEN (the
# digest file). With -DUPDATE=ON the digests are written to GOLDEN instead
# of compared. Regenerate from the repository root after a deliberate
# release change (and say why in the change description):
#
#   cmake -DCLI=build/tools/gendpr -DWORKDIR=build/release_golden \
#         -DGOLDEN=tests/golden/releases.sha256 -DUPDATE=ON \
#         -P tools/release_golden_test.cmake
#
# The cohort has odd sizes, so GDO row ranges do not start on a byte or
# word boundary, and 150 SNPs span three 64-SNP blocks. The LD and power
# thresholds are set so the LR test rejects candidates.
cmake_minimum_required(VERSION 3.16)
file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})

set(cohort_flags --cases 401 --controls 263 --snps 150 --seed 7)
set(study_flags --seed 7 --ld 1e-60 --power 0.2)
set(digests "")

# The transport under test is the one named on the command line, never one
# inherited from the environment.
set(run ${CMAKE_COMMAND} -E env --unset=GENDPR_TRANSPORT ${CLI})

function(generate g)
  file(MAKE_DIRECTORY ${WORKDIR}/c${g})
  execute_process(
    COMMAND ${run} gen ${WORKDIR}/c${g} ${cohort_flags} --gdos ${g}
    RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "gendpr gen --gdos ${g} failed (${rc})")
  endif()
endfunction()

# Assesses and releases cohort c<g> with `flags`; appends the digests of
# the phase lines and of the release TSV under `name`.
function(check name g)
  set(flags ${ARGN})
  execute_process(
    COMMAND ${run} assess ${WORKDIR}/c${g} --gdos ${g} ${study_flags} ${flags}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${name}: gendpr assess failed (${rc}): ${err}")
  endif()
  string(REGEX MATCHALL "phase [^\n]*" phases "${out}")
  if(NOT phases)
    message(FATAL_ERROR "${name}: assess printed no phase lines: ${out}")
  endif()
  string(SHA256 phase_digest "${phases}")

  set(tsv ${WORKDIR}/${name}.tsv)
  execute_process(
    COMMAND ${run} release ${WORKDIR}/c${g} --gdos ${g} ${study_flags}
            ${flags} --out ${tsv}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${name}: gendpr release failed (${rc}): ${err}")
  endif()
  file(SHA256 ${tsv} tsv_digest)

  string(APPEND digests "${phase_digest}  ${name}.phases\n"
                        "${tsv_digest}  ${name}.tsv\n")
  set(digests "${digests}" PARENT_SCOPE)
endfunction()

foreach(g 3 4 5 6)
  generate(${g})
  foreach(f none 1 2 conservative)
    if(f STREQUAL "none")
      set(policy "")
    elseif(f STREQUAL "conservative")
      set(policy --conservative)
    else()
      set(policy --f ${f})
    endif()
    foreach(width default 32)
      if(width STREQUAL "default")
        set(tiling "")
      else()
        set(tiling --tile-width ${width})
      endif()
      foreach(transport in_process epoll)
        check(g${g}_f${f}_w${width}_${transport} ${g}
              ${policy} ${tiling} --transport ${transport})
      endforeach()
    endforeach()
  endforeach()
endforeach()

# Two more FPR/power points, and a G=8 federation over sockets.
check(g3_f1_fpr0.05_power0.15 3 --f 1 --fpr 0.05 --power 0.15)
check(g3_f1_fpr0.3_power0.3 3 --f 1 --fpr 0.3 --power 0.3)
generate(8)
check(g8_f1_epoll 8 --f 1 --transport epoll)

if(UPDATE)
  file(WRITE ${GOLDEN} "${digests}")
  message(STATUS "wrote ${GOLDEN}")
  return()
endif()

file(READ ${GOLDEN} golden)
if(NOT digests STREQUAL golden)
  file(WRITE ${WORKDIR}/releases.sha256 "${digests}")
  string(REPLACE "\n" ";" want "${golden}")
  string(REPLACE "\n" ";" got "${digests}")
  foreach(line IN LISTS got)
    if(line AND NOT line IN_LIST want)
      message(SEND_ERROR "digest differs from the golden corpus: ${line}")
    endif()
  endforeach()
  message(FATAL_ERROR "releases differ from ${GOLDEN} "
                      "(this run's digests: ${WORKDIR}/releases.sha256)")
endif()
