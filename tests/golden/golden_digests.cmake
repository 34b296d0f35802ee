# Golden-digest gate: generates a small fixed-seed road dataset and a small
# fixed-seed tweet dataset, runs every `tsgcli check` algorithm under both
# schedules and compares each digest with the committed digests.txt.
#
# Every other digest gate compares one execution mode with another (async
# with BSP, streamed with batch, recovered with fault-free); this one pins
# the results themselves across commits, so an engine refactor that changes
# any answer -- including sssp-vertex's superstep count, which is part of
# its digest -- fails here.
#
#   cmake -DTSGCLI=<tsgcli> -DGOLDEN=<digests.txt> -DWORK_DIR=<scratch dir>
#         [-DUPDATE=ON] -P golden_digests.cmake
#
# UPDATE=ON rewrites digests.txt from the current build instead of checking.

foreach(var TSGCLI GOLDEN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden_digests.cmake: -D${var}= is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(generate name kind workload vertices timesteps)
  execute_process(
    COMMAND "${TSGCLI}" generate "--out=${WORK_DIR}/${name}" "--kind=${kind}"
            "--workload=${workload}" "--vertices=${vertices}"
            "--timesteps=${timesteps}" --partitions=3 --seed=2015
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "generate ${name} failed (${rc}): ${err}")
  endif()
endfunction()

generate(road road road 400 8)
generate(social social tweet 300 6)

set(road_algos tdsp sssp pagerank wcc tdsp-vertex sssp-vertex)
set(social_algos meme hashtag topn)

set(actual "")
foreach(dataset road social)
  foreach(algo IN LISTS ${dataset}_algos)
    foreach(schedule bsp async)
      execute_process(
        COMMAND "${TSGCLI}" check "${algo}" "${WORK_DIR}/${dataset}"
                --runs=1 "--schedule=${schedule}"
        RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
      if(NOT rc EQUAL 0)
        message(FATAL_ERROR
          "check ${algo} --schedule=${schedule} failed (${rc}):\n${out}${err}")
      endif()
      if(NOT out MATCHES "digest ([0-9a-f]+)")
        message(FATAL_ERROR "no digest in check ${algo} output:\n${out}")
      endif()
      string(APPEND actual "${algo} ${schedule} ${CMAKE_MATCH_1}\n")
    endforeach()
  endforeach()
endforeach()

if(UPDATE)
  file(WRITE "${GOLDEN}" "${actual}")
  message(STATUS "wrote ${GOLDEN}")
  return()
endif()

file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR
    "digests differ from ${GOLDEN}\nexpected:\n${expected}actual:\n${actual}")
endif()
message(STATUS "all 18 digests match ${GOLDEN}")
