# Golden-digest gate: generates a small fixed-seed road dataset and a small
# fixed-seed tweet dataset, runs every `tsgcli check` algorithm under both
# schedules and compares each digest with the committed digests.txt. It
# also runs each (algorithm, schedule) pair as `tsgcli ALGO DIR` and
# compares the work counts of its `run:` line (supersteps, delivered
# messages and bytes, cross-partition messages and bytes) with the
# committed counts.txt: seeded runs reproduce them exactly, so any change
# in the work an algorithm does fails here.
#
# Every other digest gate compares one execution mode with another (async
# with BSP, streamed with batch, recovered with fault-free); this one pins
# the results themselves across commits, so an engine refactor that changes
# any answer -- including sssp-vertex's superstep count, which is part of
# its digest -- fails here.
#
#   cmake -DTSGCLI=<tsgcli> -DGOLDEN=<digests.txt> -DCOUNTS=<counts.txt>
#         -DWORK_DIR=<scratch dir> [-DUPDATE=ON] -P golden_digests.cmake
#
# UPDATE=ON rewrites digests.txt and counts.txt from the current build
# instead of checking.
#
# Outside UPDATE mode it also checks that a checkpointed `check tdsp` run
# with a worker killed mid-run recovers to the committed digest under both
# schedules, that an algorithm without a timestep loop (sssp-vertex) is
# refused by `stream` but runs batch under `check --stream`, that
# `analyze --attrib` shows each partition's residency, rejects a
# malformed attribution block or one of another schema version with exit 2
# (plain `analyze` still reads such a run) and prints one line for a
# hot-vertex list that separates no vertex from the sketch's error,
# that `analyze` renders the measured wait blame of a run recorded without
# the profiler, that an out-of-range value of any numeric flag exits 2
# naming the flag, that `top` prints frames, the committed digest and the
# timeline it was asked for, that an output (--json=, --trace=, --timeline=,
# --prom=) that cannot be written exits 1, and that a malformed TSG_INJECT
# or TSG_INJECT_SEED exits 2 naming the value.

foreach(var TSGCLI GOLDEN COUNTS WORK_DIR)
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

      execute_process(
        COMMAND "${TSGCLI}" "${algo}" "${WORK_DIR}/${dataset}"
                "--schedule=${schedule}"
        RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
      if(NOT rc EQUAL 0)
        message(FATAL_ERROR
          "${algo} --schedule=${schedule} failed (${rc}):\n${out}${err}")
      endif()
      if(NOT out MATCHES "run: [^\n]*(supersteps=[0-9]+ messages=[0-9]+ bytes=[0-9]+ xpart_messages=[0-9]+ xpart_bytes=[0-9]+)")
        message(FATAL_ERROR "no work counts in ${algo} output:\n${out}")
      endif()
      string(APPEND actual_counts "${algo} ${schedule} ${CMAKE_MATCH_1}\n")
    endforeach()
  endforeach()
endforeach()

if(UPDATE)
  file(WRITE "${GOLDEN}" "${actual}")
  file(WRITE "${COUNTS}" "${actual_counts}")
  message(STATUS "wrote ${GOLDEN} and ${COUNTS}")
  return()
endif()

file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR
    "digests differ from ${GOLDEN}\nexpected:\n${expected}actual:\n${actual}")
endif()
message(STATUS "all 18 digests match ${GOLDEN}")
file(READ "${COUNTS}" expected_counts)
if(NOT actual_counts STREQUAL expected_counts)
  message(FATAL_ERROR
    "work counts differ from ${COUNTS}\nexpected:\n${expected_counts}"
    "actual:\n${actual_counts}")
endif()
message(STATUS "all 18 work-count lines match ${COUNTS}")

# Runs `tsgcli check ARGN` and requires exit 0 and the committed
# `<algo> <schedule>` digest; the combined stderr lands in `err_out`.
function(expect_golden_check algo schedule err_out)
  execute_process(
    COMMAND "${TSGCLI}" check "${algo}" "${WORK_DIR}/road" ${ARGN}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "check ${algo} ${ARGN} failed (${rc}):\n${out}${err}")
  endif()
  if(NOT expected MATCHES "${algo} ${schedule} ([0-9a-f]+)")
    message(FATAL_ERROR "no committed ${algo} ${schedule} digest")
  endif()
  set(want "${CMAKE_MATCH_1}")
  if(NOT out MATCHES "digest ${want}")
    message(FATAL_ERROR
      "check ${algo} ${ARGN} did not reproduce ${want}:\n${out}")
  endif()
  set(${err_out} "${err}" PARENT_SCOPE)
endfunction()

foreach(schedule bsp async)
  expect_golden_check(tdsp ${schedule} err --runs=2 "--schedule=${schedule}"
    "--checkpoint=${WORK_DIR}/ckpt_${schedule}"
    --inject=kill@compute:p1:t2)
  if(NOT err MATCHES "firing kill@compute")
    message(FATAL_ERROR
      "check tdsp --schedule=${schedule}: the injected fault never fired:\n"
      "${err}")
  endif()
endforeach()
message(STATUS "faulted tdsp runs recover to the committed digests")

execute_process(
  COMMAND "${TSGCLI}" stream sssp-vertex "${WORK_DIR}/road"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "stream sssp-vertex exited ${rc}, expected 2")
endif()
expect_golden_check(sssp-vertex bsp err --runs=1 --stream)
message(STATUS "sssp-vertex: stream refused, check --stream runs batch")

# A run whose attribution block claims more rows than it holds must end in
# a clean error naming the field (exit 2), not a crash in the report.
execute_process(
  COMMAND "${TSGCLI}" meme "${WORK_DIR}/social" --profile=64
          "--json=${WORK_DIR}/profiled.json"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "profiled meme run failed (${rc}): ${err}")
endif()
# Its report shows each partition's residency, read from the run's
# gofs.resident_bytes gauge.
execute_process(
  COMMAND "${TSGCLI}" analyze "${WORK_DIR}/profiled.json" --attrib
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR
   NOT out MATCHES "resident attribute bytes per partition")
  message(FATAL_ERROR
    "analyze --attrib exited ${rc} without the partition residency:\n"
    "${out}${err}")
endif()
file(READ "${WORK_DIR}/profiled.json" doc)
string(JSON rows GET "${doc}" attribution num_rows)
math(EXPR rows "${rows} + 5")
string(JSON doc SET "${doc}" attribution num_rows "${rows}")
file(WRITE "${WORK_DIR}/malformed.json" "${doc}")
execute_process(
  COMMAND "${TSGCLI}" analyze "${WORK_DIR}/malformed.json" --attrib
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "num_rows")
  message(FATAL_ERROR
    "analyze --attrib on a malformed attribution block exited ${rc}, "
    "expected 2 naming num_rows:\n${err}")
endif()
message(STATUS "analyze --attrib rejects a malformed attribution block")

# An attribution block of another schema version (a profiled run from an
# older build) fails only the report that reads it: plain `analyze` still
# renders the run, `analyze --attrib` exits 2 naming the version.
file(READ "${WORK_DIR}/profiled.json" doc)
string(JSON doc SET "${doc}" attribution schema_version 2)
file(WRITE "${WORK_DIR}/old_attrib.json" "${doc}")
execute_process(
  COMMAND "${TSGCLI}" analyze "${WORK_DIR}/old_attrib.json"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT out MATCHES "dominant straggler")
  message(FATAL_ERROR
    "analyze on a run with an old attribution block exited ${rc}:\n"
    "${out}${err}")
endif()
execute_process(
  COMMAND "${TSGCLI}" analyze "${WORK_DIR}/old_attrib.json" --attrib
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "schema_version 2")
  message(FATAL_ERROR
    "analyze --attrib on an old attribution block exited ${rc}, expected 2 "
    "naming schema_version 2:\n${err}")
endif()
message(STATUS "an old attribution block fails only analyze --attrib")

# A hot-vertex list whose lower bounds (weight - error) all stay within its
# largest error separates nothing and is reported as one line; a list with
# a clear leader prints its rows.
file(READ "${WORK_DIR}/profiled.json" doc)
string(JSON doc SET "${doc}" attribution hot_compute
  [=[[{"vertex":1,"partition":0,"weight":100,"error":99},
      {"vertex":2,"partition":1,"weight":90,"error":80},
      {"vertex":3,"partition":2,"weight":85,"error":85}]]=])
string(JSON doc SET "${doc}" attribution hot_fanout
  [=[[{"vertex":7,"partition":0,"weight":1000,"error":0},
      {"vertex":8,"partition":1,"weight":10,"error":9}]]=])
file(WRITE "${WORK_DIR}/hot.json" "${doc}")
execute_process(
  COMMAND "${TSGCLI}" analyze "${WORK_DIR}/hot.json" --attrib
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR
   NOT out MATCHES "hot vertices: compute ns: the sketch separated no vertex"
   OR out MATCHES "hot vertices: compute ns \\(space-saving"
   OR NOT out MATCHES "hot vertices: message fan-out \\(space-saving")
  message(FATAL_ERROR
    "analyze --attrib did not collapse a noise-only hot list:\n${out}${err}")
endif()
message(STATUS "analyze --attrib collapses a hot list that separates nothing")

# A run recorded without the profiler still carries its measured wait
# blame, and `analyze` leads with it.
execute_process(
  COMMAND "${TSGCLI}" tdsp "${WORK_DIR}/road" "--json=${WORK_DIR}/plain.json"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "tdsp --json run failed (${rc}): ${err}")
endif()
execute_process(
  COMMAND "${TSGCLI}" analyze "${WORK_DIR}/plain.json"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT out MATCHES "measured wait blame" OR
   NOT out MATCHES "dominant straggler: ")
  message(FATAL_ERROR
    "analyze of an unprofiled run exited ${rc} without the measured wait "
    "blame:\n${out}${err}")
endif()
message(STATUS "analyze leads with the measured wait blame")

# Every numeric flag is range-checked: an out-of-range value exits 2
# naming the flag instead of silently running with a negative, wrapped or
# truncated setting, and before any work starts. The bare --profile still
# arms the profiler.
function(expect_flag_rejected flag)
  execute_process(
    COMMAND "${TSGCLI}" ${ARGN} "${flag}"
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "${flag} is out of range")
    message(FATAL_ERROR
      "${ARGN} ${flag} exited ${rc}, expected 2 naming the flag:\n${err}")
  endif()
endfunction()
foreach(flag --profile=0 --profile=-5 --profile-sample=0 --profile-sample=-3
        --profile-sample=4294967297 --prom-port=99999 --prom-port=-1
        --sample-ms=-5 --sample-ms=0)
  expect_flag_rejected(${flag} meme "${WORK_DIR}/social")
endforeach()
expect_flag_rejected(--inject-seed=-1 meme "${WORK_DIR}/social"
  --inject=delay@compute:p1:t1:d1)
foreach(flag --vertices=-1 --vertices=0 --timesteps=0 --timesteps=-1
        --partitions=0 --partitions=1025 --packing=0 --packing=4294967297
        --seed=-1)
  expect_flag_rejected(${flag} generate "--out=${WORK_DIR}/rejected")
endforeach()
if(EXISTS "${WORK_DIR}/rejected")
  message(FATAL_ERROR "a rejected generate wrote ${WORK_DIR}/rejected")
endif()
foreach(flag --runs=0 --runs=-2 --seed=-1)
  expect_flag_rejected(${flag} check meme "${WORK_DIR}/social")
endforeach()
foreach(flag --queue=0 --max-staged=-1)
  expect_flag_rejected(${flag} stream meme "${WORK_DIR}/social")
endforeach()
foreach(flag --refresh-ms=-1 --sample-ms=-1)
  expect_flag_rejected(${flag} top meme "${WORK_DIR}/social")
endforeach()
execute_process(
  COMMAND "${TSGCLI}" meme "${WORK_DIR}/social" --profile
          "--json=${WORK_DIR}/profiled_bare.json"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "meme --profile failed (${rc}): ${err}")
endif()
file(READ "${WORK_DIR}/profiled_bare.json" doc)
string(JSON rows GET "${doc}" attribution num_rows)
message(STATUS "out-of-range numeric flags exit 2; bare --profile arms it")

# `top` is a run command like the others: on a non-tty it prints its frames
# as text, ends with the committed digest of the plain run, and honours the
# telemetry flags -- here --timeline=, whose file `analyze` must render.
execute_process(
  COMMAND "${TSGCLI}" top meme "${WORK_DIR}/social" --refresh-ms=5
          "--timeline=${WORK_DIR}/top_timeline.json"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT out MATCHES "tsgcli top [^\n]* meme")
  message(FATAL_ERROR "top meme exited ${rc} without a frame:\n${out}${err}")
endif()
if(NOT expected MATCHES "meme bsp ([0-9a-f]+)")
  message(FATAL_ERROR "no committed meme bsp digest")
endif()
if(NOT out MATCHES "digest ${CMAKE_MATCH_1}\n")
  message(FATAL_ERROR
    "top meme did not end with the meme digest ${CMAKE_MATCH_1}:\n${out}")
endif()
execute_process(
  COMMAND "${TSGCLI}" analyze "--timeline=${WORK_DIR}/top_timeline.json"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT out MATCHES "Timeline \\(top\\): [1-9][0-9]* samples")
  message(FATAL_ERROR
    "analyze could not render top's --timeline= (${rc}):\n${out}${err}")
endif()
message(STATUS "top prints frames, the meme digest and its --timeline=")

# An output the command was asked to write but cannot (a path component is
# a regular file) fails the command with exit 1 naming the path.
file(WRITE "${WORK_DIR}/not_a_dir" "")
foreach(flag json trace timeline prom)
  execute_process(
    COMMAND "${TSGCLI}" tdsp "${WORK_DIR}/road"
            "--${flag}=${WORK_DIR}/not_a_dir/out"
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 1 OR NOT err MATCHES "not_a_dir/out")
    message(FATAL_ERROR
      "tdsp --${flag}= into a regular file exited ${rc}, expected 1 naming "
      "the path:\n${err}")
  endif()
endforeach()
message(STATUS "an unwritable --json/--trace/--timeline/--prom exits 1")

# The environment's fault plan gets the same validation as --inject: a
# typo is a usage error (exit 2 naming the bad value), not an abort, and
# never a silent fault-free run or a silently replaced seed.
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env TSG_INJECT=garbage
          "${TSGCLI}" topn "${WORK_DIR}/social"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "TSG_INJECT: bad fault plan 'garbage'")
  message(FATAL_ERROR
    "TSG_INJECT=garbage topn exited ${rc}, expected 2 naming the plan:\n"
    "${err}")
endif()
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E env TSG_INJECT=kill@compute:p1:t2
          TSG_INJECT_SEED=abc "${TSGCLI}" topn "${WORK_DIR}/social"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "TSG_INJECT_SEED: not an integer: 'abc'")
  message(FATAL_ERROR
    "TSG_INJECT_SEED=abc topn exited ${rc}, expected 2 naming the seed:\n"
    "${err}")
endif()
message(STATUS "a malformed TSG_INJECT or TSG_INJECT_SEED exits 2")
