# CTest driver for `xpathsat_cli --serve`: feeds an interleaved multi-DTD
# request stream (including a mid-stream handle drop, a cancel of an
# already-finished ticket, and every malformed-line shape) through one
# long-lived engine and checks the shared-protocol replies, then exercises
# the numeric-flag validation paths.
#
# Invoked as:
#   cmake -DCLI=<xpathsat_cli> -DWORK_DIR=<scratch dir> -P run_cli_serve_test.cmake
if(NOT DEFINED CLI OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DCLI=... -DWORK_DIR=... -P run_cli_serve_test.cmake")
endif()

file(MAKE_DIRECTORY ${WORK_DIR})
file(WRITE ${WORK_DIR}/serve_a.dtd "root r\nr -> A, B*\nA -> eps\nB -> eps\n")
file(WRITE ${WORK_DIR}/serve_b.dtd
     "root feed\nfeed -> entry*\nentry -> title, (media + eps)\ntitle -> eps\nmedia -> eps\n")
# An oversized request line (> 64 KiB) must answer `err oversized-line`, not
# silently vanish or kill the stream.
string(REPEAT "x" 70000 oversized_payload)
file(WRITE ${WORK_DIR}/serve_input.txt
"# interleaved requests against two schemas through one engine session
dtd a serve_a.dtd
dtd b serve_b.dtd
query a A
query b entry/title
query a C
query b media
query a A
flush
q b entry/title
q b entry/media
drop a
query a A
nonsense-command
query a
cancel not-a-number
cancel 424242
query b ${oversized_payload}
stats
quit
")

execute_process(
  COMMAND ${CLI} --serve
  WORKING_DIRECTORY ${WORK_DIR}
  INPUT_FILE ${WORK_DIR}/serve_input.txt
  OUTPUT_VARIABLE serve_out
  ERROR_VARIABLE serve_err
  RESULT_VARIABLE serve_rv)
if(NOT serve_rv EQUAL 0)
  message(FATAL_ERROR "--serve exited with ${serve_rv}\nstdout:\n${serve_out}\nstderr:\n${serve_err}")
endif()

function(expect_contains needle)
  string(FIND "${serve_out}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "--serve output missing '${needle}'\noutput:\n${serve_out}")
  endif()
endfunction()

expect_contains("ok dtd a fp=")
expect_contains("ok dtd b fp=")
expect_contains("ok query 1")              # submissions are acked with ids
expect_contains("[sat    ] A")              # declared in schema a
expect_contains("[unsat  ] C")              # undeclared in schema a
expect_contains("[sat    ] entry/title")    # schema b
expect_contains("[unsat  ] media")          # not a child of feed's root
expect_contains("[sat    ] entry/media")
expect_contains(" memo")                    # repeat requests hit the memo
expect_contains("ok flush")
expect_contains("ok drop a")
# Malformed input always answers a structured err line and keeps going.
expect_contains("err unknown-dtd 'a'")
expect_contains("err unknown-verb 'nonsense-command'")
expect_contains("err bad-args query: usage: query NAME XPATH")
expect_contains("err bad-args cancel: 'not-a-number' is not a positive ticket id")
expect_contains("err unknown-ticket 424242")
expect_contains("err oversized-line")
# `stats` is one machine-readable JSON line mirroring the --json field names.
expect_contains("stats {\"requests\": 7")
expect_contains("\"live_dtd_handles\": 1")  # b still registered, a dropped
# a's artifact outlives its handle in the DTD cache, next to b's.
expect_contains("\"live_compiled_artifacts\": 2}")
expect_contains("ok quit")

# Numeric-flag validation: garbage and out-of-range values must be usage
# errors (nonzero exit, no run), on every numeric flag.
file(WRITE ${WORK_DIR}/one_query.txt "A\n")
foreach(bad_flags
        "--threads|-3" "--threads|0" "--threads|2x" "--threads|"
        "--repeat|-1" "--repeat|1.5" "--repeat|garbage"
        "--deadline-ms|-5" "--deadline-ms|10ms")
  string(REPLACE "|" ";" bad_args "${bad_flags}")
  execute_process(
    COMMAND ${CLI} --dtd serve_a.dtd --queries one_query.txt ${bad_args}
    WORKING_DIRECTORY ${WORK_DIR}
    OUTPUT_QUIET ERROR_VARIABLE flag_err RESULT_VARIABLE flag_rv)
  if(flag_rv EQUAL 0)
    message(FATAL_ERROR "'${bad_args}' was accepted; expected a usage error")
  endif()
endforeach()

# Sanity: the same command with valid flags succeeds.
execute_process(
  COMMAND ${CLI} --dtd serve_a.dtd --queries one_query.txt
          --threads 2 --repeat 2 --deadline-ms 1000 --quiet
  WORKING_DIRECTORY ${WORK_DIR}
  OUTPUT_QUIET ERROR_VARIABLE ok_err RESULT_VARIABLE ok_rv)
if(NOT ok_rv EQUAL 0)
  message(FATAL_ERROR "valid flags failed (${ok_rv}): ${ok_err}")
endif()

message(STATUS "cli serve stream + protocol errors + flag validation OK")
