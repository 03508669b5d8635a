# CTest driver linting the `metrics prom` exposition: drives a short
# workload through `xpathsat_cli --serve`, then checks that every line of
# the exposition block parses as either a `#` comment or a
# `xpathsat_<name>{labels}? <integer>` sample, that the mandatory histogram
# series (+Inf bucket, _sum, _count) and the route family are present, that
# the engine counters behind `stats` are exposed typed `counter`, and that
# the block is terminated by the `# EOF` marker.
#
# When SERVER is also given, the identical workload is replayed against a
# live `xpathsat_server` unix socket through `xpathsat_cli --connect` and
# the exposition must lint identically: the socket layer forwards the
# multi-line block verbatim (the blank-line-inside-a-block splitter bug
# lived exactly here). The socket replay must also carry the server's
# connection counters: monotonic counts typed `counter`, the live count a
# `gauge`.
#
# Invoked as:
#   cmake -DCLI=<xpathsat_cli> [-DSERVER=<xpathsat_server>]
#         -DWORK_DIR=<scratch dir> -P run_metrics_prom_lint.cmake
if(NOT DEFINED CLI OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "usage: cmake -DCLI=... [-DSERVER=...] -DWORK_DIR=... -P run_metrics_prom_lint.cmake")
endif()

file(MAKE_DIRECTORY ${WORK_DIR})
file(WRITE ${WORK_DIR}/lint_a.dtd "root r\nr -> A, B*\nA -> eps\nB -> eps\n")
# Repeat one query so the memo-hit route shows up (the first flush lets the
# first A land in the memo before the repeat, which a parallel engine could
# otherwise run alongside it); flush so every request has been traced before
# the exposition is taken.
file(WRITE ${WORK_DIR}/lint_input.txt
"dtd a lint_a.dtd
query a A
flush
query a B
query a A
flush
metrics prom
quit
")

# Lint one captured transcript: mandatory series (plus any extra needles
# passed after `label`) present, every line of the block parseable, `# EOF`
# terminator seen, sample count sane.
function(lint_exposition text label)
  foreach(needle ${ARGN}
      "# TYPE xpathsat_request_total_ns histogram"
      "_bucket{le=\"+Inf\"}"
      "xpathsat_request_total_ns_sum"
      "xpathsat_request_total_ns_count 3"
      "# TYPE xpathsat_requests_by_route_total counter"
      "{route=\"memo-hit\"} 1"
      "# TYPE xpathsat_memo_hits counter"
      "# TYPE xpathsat_requests counter"
      "# EOF")
    string(FIND "${text}" "${needle}" pos)
    if(pos EQUAL -1)
      message(FATAL_ERROR "${label}: exposition missing '${needle}'\noutput:\n${text}")
    endif()
  endforeach()

  # Line-level lint: from the first exposition line to the `# EOF` marker,
  # every line must be a comment or a `name{labels}? value` sample.
  string(REPLACE "\n" ";" lines "${text}")
  set(in_block FALSE)
  set(saw_eof FALSE)
  set(sample_count 0)
  foreach(line IN LISTS lines)
    if(NOT in_block)
      if(line MATCHES "^# TYPE xpathsat_")
        set(in_block TRUE)
      else()
        continue()
      endif()
    endif()
    if(line STREQUAL "# EOF")
      # Terminator: everything after it is ordinary session output again.
      set(saw_eof TRUE)
      break()
    elseif(line MATCHES "^# (TYPE|HELP) xpathsat_[a-zA-Z0-9_]+")
      # comment line: fine
    elseif(line MATCHES "^xpathsat_[a-zA-Z0-9_]+({[^{}]*})? -?[0-9]+$")
      math(EXPR sample_count "${sample_count} + 1")
    else()
      message(FATAL_ERROR "${label}: unparseable exposition line: '${line}'")
    endif()
  endforeach()
  if(NOT in_block)
    message(FATAL_ERROR "${label}: no exposition block found\noutput:\n${text}")
  endif()
  if(NOT saw_eof)
    message(FATAL_ERROR "${label}: exposition block not terminated by '# EOF'")
  endif()
  if(sample_count LESS 10)
    message(FATAL_ERROR "${label}: suspiciously few samples (${sample_count}) in the exposition")
  endif()
  message(STATUS "metrics prom exposition lint OK: ${label} (${sample_count} samples)")
endfunction()

execute_process(
  COMMAND ${CLI} --serve
  WORKING_DIRECTORY ${WORK_DIR}
  INPUT_FILE ${WORK_DIR}/lint_input.txt
  OUTPUT_VARIABLE serve_out
  ERROR_VARIABLE serve_err
  RESULT_VARIABLE serve_rv)
if(NOT serve_rv EQUAL 0)
  message(FATAL_ERROR "--serve exited with ${serve_rv}\nstdout:\n${serve_out}\nstderr:\n${serve_err}")
endif()
lint_exposition("${serve_out}" "--serve stdin path")

if(DEFINED SERVER)
  # Socket path: a real server on a unix socket, a `--connect` client
  # replaying the same input. bash backgrounds the server, waits for the
  # readiness line, and tears it down after the client drains.
  execute_process(
    COMMAND bash -c "\
set -u; rm -f prom.sock; \
'${SERVER}' --unix prom.sock > prom_server.out 2> prom_server.err & spid=$!; \
for _ in $(seq 1 100); do \
  grep -q 'listening unix' prom_server.out 2>/dev/null && break; \
  kill -0 $spid 2>/dev/null || { cat prom_server.err >&2; exit 70; }; \
  sleep 0.1; \
done; \
'${CLI}' --connect unix:prom.sock < lint_input.txt; rv=$?; \
kill -TERM $spid 2>/dev/null; wait $spid 2>/dev/null; exit $rv"
    WORKING_DIRECTORY ${WORK_DIR}
    OUTPUT_VARIABLE socket_out
    ERROR_VARIABLE socket_err
    RESULT_VARIABLE socket_rv)
  if(NOT socket_rv EQUAL 0)
    message(FATAL_ERROR "socket client exited with ${socket_rv}\nstdout:\n${socket_out}\nstderr:\n${socket_err}")
  endif()
  lint_exposition("${socket_out}" "live socket path"
    "# TYPE xpathsat_connections_accepted counter"
    "# TYPE xpathsat_connections_active gauge")
endif()
