# Stable-name guard for the discovered test list: runs
#   ${CTEST} -N
# over the build tree BUILD_DIR and fails when any test name embeds a raw
# byte dump of its parameter (`N-byte object <..>`). GoogleTest prints a
# parameter struct without a PrintTo/operator<< that way; the bytes include
# pointers, so such names change from build to build and `ctest -R` or a
# recorded test list cannot name them. Give the parameter struct a PrintTo
# that prints its case name or fields.
#
# Required -D vars: CTEST, BUILD_DIR.
foreach(var CTEST BUILD_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "run_ctest_names_lint.cmake: -D${var}=... is required")
  endif()
endforeach()

execute_process(
  COMMAND ${CTEST} -N
  WORKING_DIRECTORY ${BUILD_DIR}
  OUTPUT_VARIABLE listing
  ERROR_VARIABLE listing_stderr
  RESULT_VARIABLE listing_exit)

if(NOT listing_exit EQUAL 0)
  message(FATAL_ERROR
    "ctest -N failed (exit ${listing_exit}) in ${BUILD_DIR}:\n"
    "${listing_stderr}")
endif()
if(NOT listing MATCHES "Total Tests: [1-9]")
  message(FATAL_ERROR "ctest -N listed no tests in ${BUILD_DIR}")
endif()

string(REGEX MATCHALL "[^\n]*-byte object <[^\n]*" unstable "${listing}")
list(LENGTH unstable unstable_count)
if(unstable_count GREATER 0)
  list(GET unstable 0 first)
  message(FATAL_ERROR
    "${unstable_count} test name(s) embed a parameter's raw bytes, e.g.\n"
    "${first}\n"
    "give that parameter struct a PrintTo(const T&, std::ostream*)")
endif()
message(STATUS "every discovered test name is build-independent")
