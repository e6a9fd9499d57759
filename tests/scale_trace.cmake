# Runs a one-point `bench_flow --scale` sweep with MINPOWER_TRACE set and
# checks that the merged trace exists, profiles, carries the supervisor and
# worker lanes, and holds the worker's activity spans.
#   cmake -DBENCH=<bench_flow> -DCLI=<minpower> -DDIR=<scratch dir>
#         -P scale_trace.cmake
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
set(trace "${DIR}/scale.trace.json")
set(ENV{MINPOWER_TRACE} "${trace}")
execute_process(
  COMMAND "${BENCH}" --scale chain:20:20:1 --seed 1 "${DIR}/traj.jsonl"
  RESULT_VARIABLE rc)
unset(ENV{MINPOWER_TRACE})
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "bench_flow --scale exited with ${rc}")
endif()
if(NOT EXISTS "${trace}")
  message(FATAL_ERROR "bench_flow --scale wrote no trace to ${trace}")
endif()
execute_process(
  COMMAND "${CLI}" profile "${trace}" --json "${DIR}/profile.json"
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "minpower profile exited with ${rc}")
endif()
file(READ "${DIR}/profile.json" doc)
string(JSON processes GET "${doc}" num_processes)
if(processes LESS 2)
  message(FATAL_ERROR "trace has ${processes} process lane(s), want "
                      "supervisor + worker")
endif()
string(JSON phases LENGTH "${doc}" phases)
set(found_activity FALSE)
math(EXPR last "${phases} - 1")
foreach(i RANGE ${last})
  string(JSON name GET "${doc}" phases ${i} name)
  if(name STREQUAL "activity")
    set(found_activity TRUE)
  endif()
endforeach()
if(NOT found_activity)
  message(FATAL_ERROR "trace holds no activity span")
endif()
