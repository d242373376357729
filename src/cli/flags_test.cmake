# --steiner selects the solver; out-of-range deadlines and sweep steps are
# usage errors (exit 2).
set(trace ${DATA}/waypoint_n12.trace)  # horizon 1800 s

# spt and greedy must produce different schedules on this instance, and the
# default must be greedy (recursive greedy, level 2).
foreach(steiner spt greedy default)
  set(flags --steiner ${steiner})
  if(steiner STREQUAL "default")
    set(flags)
  endif()
  execute_process(
    COMMAND ${TMEDB} run ${trace} --source 0 --deadline 1500 --trials 10
            ${flags} --save-schedule ${WORKDIR}/flags_${steiner}.sched
    RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "run --steiner ${steiner} failed: ${rc}")
  endif()
endforeach()
file(READ ${WORKDIR}/flags_spt.sched spt)
file(READ ${WORKDIR}/flags_greedy.sched greedy)
file(READ ${WORKDIR}/flags_default.sched default)
if(spt STREQUAL greedy)
  message(FATAL_ERROR "--steiner spt and greedy gave the same schedule")
endif()
if(NOT default STREQUAL greedy)
  message(FATAL_ERROR "the default solver is not --steiner greedy")
endif()

# Each bad invocation must exit 2 with its error on stderr.
function(expect_usage_error pattern)
  execute_process(COMMAND ${TMEDB} ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "'${ARGN}' exited ${rc}, expected 2")
  endif()
  if(NOT err MATCHES "${pattern}")
    message(FATAL_ERROR "'${ARGN}' stderr lacks '${pattern}': ${err}")
  endif()
endfunction()

expect_usage_error("--steiner expects greedy or spt, got 'bogus'"
                   run ${trace} --deadline 1500 --steiner bogus)
expect_usage_error("--deadline expects a time in \\(0, 1800\\]"
                   run ${trace})
expect_usage_error("--deadline expects a time in \\(0, 1800\\]"
                   run ${trace} --deadline 0)
expect_usage_error("--to expects a time in \\(0, 1800\\]"
                   sweep ${trace} --from 500 --to 5000)
expect_usage_error("--from expects a time in \\(0, 1800\\]"
                   sweep ${trace} --from -1 --to 1000)
expect_usage_error("--step expects a positive time, got 0"
                   sweep ${trace} --from 500 --to 1000 --step 0)
expect_usage_error("--deadline expects a time in \\(0, 1800\\]"
                   evaluate ${trace} ${WORKDIR}/flags_greedy.sched
                   --deadline 1801)
