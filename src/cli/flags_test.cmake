# --steiner selects the solver; --threads reaches the fallback ladder;
# out-of-range deadlines and sweep steps, and flag combinations that would
# parse and then do nothing, are usage errors (exit 2).
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

# --level is 1 or 2, and only with the recursive greedy solver.
expect_usage_error("--level expects 1 or 2, got 0"
                   run ${trace} --deadline 1500 --level 0)
expect_usage_error("--level expects 1 or 2, got 2.5"
                   run ${trace} --deadline 1500 --level 2.5)
expect_usage_error("--level expects 1 or 2, got 3"
                   run ${trace} --deadline 1500 --level 3)
expect_usage_error("--level applies to --steiner greedy only"
                   run ${trace} --deadline 1500 --steiner spt --level 7)
# --solver-budget-ms runs the EEDCB/FR-EEDCB ladder, never another
# algorithm, and never beside the governed batch's own budget.
expect_usage_error("--solver-budget-ms applies to --algorithm EEDCB or FR-EEDCB"
                   run ${trace} --deadline 1500 --algorithm GREED
                   --solver-budget-ms 0)
expect_usage_error("--solver-budget-ms does not combine with the governance"
                   run ${trace} --deadline 1500 --solver-budget-ms 100
                   --request-budget-ms 100)
expect_usage_error("--solver-budget-ms expects a non-negative number, got -5"
                   run ${trace} --deadline 1500 --solver-budget-ms -5)
# The ED-weight table is always on and unbounded: neither cache flag exists.
foreach(cmd run sweep)
  expect_usage_error("unknown option --no-cache"
                     ${cmd} ${trace} --no-cache)
  expect_usage_error("unknown option --cache-budget-mb"
                     ${cmd} ${trace} --cache-budget-mb 1)
endforeach()

# The ladder runs with the workbench's scheduler options, so --threads
# reaches its pooled aux-graph DCS precompute; the same run without
# --threads fills the DCS serially and exports the counter as 0.
foreach(threads 2 0)
  set(flags --threads ${threads})
  if(threads EQUAL 0)
    set(flags)
  endif()
  execute_process(
    COMMAND ${TMEDB} run ${trace} --source 0 --deadline 1500 --trials 10
            ${flags} --solver-budget-ms 600000
            --metrics-out ${WORKDIR}/flags_ladder_metrics_${threads}.json
    RESULT_VARIABLE rc OUTPUT_VARIABLE out)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "run ${flags} --solver-budget-ms failed: ${rc}")
  endif()
  if(NOT out MATCHES "solver rung: +eedcb")
    message(FATAL_ERROR "the ladder did not finish on EEDCB: ${out}")
  endif()
  file(READ ${WORKDIR}/flags_ladder_metrics_${threads}.json doc)
  string(JSON tasks GET "${doc}" metrics counters tveg.parallel.aux_dcs_tasks)
  if(threads EQUAL 0 AND NOT tasks EQUAL 0)
    message(FATAL_ERROR
            "a run without --threads used the pool: aux_dcs_tasks=${tasks}")
  elseif(threads GREATER 0 AND NOT tasks GREATER 0)
    message(FATAL_ERROR
            "--threads did not reach the ladder: aux_dcs_tasks=${tasks}")
  endif()
endforeach()
