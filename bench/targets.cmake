# Bench targets are defined from the root so that build/bench contains only
# the runnable binaries (the canonical run is `for b in build/bench/*`).
file(GLOB ONDWIN_BENCH_SOURCES CONFIGURE_DEPENDS
  ${CMAKE_SOURCE_DIR}/bench/bench_*.cpp)

foreach(src ${ONDWIN_BENCH_SOURCES})
  get_filename_component(name ${src} NAME_WE)
  add_executable(${name} ${src})
  target_include_directories(${name} PRIVATE ${CMAKE_SOURCE_DIR}/bench)
  target_link_libraries(${name} PRIVATE ondwin benchmark::benchmark)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endforeach()

# Smoke check: the obs tracer must cost <2% on a Fig. 5 layer even when
# enabled (see bench_fig5_layers.cpp). Labeled `obs` — a timing assertion,
# excluded from the sanitizer presets where instrumentation slows
# everything by design (the tsan preset runs only the `tsan` label, the
# asan preset excludes it by name), and RUN_SERIAL so a parallel
# `ctest -j` never times it while other suites share its cores.
add_test(NAME obs_overhead_smoke
  COMMAND bench_fig5_layers --obs-overhead)
set_tests_properties(obs_overhead_smoke PROPERTIES LABELS "obs" TIMEOUT 300
  RUN_SERIAL TRUE)
