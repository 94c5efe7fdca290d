// The machine's speed at the moment of a run, measured with a fixed kernel
// of the benchmark's own: no slmob code, so a change to the library never
// moves it. It sorts, hashes, allocates, chases pointers through a 16 MiB
// table and tests distances on `threads` threads at once: the kinds of work
// the pipeline does.
// On a shared VM its time moves with the host's load the way the
// pipeline's does; perfbench/README.md gives the measured correlation.
#pragma once

#include <cstddef>

namespace perfbench {

// Passes per calibration process; run.py runs one such process before and
// one after each pipeline.
inline constexpr int kCalibrationPasses = 5;

// Runs the kernel on `threads` threads at once (each does the same fixed
// work) and returns the mean of their CPU times, in seconds. CPU time, not
// wall time: a thread that waits for a core does not count, so the figure
// is the speed of a core while it runs, which is what drifts.
double calibration_pass(std::size_t threads);

}  // namespace perfbench
