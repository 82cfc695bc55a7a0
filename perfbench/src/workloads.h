// The perfbench workloads. Each builds its inputs from the seed, measures,
// checks its outputs, and returns everything in a RunResult.
#ifndef DRLSTREAM_PERFBENCH_WORKLOADS_H_
#define DRLSTREAM_PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

RunResult RunTrainCqLarge(const Options& options);
RunResult RunServeDecide(const Options& options);
RunResult RunSimTenantsDiurnal(const Options& options);

}  // namespace perfbench

#endif  // DRLSTREAM_PERFBENCH_WORKLOADS_H_
