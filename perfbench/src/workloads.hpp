// One entry point per workload; each returns the metrics its run measured.
#pragma once

#include "common.hpp"

namespace perfbench {

Result run_queue(const Args& args);
Result run_kv(const Args& args);
Result run_server(const Args& args);

}  // namespace perfbench
