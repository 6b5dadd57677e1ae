// Thread pinning. Pinning follows the paper's order: one thread per core on
// socket 0, then that socket's hyperthreads, then socket 1; machines without
// that topology fall back to round-robin over the available CPUs (logged
// once, structured).
#pragma once

namespace montage::util {

/// Pin the calling thread to the CPU chosen for logical bench thread `tid`.
/// Returns false (and leaves affinity untouched) if pinning is unsupported.
bool pin_thread(int tid);

/// Number of CPUs usable by this process.
int cpu_count();

}  // namespace montage::util
