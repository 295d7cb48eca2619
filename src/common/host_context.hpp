// The host a benchmark record was measured on. Every BENCH_*.json writer
// emits these fields so that numbers from different core counts, build
// types, compilers or OS kernels never share a trend context
// (tools/bench_trend.py keys its contexts on them).
#pragma once

#include <string>

namespace hmem {

/// The host context as top-level JSON members, two-space indented, each
/// line ending in ",\n" — splice it into a bench record before its last
/// member:
///   "cores":      hardware_jobs(), the usable hardware threads
///   "build_type": the CMake build type libhmem was compiled as
///   "compiler":   compiler family and version, e.g. "gcc 12.2.0"
///   "os_kernel":  the OS kernel release (uname -r)
std::string host_context_json();

}  // namespace hmem
