#include "common/host_context.hpp"

#if __has_include(<sys/utsname.h>)
#include <sys/utsname.h>
#endif

#include "common/parallel.hpp"

#ifndef HMEM_BUILD_TYPE
#define HMEM_BUILD_TYPE ""
#endif

namespace hmem {
namespace {

std::string compiler_version() {
#if defined(__clang__)
  return "clang " + std::to_string(__clang_major__) + "." +
         std::to_string(__clang_minor__) + "." +
         std::to_string(__clang_patchlevel__);
#elif defined(__GNUC__)
  return "gcc " + std::to_string(__GNUC__) + "." +
         std::to_string(__GNUC_MINOR__) + "." +
         std::to_string(__GNUC_PATCHLEVEL__);
#else
  return "unknown";
#endif
}

std::string os_kernel_release() {
#if __has_include(<sys/utsname.h>)
  struct utsname name;
  if (uname(&name) == 0) return name.release;
#endif
  return "unknown";
}

/// The values are short identifiers; escaping keeps the record valid JSON
/// whatever a platform reports.
std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

std::string host_context_json() {
  const char* build_type = *HMEM_BUILD_TYPE ? HMEM_BUILD_TYPE : "none";
  return "  \"cores\": " + std::to_string(hardware_jobs()) + ",\n" +
         "  \"build_type\": " + json_string(build_type) + ",\n" +
         "  \"compiler\": " + json_string(compiler_version()) + ",\n" +
         "  \"os_kernel\": " + json_string(os_kernel_release()) + ",\n";
}

}  // namespace hmem
