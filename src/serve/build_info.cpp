#include "serve/build_info.h"

#include "core/int_kernels.h"

namespace fqbert::serve {

#ifndef FQBERT_VERSION
#define FQBERT_VERSION "0.9.0"
#endif

#ifndef FQBERT_GIT_SHA
#define FQBERT_GIT_SHA "unknown"
#endif

const char* build_version() { return FQBERT_VERSION; }

const char* build_git_sha() { return FQBERT_GIT_SHA; }

const char* build_compiler() {
#if defined(__clang_major__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

const char* build_sanitizer() {
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
  return "address";
#elif __has_feature(thread_sanitizer)
  return "thread";
#endif
#endif
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#else
  return "none";
#endif
}

const char* build_kernel() { return core::kernel_name(); }

std::string build_info_string() {
  std::string out;
  out += "version=";
  out += build_version();
  out += " git_sha=";
  out += build_git_sha();
  out += " compiler=";
  out += build_compiler();
  out += " sanitizer=";
  out += build_sanitizer();
  out += " kernel=";
  out += build_kernel();
  return out;
}

}  // namespace fqbert::serve
