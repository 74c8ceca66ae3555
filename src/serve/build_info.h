// Build identity, surfaced two ways so an operator can always tie a
// running binary (or a crash dump) back to a source revision:
//   * the `fqbert_build_info{version,git_sha,compiler,sanitizer,kernel}` gauge
//     (value 1) on every Prometheus exposition — the standard idiom for
//     joining metrics against deploys;
//   * the flight recorder's crash banner, which prints the same string.
// Values are baked at compile time (FQBERT_GIT_SHA comes from CMake via
// `git rev-parse`), except the kernel target, which the engine picks
// once at startup from the CPU; there is nothing to configure at
// runtime.
#pragma once

#include <string>

namespace fqbert::serve {

/// Release version of this build ("0.9.0").
const char* build_version();

/// Short git SHA the build was configured from ("unknown" outside a
/// checkout).
const char* build_git_sha();

/// Compiler id + version string ("clang 17.0.1", "gcc 13.2.0").
const char* build_compiler();

/// Sanitizer baked into this binary: "address", "thread", or "none".
const char* build_sanitizer();

/// Integer kernel target the engine runs on this CPU: "avx512_vnni",
/// "avx2" or "portable".
const char* build_kernel();

/// One-line summary, identical wording in the crash dump and logs:
///   version=0.9.0 git_sha=abc1234 compiler=gcc 13.2.0 sanitizer=none
///   kernel=avx512_vnni
std::string build_info_string();

}  // namespace fqbert::serve
