// Crash-safe file primitives shared by the bench writers and the run
// records (run records, trace, flight dumps).
//
// Two guarantees matter for long benches that may be killed at any point:
//
//   * atomicWriteFile: a reader never observes a half-written file. The
//     content goes to a unique temp file in the same directory, is flushed,
//     and is rename(2)d over the target — atomic on POSIX filesystems. A
//     kill mid-write leaves either the old file or a stray .tmp, never a
//     torn target.
//
//   * appendLine: a whole line lands in the file with ONE O_APPEND write,
//     so two processes appending to the same log (the run-history store
//     from concurrently running benches) interleave line-by-line, never
//     byte-by-byte. POSIX guarantees atomicity of O_APPEND writes well
//     beyond any record we emit.
#pragma once

#include <string>
#include <string_view>

#include "util/status.hpp"

namespace sca::util {

/// Writes `content` to `path` via temp-file + rename. Creates parent
/// directories if missing. Returns kInternal with errno detail on failure;
/// the target is untouched unless the whole write succeeded.
[[nodiscard]] Status atomicWriteFile(const std::string& path,
                                     std::string_view content);

/// Appends `line` (a trailing '\n' is added if absent) to `path` with a
/// single O_APPEND write. Creates the file (and parent directories) if
/// missing. Safe against concurrent appenders in other processes.
[[nodiscard]] Status appendLine(const std::string& path,
                                std::string_view line);

/// Reads a whole file. kDataLoss if it does not exist or cannot be read.
[[nodiscard]] Result<std::string> readFile(const std::string& path);

}  // namespace sca::util
