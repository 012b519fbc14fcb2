// The `craft` driver: one executable, one verb per tool. Each verb is a
// main()-shaped function receiving the arguments after `craft`, so argv[0]
// is the verb name (skipped by cli::Parser) and argv[1..] its flags. The
// helpers below are the plumbing every verb shares.
#pragma once

#include <cstdio>
#include <string>

#include "support/cli.hpp"

namespace craft::driver {

int Lint(int argc, char** argv);
int Prove(int argc, char** argv);
int Stats(int argc, char** argv);
int Trace(int argc, char** argv);
int Pulse(int argc, char** argv);
int Chaos(int argc, char** argv);
int Cover(int argc, char** argv);
int Farm(int argc, char** argv);

/// Writes `doc` to `path` ("" or "-" = stdout) and checks the stream after
/// the write. On failure prints "<tool>: cannot write <path>" and returns
/// false; verbs then exit 2.
bool WriteDoc(const char* tool, const std::string& path, const std::string& doc);

/// Reads a whole file; false when it cannot be opened.
bool ReadFile(const std::string& path, std::string* out);

/// Opens a heartbeat / progress log: "" = stderr, else `path` with `mode`.
/// Returns null after a "<tool>: cannot write <what> file" diagnostic.
std::FILE* OpenLog(const char* tool, const std::string& path, const char* mode,
                   const char* what);

/// Parses one --parallelism value: a decimal in 1..64, the range the kernel
/// accepts. Anything else is a usage error reported through `p`.
bool ParseParallelism(const cli::Parser& p, const std::string& text,
                      unsigned* out);

}  // namespace craft::driver
