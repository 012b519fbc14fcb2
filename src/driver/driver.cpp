#include "driver/driver.hpp"

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace craft::driver {

bool WriteDoc(const char* tool, const std::string& path, const std::string& doc) {
  bool ok;
  if (path.empty() || path == "-") {
    ok = std::fputs(doc.c_str(), stdout) >= 0 && std::fflush(stdout) == 0;
  } else {
    std::ofstream out(path, std::ios::binary);
    out << doc;
    out.close();
    ok = static_cast<bool>(out);
  }
  if (!ok)
    std::fprintf(stderr, "%s: cannot write %s\n", tool,
                 path.empty() ? "stdout" : path.c_str());
  return ok;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

std::FILE* OpenLog(const char* tool, const std::string& path, const char* mode,
                   const char* what) {
  if (path.empty()) return stderr;
  std::FILE* f = std::fopen(path.c_str(), mode);
  if (f == nullptr)
    std::fprintf(stderr, "%s: cannot write %s file %s\n", tool, what, path.c_str());
  return f;
}

bool ParseParallelism(const cli::Parser& p, const std::string& text,
                      unsigned* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long v = std::strtoul(text.c_str(), &end, 10);
  if (text.empty() || text[0] < '0' || text[0] > '9' || *end != '\0' ||
      errno != 0 || v < 1 || v > 64) {
    p.UsageError("--parallelism wants 1..64, got '" + text + "'");
    return false;
  }
  *out = static_cast<unsigned>(v);
  return true;
}

}  // namespace craft::driver
