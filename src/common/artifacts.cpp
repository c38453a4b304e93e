#include "common/artifacts.hpp"

#include <cstdio>
#include <fstream>

#include "common/error.hpp"

namespace cstf {

void writeFileAtomic(const std::string& path,
                     const std::function<void(std::ostream&)>& write) {
  // Same-directory temp file so the rename is a same-filesystem atomic
  // replace; a fixed suffix is fine — each file has one writer.
  const std::string tmp = path + ".tmp";
  try {
    std::ofstream out(tmp, std::ios::binary);
    if (!out) throw Error("cannot open " + tmp + " for writing");
    write(out);
    out.close();
    if (!out || std::rename(tmp.c_str(), path.c_str()) != 0) {
      throw Error("cannot write " + path);
    }
  } catch (...) {
    std::remove(tmp.c_str());
    throw;
  }
}

bool writeFileAtomic(const std::string& path, const std::string& content) {
  try {
    writeFileAtomic(path, [&](std::ostream& out) { out << content; });
    return true;
  } catch (const Error&) {
    return false;
  }
}

bool writeArtifact(const std::string& path, const std::string& content,
                   const char* what) {
  if (writeFileAtomic(path, content)) {
    std::fprintf(stderr, "%s written to %s\n", what, path.c_str());
    return true;
  }
  std::fprintf(stderr, "cannot write %s to %s\n", what, path.c_str());
  return false;
}

}  // namespace cstf
