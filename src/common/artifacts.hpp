// Shared artifact writing: atomic file replacement + consistent logging.
//
// Every file written for others to read (traces, reports, metrics, tensors,
// checkpoints, models, delta batches) funnels through the one atomic
// replace here, so readers never see a half-written file and every
// "written to" message looks the same, from the CLI, a bench or the
// heartbeat sampler.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>

namespace cstf {

/// Atomically replace `path` with what `write` streams into the sibling
/// temp file `path + ".tmp"`, renamed over `path` once complete. Throws
/// cstf::Error on failure, leaving no file at `path`; the parent
/// directory must exist.
void writeFileAtomic(const std::string& path,
                     const std::function<void(std::ostream&)>& write);

/// The same for a whole string; returns false on failure (callers report).
bool writeFileAtomic(const std::string& path, const std::string& content);

/// writeFileAtomic + one consistent log line to stderr:
///   "<what> written to <path>"  or  "cannot write <what> to <path>".
/// Returns success.
bool writeArtifact(const std::string& path, const std::string& content,
                   const char* what);

}  // namespace cstf
