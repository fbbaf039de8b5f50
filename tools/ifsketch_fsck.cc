// ifsketch_fsck: offline integrity verification for durable artifacts.
//
//   ifsketch_fsck PATH [PATH ...]
//
// Each PATH is either an IFSK sketch file or a WAL directory (see
// src/ingest/wal.h). Files go through the one parser every load path
// uses (sketch/sketch_view.h), so fsck accepts exactly what a load
// accepts, including the optional CRC32C integrity trailer. Directories
// get the full WAL walk: checkpoint magic/CRC/decodability (the named
// algorithm must exist and accept the saved builder state), segment
// chaining, and every record frame; a torn tail in the last segment is
// recoverable by design and only noted.
//
// Output: one "ok"/note line per healthy artifact to stdout, one
// "path: byte N: reason" line per failure to stderr. Exit 0 when every
// PATH verified, 1 when anything is corrupt, 2 on usage errors --
// scripts can gate a deploy on it.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "ingest/wal.h"
#include "sketch/sketch_file.h"

namespace {

using namespace ifsketch;

int Usage() {
  std::fprintf(stderr,
               "usage: ifsketch_fsck PATH [PATH ...]\n"
               "  PATH  an IFSK sketch file or a WAL directory\n");
  return 2;
}

/// True when the (already fully validated) file ends with the integrity
/// trailer, so the report can say whether corruption would be caught.
bool HasTrailer(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const std::streamoff size = in.tellg();
  if (!in || size < static_cast<std::streamoff>(sketch::arena::kTrailerBytes)) {
    return false;
  }
  char magic[4];
  in.seekg(size - static_cast<std::streamoff>(sketch::arena::kTrailerBytes));
  in.read(magic, 4);
  return in &&
         std::memcmp(magic, sketch::arena::kTrailerMagic, 4) == 0;
}

/// Verification of one sketch file. Returns true when it loads.
bool VerifySketchFile(const std::string& path) {
  sketch::SketchError error;
  const auto file = sketch::LoadSketchFile(path, &error);
  if (!file.has_value()) {
    std::fprintf(stderr, "%s: byte %llu: %s\n", path.c_str(),
                 static_cast<unsigned long long>(error.offset),
                 error.message.c_str());
    return false;
  }
  if (sketch::ResolveAlgorithm(*file) == nullptr) {
    std::fprintf(stderr, "%s: byte 0: unknown producing algorithm \"%s\"\n",
                 path.c_str(), file->algorithm.c_str());
    return false;
  }
  std::printf("%s: ok (v%u, %s, %s, %zu-bit summary)\n", path.c_str(),
              file->version, file->algorithm.c_str(),
              HasTrailer(path) ? "crc32c trailer" : "no checksum",
              file->summary.size());
  return true;
}

bool VerifyWalDirectory(const std::string& path) {
  const ingest::WalFsckReport report = ingest::VerifyWalDir(path);
  for (const auto& note : report.notes) {
    std::printf("%s: note: %s\n", path.c_str(), note.c_str());
  }
  for (const auto& failure : report.failures) {
    std::fprintf(stderr, "%s\n", failure.c_str());
  }
  if (report.ok) std::printf("%s: ok (WAL directory)\n", path.c_str());
  return report.ok;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  bool all_ok = true;
  for (int i = 1; i < argc; ++i) {
    const std::string path = argv[i];
    std::error_code ec;
    const bool is_dir = std::filesystem::is_directory(path, ec);
    if (!(is_dir ? VerifyWalDirectory(path) : VerifySketchFile(path))) {
      all_ok = false;
    }
  }
  return all_ok ? 0 : 1;
}
