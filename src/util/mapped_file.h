// Read-only whole-file memory mapping with a portable fallback.
//
// The zero-copy sketch load path (sketch/sketch_view.h) wants a file's
// bytes addressable in place so validated views -- not copies -- can be
// handed to the query kernels, and so the same physical pages are shared
// by every process serving the file. MappedFile is that primitive: an
// RAII mmap(PROT_READ, MAP_SHARED) of the whole file on POSIX, released
// by munmap when the last shared_ptr owner goes away. Where mmap is
// unavailable (non-POSIX builds, or a filesystem that refuses to map) it
// falls back to reading the whole file into one 64-byte-aligned heap
// buffer -- callers see identical bytes and alignment either way, only
// is_mapped() differs. FromBytes makes the same kind of owned aligned
// image from bytes already in memory (a stream's contents, a fuzzer
// input), so every parse runs over a MappedFile.
//
// Alignment guarantee: data() is at least 64-byte aligned on both paths
// (mmap returns page-aligned addresses; the fallback allocates aligned
// storage), so any file region whose offset is a multiple of 64 can be
// reinterpreted as aligned std::uint64_t words.
//
// The mapping is immutable and the object carries no hidden state, so
// one MappedFile may be shared freely across threads.
#ifndef IFSKETCH_UTIL_MAPPED_FILE_H_
#define IFSKETCH_UTIL_MAPPED_FILE_H_

#include <cstddef>
#include <memory>
#include <string>

namespace ifsketch::util {

/// An immutable byte image of a file, mmap-backed when possible.
class MappedFile {
 public:
  /// Maps (or, failing that, reads) the file at `path`. Returns nullptr
  /// on any I/O failure, with a one-line description in *error when
  /// provided. Empty files yield a valid object with size() == 0.
  static std::shared_ptr<const MappedFile> Open(const std::string& path,
                                                std::string* error = nullptr);

  /// Reads the file into an owned aligned buffer, never mmap -- the
  /// fallback path, callable directly for tests and diagnostics.
  static std::shared_ptr<const MappedFile> OpenBuffered(
      const std::string& path, std::string* error = nullptr);

  /// An owned, 64-byte-aligned copy of `size` bytes at `data`: the image
  /// for bytes that did not come from a file (a stream, a fuzzer input,
  /// a test's mutant). is_mapped() is false.
  static std::shared_ptr<const MappedFile> FromBytes(const void* data,
                                                     std::size_t size);

  ~MappedFile();

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// First byte of the image; 64-byte aligned; null iff size() == 0.
  const unsigned char* data() const { return data_; }
  std::size_t size() const { return size_; }

  /// True when the bytes live in an mmap (page cache), false when they
  /// were copied into a private heap buffer by the fallback.
  bool is_mapped() const { return mapped_; }

 private:
  MappedFile() = default;

  const unsigned char* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;
  void* map_base_ = nullptr;        // munmap handle (mmap path)
  unsigned char* buffer_ = nullptr; // owned storage (fallback path)
};

}  // namespace ifsketch::util

#endif  // IFSKETCH_UTIL_MAPPED_FILE_H_
