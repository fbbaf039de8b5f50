#include "util/mapped_file.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <new>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#define IFSKETCH_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace ifsketch::util {
namespace {

constexpr std::size_t kAlignment = 64;

void SetError(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
}

}  // namespace

MappedFile::~MappedFile() {
#if IFSKETCH_HAVE_MMAP
  if (map_base_ != nullptr) munmap(map_base_, size_);
#endif
  ::operator delete[](buffer_, std::align_val_t{kAlignment});
}

std::shared_ptr<const MappedFile> MappedFile::Open(const std::string& path,
                                                  std::string* error) {
#if IFSKETCH_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    SetError(error, path + ": " + std::strerror(errno));
    return nullptr;
  }
  struct stat st;
  if (fstat(fd, &st) != 0 || st.st_size < 0) {
    SetError(error, path + ": fstat: " + std::strerror(errno));
    ::close(fd);
    return nullptr;
  }
  const std::size_t size = static_cast<std::size_t>(st.st_size);
  if (size == 0) {
    // mmap rejects zero-length mappings; an empty file is still a valid
    // (if never valid-IFSK) image.
    ::close(fd);
    auto file = std::shared_ptr<MappedFile>(new MappedFile());
    file->mapped_ = true;
    return file;
  }
  void* base = mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
  ::close(fd);  // the mapping keeps its own reference to the file
  if (base == MAP_FAILED) {
    // Some filesystems refuse mmap; the caller still gets the bytes.
    return OpenBuffered(path, error);
  }
  auto file = std::shared_ptr<MappedFile>(new MappedFile());
  file->data_ = static_cast<const unsigned char*>(base);
  file->size_ = size;
  file->mapped_ = true;
  file->map_base_ = base;
  return file;
#else
  return OpenBuffered(path, error);
#endif
}

std::shared_ptr<const MappedFile> MappedFile::OpenBuffered(
    const std::string& path, std::string* error) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) {
    SetError(error, path + ": " + std::strerror(errno));
    return nullptr;
  }
  // Chunked read into a growing staging buffer, then one copy into the
  // final aligned allocation: no fseek/ftell pre-sizing, which would cap
  // files at what a `long` can count on LLP64 platforms -- the very
  // platforms that always take this fallback.
  std::vector<unsigned char> staging;
  unsigned char chunk[64 * 1024];
  std::size_t got;
  while ((got = std::fread(chunk, 1, sizeof(chunk), in)) > 0) {
    staging.insert(staging.end(), chunk, chunk + got);
  }
  const bool read_error = std::ferror(in) != 0;
  std::fclose(in);
  if (read_error) {
    SetError(error, path + ": read error");
    return nullptr;
  }
  return FromBytes(staging.data(), staging.size());
}

std::shared_ptr<const MappedFile> MappedFile::FromBytes(const void* data,
                                                        std::size_t size) {
  auto file = std::shared_ptr<MappedFile>(new MappedFile());
  if (size > 0) {
    file->buffer_ = static_cast<unsigned char*>(
        ::operator new[](size, std::align_val_t{kAlignment}));
    std::memcpy(file->buffer_, data, size);
    file->data_ = file->buffer_;
    file->size_ = size;
  }
  return file;
}

}  // namespace ifsketch::util
