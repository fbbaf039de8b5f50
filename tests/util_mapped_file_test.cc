// util::MappedFile: identical bytes and alignment on the mmap,
// read-whole-file and in-memory-copy paths, RAII release, and error
// reporting.

#include "util/mapped_file.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

namespace ifsketch::util {
namespace {

std::string WriteTempFile(const std::string& stem,
                          const std::string& contents) {
  const std::string path = testing::TempDir() + "/" + stem;
  std::ofstream out(path, std::ios::binary);
  out.write(contents.data(),
            static_cast<std::streamsize>(contents.size()));
  out.close();
  return path;
}

TEST(MappedFileTest, MappedAndBufferedSeeIdenticalBytes) {
  std::string contents;
  for (int i = 0; i < 10000; ++i) {
    contents.push_back(static_cast<char>(i * 31 + 7));
  }
  const std::string path = WriteTempFile("mapped_file_bytes.bin", contents);

  const auto mapped = MappedFile::Open(path);
  ASSERT_NE(mapped, nullptr);
  const auto buffered = MappedFile::OpenBuffered(path);
  ASSERT_NE(buffered, nullptr);
  EXPECT_FALSE(buffered->is_mapped());
  const auto copied = MappedFile::FromBytes(contents.data(), contents.size());
  EXPECT_FALSE(copied->is_mapped());

  ASSERT_EQ(mapped->size(), contents.size());
  ASSERT_EQ(buffered->size(), contents.size());
  ASSERT_EQ(copied->size(), contents.size());
  EXPECT_EQ(0, std::memcmp(mapped->data(), contents.data(), contents.size()));
  EXPECT_EQ(0,
            std::memcmp(buffered->data(), contents.data(), contents.size()));
  EXPECT_EQ(0, std::memcmp(copied->data(), contents.data(), contents.size()));
}

TEST(MappedFileTest, DataIsCacheLineAlignedOnBothPaths) {
  const std::string contents(512, 'x');
  const std::string path = WriteTempFile("mapped_file_align.bin", contents);
  for (const auto& file :
       {MappedFile::Open(path), MappedFile::OpenBuffered(path),
        MappedFile::FromBytes(contents.data() + 1, contents.size() - 1)}) {
    ASSERT_NE(file, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(file->data()) % 64, 0u);
  }
}

TEST(MappedFileTest, EmptyFileYieldsEmptyImage) {
  const std::string path = WriteTempFile("mapped_file_empty.bin", "");
  for (const auto& file :
       {MappedFile::Open(path), MappedFile::OpenBuffered(path),
        MappedFile::FromBytes(nullptr, 0)}) {
    ASSERT_NE(file, nullptr);
    EXPECT_EQ(file->size(), 0u);
  }
}

TEST(MappedFileTest, MissingFileReportsError) {
  std::string error;
  EXPECT_EQ(MappedFile::Open(testing::TempDir() + "/no_such_file.bin",
                             &error),
            nullptr);
  EXPECT_NE(error.find("no_such_file.bin"), std::string::npos);
  error.clear();
  EXPECT_EQ(MappedFile::OpenBuffered(
                testing::TempDir() + "/no_such_file.bin", &error),
            nullptr);
  EXPECT_NE(error.find("no_such_file.bin"), std::string::npos);
}

}  // namespace
}  // namespace ifsketch::util
