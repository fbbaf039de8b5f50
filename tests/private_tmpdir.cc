// Gives every ifsketch_tests process a scratch directory of its own.
//
// ctest runs each gtest case as a separate process (gtest_discover_tests
// in CMakeLists.txt), many at once under `ctest -j`. The tests name
// their temp files by fixed stems under testing::TempDir(), and some
// fixtures rewrite the same file for every case, so processes sharing
// one directory would race on those paths. Before the first test runs,
// this environment creates a fresh directory under the inherited
// TempDir() and points TEST_TMPDIR -- which testing::TempDir() reads on
// every call -- at it; the directory and its contents are removed, and
// the inherited TEST_TMPDIR restored, after the tests finish. Restoring
// it lets --gtest_repeat run SetUp again under the inherited directory
// instead of under the one just removed.

#include <gtest/gtest.h>

#include <stdlib.h>

#include <filesystem>
#include <optional>
#include <string>
#include <system_error>

namespace {

class PrivateTmpDir : public testing::Environment {
 public:
  void SetUp() override {
    const char* inherited = ::getenv("TEST_TMPDIR");
    inherited_ = inherited != nullptr ? std::optional<std::string>(inherited)
                                      : std::nullopt;
    std::string path = testing::TempDir() + "ifsketch_tests.XXXXXX";
    if (::mkdtemp(path.data()) == nullptr) return;  // keep the shared dir
    dir_ = path;
    // With the trailing slash, as TempDir() returns it by default (the
    // tests append names to it either way).
    ::setenv("TEST_TMPDIR", (dir_ + "/").c_str(), 1);
  }

  void TearDown() override {
    if (dir_.empty()) return;
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
    dir_.clear();
    if (inherited_.has_value()) {
      ::setenv("TEST_TMPDIR", inherited_->c_str(), 1);
    } else {
      ::unsetenv("TEST_TMPDIR");
    }
  }

 private:
  std::string dir_;
  std::optional<std::string> inherited_;  // TEST_TMPDIR before SetUp
};

[[maybe_unused]] testing::Environment* const kPrivateTmpDir =
    testing::AddGlobalTestEnvironment(new PrivateTmpDir);

}  // namespace
