// temp_path.hpp - scratch file names that no two test processes share.
//
// ctest runs every test as its own process, and `ctest -j` runs several at
// once, so a fixed file name under TempDir() lets two tests write, read
// and remove one file at the same time. unique_temp_path() is the one way
// the suite names a scratch file: the name carries the running test's
// suite and name and the process id. The file and its siblings (ring slots
// `<path>.N`, quarantined `<path>.N.corrupt`, `<path>.tmp`) are removed
// when the name is handed out - a reused pid cannot inherit a crashed
// run's files - and again when the test ends.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

namespace nextgov::test {

namespace detail {

/// Removes `path` and every file beside it named `<name of path>.*`.
inline void remove_with_siblings(const std::string& path) {
  const std::filesystem::path p{path};
  const std::string name = p.filename().string();
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator{p.parent_path(), ec}) {
    const std::string other = entry.path().filename().string();
    if (other == name || other.starts_with(name + ".")) {
      std::filesystem::remove(entry.path(), ec);
    }
  }
}

/// Removes every path handed out during a test once the test has ended.
class TempPathCleanup : public ::testing::EmptyTestEventListener {
 public:
  void OnTestEnd(const ::testing::TestInfo&) override {
    for (const std::string& path : paths_) remove_with_siblings(path);
    paths_.clear();
  }

  std::vector<std::string> paths_;
};

inline TempPathCleanup& cleanup() {
  // gtest's listener list owns and deletes the listener.
  static TempPathCleanup* const listener = [] {
    auto* l = new TempPathCleanup;
    ::testing::UnitTest::GetInstance()->listeners().Append(l);
    return l;
  }();
  return *listener;
}

}  // namespace detail

/// `<TempDir()>/<stem>_<suite>_<test>_<pid>`, with any '/' of a
/// parameterized test's name replaced by '_'.
inline std::string unique_temp_path(const std::string& stem) {
  const ::testing::TestInfo* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = stem;
  if (info != nullptr) {
    name += std::string("_") + info->test_suite_name() + "_" + info->name();
  }
  name += "_" + std::to_string(::getpid());
  for (char& c : name) {
    if (c == '/') c = '_';
  }
  std::string dir = ::testing::TempDir();
  if (!dir.empty() && dir.back() != '/') dir += '/';
  const std::string path = dir + name;
  detail::remove_with_siblings(path);
  detail::cleanup().paths_.push_back(path);
  return path;
}

}  // namespace nextgov::test
