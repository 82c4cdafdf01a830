// Per-test scratch file paths. gtest_discover_tests makes every test its
// own ctest process and `ctest -j` runs them at once in one directory, so
// a fixed file name shared by two tests lets one truncate, append to or
// remove the other's file. The process id also keeps two checkouts that
// test at the same time apart.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

/// testing::TempDir() + "emc_<pid>_<suite>.<test>_<suffix>", with any '/'
/// of a parameterised test name replaced, so the file is the running
/// test's own.
inline std::string test_temp_path(const std::string& suffix) {
  const testing::TestInfo* info = testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string(info->test_suite_name()) + "." + info->name();
  for (char& c : name)
    if (c == '/') c = '_';
  return testing::TempDir() + "emc_" + std::to_string(::getpid()) + "_" + name + "_" + suffix;
}
