// Helpers shared by the test binaries.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <string>

namespace ada::test {

/// A temp directory path that no other test shares: `prefix`, then this
/// process's id and a per-process counter.  Concurrent test processes
/// (`ctest -j`) each get their own directory, also in sanitizer builds,
/// where heap addresses repeat across processes.  Creates nothing.
inline std::string unique_temp_dir(const std::string& prefix) {
  static std::atomic<unsigned> counter{0};
  return testing::TempDir() + "/" + prefix + "_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter++);
}

}  // namespace ada::test
