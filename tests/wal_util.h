// Copyright 2026 The QLOVE Reproduction Authors
// Shared test helper: a throwaway WAL directory for tests that log and
// recover engine or aggregator state.

#ifndef QLOVE_TESTS_WAL_UTIL_H_
#define QLOVE_TESTS_WAL_UTIL_H_

#include <stdlib.h>
#include <unistd.h>

#include <string>

#include <gtest/gtest.h>

#include "engine/wal.h"

namespace qlove {
namespace test_util {

/// A fresh WAL directory under TMPDIR, removed (best-effort) at scope end.
class ScopedWalDir {
 public:
  ScopedWalDir() {
    char tmpl[] = "/tmp/qlove_wal_XXXXXX";
    const char* made = mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    path_ = made != nullptr ? made : "/tmp/qlove_wal_fallback";
  }
  ~ScopedWalDir() {
    auto segments = engine::ListWalSegments(path_);
    if (segments.ok()) {
      for (const std::string& file : segments.ValueOrDie()) {
        ::unlink(file.c_str());
      }
    }
    ::rmdir(path_.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace test_util
}  // namespace qlove

#endif  // QLOVE_TESTS_WAL_UTIL_H_
