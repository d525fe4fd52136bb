#pragma once
// Sets ROBUSTHD_ARENA_HUGEPAGES for a scope. Every plane arena built
// meanwhile reads it (util::hugepages_from_env), so a test can deploy or
// allocate with the hugepage request on or off.

#include <cstdlib>
#include <optional>
#include <string>

namespace robusthd::test {

class HugepagesEnv {
 public:
  /// Sets the variable to `value`, or unsets it for nullptr.
  explicit HugepagesEnv(const char* value) {
    if (const char* v = std::getenv(kName)) saved_ = v;
    set(value);
  }
  ~HugepagesEnv() { set(saved_ ? saved_->c_str() : nullptr); }
  HugepagesEnv(const HugepagesEnv&) = delete;
  HugepagesEnv& operator=(const HugepagesEnv&) = delete;

 private:
  static constexpr const char* kName = "ROBUSTHD_ARENA_HUGEPAGES";

  static void set(const char* value) {
    if (value != nullptr) {
      ::setenv(kName, value, 1);
    } else {
      ::unsetenv(kName);
    }
  }

  std::optional<std::string> saved_;
};

}  // namespace robusthd::test
