#include "robusthd/util/parallel.hpp"

namespace robusthd::util {

std::size_t hardware_threads() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

}  // namespace robusthd::util
