// tveg-lint fixture: exactly one no-adhoc-timer finding (line 8). Never
// compiled — only scanned by the lint tests and corpus ctests.
#include <chrono>

namespace tveg::fixture {

double phase_ms() {
  const auto start = std::chrono::steady_clock::now();
  return static_cast<double>(start.time_since_epoch().count()) / 1e6;
}

}  // namespace tveg::fixture
