// Seeded violation for the counter-store rule: an event counter kept as a
// private std::atomic beside the metrics registry. The id sequence next to
// it is allowlisted and must not be reported.
#include <atomic>
#include <cstdint>

class SatEngine {
 private:
  std::atomic<uint64_t> next_ticket_id_{1};
  std::atomic<uint64_t> memo_hits_{0};
};
