// The format constant has its changelog row in the fixture README; the
// seeded violation is in snapshot.cc.
#ifndef FIXTURE_STORE_SNAPSHOT_H_
#define FIXTURE_STORE_SNAPSHOT_H_

#include <cstdint>

namespace fixture {

inline constexpr uint32_t kSnapshotFormatVersion = 2;

}  // namespace fixture

#endif  // FIXTURE_STORE_SNAPSHOT_H_
