// Seeded violation for the dead-option rule: `max_line_bytes` is a field
// that no file outside this header and its .cc ever assigns. `target` is
// set by tools/connect.cc, so only the dead field fires.
#ifndef FIXTURE_CLIENT_H_
#define FIXTURE_CLIENT_H_

#include <cstddef>
#include <string>

namespace client {

struct ClientOptions {
  std::string target;
  size_t max_line_bytes = 64 * 1024;
};

}  // namespace client

#endif  // FIXTURE_CLIENT_H_
