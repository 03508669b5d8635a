// Sets the one live ClientOptions field. The SocketServerOptions below has
// a field of the same name set, which must not count for ClientOptions.
#include "src/client/client.h"

struct SocketServerOptions {
  size_t max_line_bytes = 0;
};

int main() {
  client::ClientOptions options;
  options.target = "unix:fixture.sock";
  SocketServerOptions server_options;
  server_options.max_line_bytes = 1024;
  return options.target.empty() ? 1 : 0;
}
