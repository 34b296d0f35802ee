// Known-bad fixture: trips tsg-naked-thread and nothing else.
// Not compiled — consumed by tests/test_tsglint.cc as analyzer input.
#include <thread>

namespace fixture {

void spawnDirectly() {
  std::thread worker([] {});  // violation: bypasses Cluster
  worker.join();
}

// The identifier inside a string must NOT trip the tokenizer-based rule.
const char* kDoc = "call std::thread somewhere else";

}  // namespace fixture
