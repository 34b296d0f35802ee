// Known-bad fixture: trips tsg-trace-literal and nothing else.
// Not compiled — consumed by tests/test_tsglint.cc as analyzer input.
namespace fixture {

void spanFromVariable(const char* category) {
  TraceSpan(category, "phase");  // computed category: violation
}

void literalFromVariable(const char* name) {
  TraceLiteral lit{name};  // TraceLiteral from a variable: violation
  (void)lit;
}

void fineSpan() {
  TraceSpan("engine", "superstep");  // literal: OK
}

}  // namespace fixture
