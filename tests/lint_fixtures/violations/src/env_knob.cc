// Fixture: fires env-knob — library code reading an environment variable
// with no allow(env-knob) suppression giving its reason.
#include <cstdlib>

bool FixtureEnvKnob() {
  return std::getenv("KVEC_FIXTURE_MODE") != nullptr;
}
