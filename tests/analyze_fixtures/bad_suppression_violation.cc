// Seeded violations for the `bad-suppression` meta-rule: an allow() naming
// a rule dwm_analyze does not define, and an allow() with no reason.
// Analyzer input only; never compiled.

namespace dwm {

// dwm-analyze: allow(no-such-rule): seeded violation
int Stale() { return 1; }

// dwm-analyze: allow(determinism)
int Reasonless() { return 2; }

}  // namespace dwm
