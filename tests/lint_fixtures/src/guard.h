// include-guard: the guard is not named after the path.
#ifndef GUARD_H
#define GUARD_H
#endif  // GUARD_H
