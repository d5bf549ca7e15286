// bench/ is outside no-raw-stderr's scope.
void Report() { fprintf(stderr, "done\n"); }
