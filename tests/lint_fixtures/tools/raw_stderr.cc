void Warn() { fprintf(stderr, "warning\n"); }  // no-raw-stderr
