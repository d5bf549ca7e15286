int Parse(const char* text) { return atoi(text); }  // banned-function
