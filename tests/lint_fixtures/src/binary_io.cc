std::ofstream out(path, std::ios::binary);  // binary-stream-io
