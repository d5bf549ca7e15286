struct ShuffleCtx {
  const std::vector<double>& data;
  std::vector<const double*> rows;
  std::vector<double>& totals;  // job-purity: a writable reference
};
void Fold(const ShuffleCtx& ctx) {
  const_cast<ShuffleCtx&>(ctx).rows.clear();  // job-purity
}
struct Cache {
  mutable int64_t hits = 0;  // job-purity
};
